package server

import "testing"

// TestChecksumDetectsMutation is the corruption-detection primitive: any
// byte flip changes the sum.
func TestChecksumDetectsMutation(t *testing.T) {
	payload := []byte(`{"key":"split/kmeans/14/0.25/error","kind":"split-error","bits":4591870180066957722}`)
	sum := checksum(payload)
	for i := range payload {
		mutated := append([]byte(nil), payload...)
		mutated[i] ^= 0x20
		if checksum(mutated) == sum {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
}
