package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"doppelganger/internal/server"
)

// passes draws a run's distinct cells and the job sequences of its first n
// passes, as a serve-warm run does from its seed.
func passes(seed int64, n int) (distinct []server.Cell, jobs, firsts [][]server.Cell) {
	rng := rand.New(rand.NewSource(seed))
	distinct = drawCells(rng)
	for i := 0; i < n; i++ {
		j, f := arrange(distinct, rng)
		jobs, firsts = append(jobs, j), append(firsts, f)
	}
	return distinct, jobs, firsts
}

func TestStreamDeterministic(t *testing.T) {
	da, ja, fa := passes(7, 3)
	db, jb, fb := passes(7, 3)
	if !reflect.DeepEqual(da, db) || !reflect.DeepEqual(ja, jb) || !reflect.DeepEqual(fa, fb) {
		t.Fatal("the same seed gave two different streams")
	}
	if reflect.DeepEqual(ja[0], ja[1]) {
		t.Fatal("two passes of one run submitted the same sequence")
	}
	dc, jc, _ := passes(8, 1)
	if reflect.DeepEqual(da, dc) || reflect.DeepEqual(ja[0], jc[0]) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// TestStreamShape checks what every pass of every seed's stream guarantees:
// exactly one repeat per distinct cell (memo-hit ratio 1/2), repeats only of
// cells first submitted at least repeatLag positions earlier, firsts in the
// order of first submission, the same number of cells of each kind, every
// kind present, and every cell in the universe whose payload digests the
// benchmark stores.
func TestStreamShape(t *testing.T) {
	var digests map[string]string
	if err := json.Unmarshal(payloadDigestsJSON, &digests); err != nil {
		t.Fatal(err)
	}
	if len(digests) != len(universe()) {
		t.Fatalf("payloads.json holds %d digests, universe has %d cells", len(digests), len(universe()))
	}
	var kindCounts map[string]int
	for seed := int64(1); seed <= 20; seed++ {
		distinct, jobs, firsts := passes(seed, 3)
		if len(distinct) < 100 {
			t.Fatalf("seed %d: %d distinct cells; the p90 of their latencies needs 100", seed, len(distinct))
		}
		for p := range jobs {
			if len(jobs[p]) != 2*len(distinct) {
				t.Fatalf("seed %d pass %d: %d jobs for %d distinct cells, want twice as many", seed, p, len(jobs[p]), len(distinct))
			}
			first := map[server.Cell]int{}
			var order []server.Cell
			for i, j := range jobs[p] {
				if _, ok := digests[j.Key()]; !ok {
					t.Fatalf("seed %d: job %d (%s) is outside the universe", seed, i, j.Key())
				}
				at, seen := first[j]
				if !seen {
					first[j] = i
					order = append(order, j)
					continue
				}
				if i-at < repeatLag {
					t.Errorf("seed %d pass %d: job %d repeats job %d, closer than %d", seed, p, i, at, repeatLag)
				}
			}
			if len(first) != len(distinct) {
				t.Fatalf("seed %d pass %d: %d distinct jobs submitted, %d drawn", seed, p, len(first), len(distinct))
			}
			if !reflect.DeepEqual(order, firsts[p]) {
				t.Fatalf("seed %d pass %d: firsts are not in the order of first submission", seed, p)
			}
		}
		counts := map[string]int{}
		for _, c := range distinct {
			counts[c.Kind]++
		}
		if kindCounts == nil {
			kindCounts = counts
		} else if !reflect.DeepEqual(counts, kindCounts) {
			t.Errorf("seed %d: kinds %v, seed 1 had %v", seed, counts, kindCounts)
		}
	}
	for _, k := range []string{"split-error", "uni-error", "split-timing", "uni-timing", "baseline-timing", "fault-error", "quality-error"} {
		if kindCounts[k] == 0 {
			t.Errorf("no %s cell in the stream", k)
		}
	}
}
