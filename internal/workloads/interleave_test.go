package workloads

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"doppelganger/internal/trace"
)

// recorderDigests hashes a recording's global access order and its per-core
// record streams (per core its record count, then every record's address,
// value, gap, size and flags), each to a short hex prefix of its SHA-256.
func recorderDigests(t *testing.T, rec *trace.Recorder) (order, streams string) {
	t.Helper()
	oh, sh := sha256.New(), sha256.New()
	if err := binary.Write(oh, binary.LittleEndian, rec.Order); err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Cores {
		if err := binary.Write(sh, binary.LittleEndian, uint64(len(s))); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(sh, binary.LittleEndian, s); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(oh.Sum(nil))[:16], hex.EncodeToString(sh.Sum(nil))[:16]
}

// TestGangInterleavingGolden pins the gang scheduler's interleaving on real
// kernels: the global access order and every core's record stream of a
// four-core split-LLC run must hash to the values captured from the channel
// token-ring gang the coroutine gang replaced, under a background and under
// a cancellable context. (The streams digests were re-taken when the record
// layout they hash changed, from recordings that still matched the
// token-ring digests under the old layout.) The golden tables run no
// multi-group workload; the mixes give each program its own barrier group,
// so they pin where barriers release and where finished cores retire in a
// multi-group rotation.
func TestGangInterleavingGolden(t *testing.T) {
	const scale = 0.05
	cases := []struct {
		name           string
		progs          []string
		accesses       int
		order, streams string
	}{
		{"kmeans", []string{"kmeans"}, 104448, "77add8d5741eaaf9", "620f48f12eed443a"},
		{"fluidanimate", []string{"fluidanimate"}, 119808, "a635e014c188e4d3", "cc1b7ade85abac32"},
		{"kmeans+inversek2j", []string{"kmeans", "inversek2j"}, 153344, "34604f070fd48b3c", "d6b3172a5266af04"},
		{"fluidanimate+jpeg", []string{"fluidanimate", "jpeg"}, 204648, "fe1972be0a78427e", "1fd8be8e3b895f28"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			build := func() *Benchmark {
				progs := make([]*Benchmark, len(tc.progs))
				for i, name := range tc.progs {
					f, err := ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					progs[i] = f.New(scale)
				}
				if len(progs) == 1 {
					return progs[0]
				}
				return Multiprogram(progs...)
			}
			cancellable, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, ctx := range []struct {
				name string
				ctx  context.Context
			}{{"background", context.Background()}, {"cancellable", cancellable}} {
				res, err := RunFunctionalContext(ctx.ctx, build(), SplitBuilder(14, 0.25), RunOptions{Cores: 4, Record: true})
				if err != nil {
					t.Fatalf("%s: %v", ctx.name, err)
				}
				order, streams := recorderDigests(t, res.Recorder)
				if n := len(res.Recorder.Order); n != tc.accesses || order != tc.order || streams != tc.streams {
					t.Errorf("%s: accesses %d order %s streams %s; golden %d %s %s",
						ctx.name, n, order, streams, tc.accesses, tc.order, tc.streams)
				}
			}
		})
	}
}
