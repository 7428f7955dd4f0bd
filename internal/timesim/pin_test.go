package timesim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"doppelganger/internal/sweep"
	"doppelganger/internal/timesim"
	"doppelganger/internal/workloads"
)

// pinScale is the scale of the golden tables, so the pinned runs are the
// grid's own timing cells.
const pinScale = 0.05

// pinnedTiming holds the SHA-256 of the JSON-encoded sweep.Summarize output
// (Cycles, PerCoreCycles, Instructions, Totals, Hier) of each benchmark's
// baseline recording replayed under each LLC organization. The golden
// tables round to three decimals and miss most reorderings of events; these
// digests move with any cycle count or event counter, however small.
var pinnedTiming = map[string]string{
	"canneal/baseline": "a2fb57f82693bdb817fad80d8cb30bbdcb9ca88ffe02a59128fb697ff9856938",
	"canneal/split":    "956d006f116b3dbceaea659de9fe22d39a1043f03a1b1bb9776ef10553dc26bd",
	"canneal/unified":  "259e070091a5b21dcda8f57bf730fe697d99b9d3d1465cbc06bf6f9242280d13",
	"kmeans/baseline":  "ebde6b172721f8704380128da46396c15a23ca70bfb7724db499574c495c9381",
	"kmeans/split":     "b42147e145b1eb8c657f77d93a005f05a7ae771c938c8e27eb85e2de3ea05a34",
	"kmeans/unified":   "3eb747368a8a32ad0921d6938cf399dbcd59e5b660a0cf505914b994314e130b",
	"jpeg/baseline":    "5997f64a99a06c83ae502313e783df4fa0caa9748379c3284caa4508e2f28c88",
	"jpeg/split":       "56bb9940f10dc0cd93767108887e85f603c132a0aac6825ca5119b32aefc4118",
	"jpeg/unified":     "0b3ebbe2913ddea42899c4d3108c0eef67e6587e592e132bc3b9a5462a49bc35",
}

// TestTimingResultsPinned replays canneal, kmeans and jpeg under the 2 MB
// baseline, split M=14 with a quarter-size data array, and uniDoppelgänger
// M=14 with a half-size data array, and requires every summary to hash to
// its pinned digest. An optimization of the event loop must leave every
// digest unchanged.
func TestTimingResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-benchmark timing replays")
	}
	builders := diffBuilders()
	for _, bench := range []string{"canneal", "kmeans", "jpeg"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			f, err := workloads.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			rec := workloads.RunFunctional(f.New(pinScale), workloads.BaselineBuilder(2<<20, 16),
				workloads.RunOptions{Cores: 4, Record: true})
			for _, llc := range []string{"baseline", "split", "unified"} {
				cfg := timesim.DefaultConfig()
				cfg.Cores = 4
				res := timesim.Run(rec.Recorder, rec.InitialMem, rec.Annotations, builders[llc], cfg)
				js, err := json.Marshal(sweep.Summarize(res))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(js)
				key := bench + "/" + llc
				if got, want := hex.EncodeToString(sum[:]), pinnedTiming[key]; got != want {
					t.Errorf("%s: summary digest %s, pinned %s (cycles %d, instructions %d)",
						key, got, want, res.Cycles, res.Instructions)
				}
			}
		})
	}
}
