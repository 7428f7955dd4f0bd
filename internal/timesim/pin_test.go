package timesim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"doppelganger/internal/metrics"
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

// pinnedRegistry holds the SHA-256 of the JSONL export of a fresh registry
// after each of these runs: the baseline functional run that records each
// benchmark's streams ("<bench>/record"), each timing replay of that
// recording under the organizations TestTimingResultsPinned uses, and one
// split functional run, which exercises the Doppelgänger counters and the
// occupancy gauges' high-water marks. Every published name, value, gauge
// level and mark, and histogram bucket is covered.
var pinnedRegistry = map[string]string{
	"canneal/record":        "76e825e1ca7f204aeb278ff35148452ed7de3ac2eb21eeb52884a5c09c1d8f54",
	"canneal/baseline":      "64d63fe6892e8b28bb0865c71f4b9628d40c42fa4594f57a6b8b3fc70b5fe7f3",
	"canneal/split":         "415860a2ffe4cf5ff28a4b3acf29ff0f07ceee70a532b3e7821b1a6a6dc87a99",
	"canneal/unified":       "e6e726879cabf01aee04d5d48a5be6aa4ba5e590b8bb85776317eb0736c19b7e",
	"kmeans/record":         "e356fa3c0525a61f46b9b731ae800380dff9900d36da707906511f8dd2c4671e",
	"kmeans/baseline":       "0fd48c6e65bb9c3a8c47fcbe21cdce4238ce0fa8c248832976d04c00d6a6516e",
	"kmeans/split":          "9535d870da8ad5c554851da8b5b9c4cd86bf1440c4e144389949cbc0e47a707d",
	"kmeans/unified":        "5aa2b21eb5d4fe8c12c71d1e41760d9937233fdd8f4b1ace0f09b9c137225873",
	"jpeg/record":           "73ab0a9790cf06a73665cbed40c96c84a332c8ce17c46dfacc21e4af18e3926d",
	"jpeg/baseline":         "2cd54ddfc561093f27fd98b03ad21395d9aae876861f23e52d3cbe599c067e44",
	"jpeg/split":            "85bcef9946044bc92d98adf0484681c6a836d1f3731ca349080e3089e2c46509",
	"jpeg/unified":          "c29c6b0201be69641ab28c845fb92cbb43b4334b962e006f4107134dd44a9f12",
	"jpeg/split-functional": "5844ad192e1de3f826c83905b698c682a5c0e9b14f4efb16bdd494189d7a76b1",
}

// TestRegistryPinned requires every run's published instruments to hash to
// their pinned digests, so a change to how the simulation layers count
// cannot move a published value, add or drop an instrument, or change a
// histogram's buckets.
func TestRegistryPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-benchmark runs")
	}
	check := func(t *testing.T, key string, reg *metrics.Registry) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WriteJSONL(&buf, "pin"); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got, want := hex.EncodeToString(sum[:]), pinnedRegistry[key]; got != want {
			t.Errorf("%s: registry digest %s, pinned %s", key, got, want)
		}
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
			reg := metrics.NewRegistry()
			rec := workloads.RunFunctional(f.New(pinScale), workloads.BaselineBuilder(2<<20, 16),
				workloads.RunOptions{Cores: 4, Record: true, Metrics: reg})
			check(t, bench+"/record", reg)
			for _, llc := range []string{"baseline", "split", "unified"} {
				reg := metrics.NewRegistry()
				cfg := timesim.DefaultConfig()
				cfg.Cores = 4
				cfg.Metrics = reg
				timesim.Run(rec.Recorder, rec.InitialMem, rec.Annotations, builders[llc], cfg)
				check(t, bench+"/"+llc, reg)
			}
		})
	}
	t.Run("functional", func(t *testing.T) {
		t.Parallel()
		f, err := workloads.ByName("jpeg")
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		workloads.RunFunctional(f.New(pinScale), builders["split"], workloads.RunOptions{Cores: 4, Metrics: reg})
		check(t, "jpeg/split-functional", reg)
	})
}
