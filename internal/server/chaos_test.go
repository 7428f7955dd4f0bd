package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"doppelganger/internal/quality"
	"doppelganger/internal/sweep"
)

// chaosCells is the job grid the chaos test pushes through the server: two
// benchmarks, error and timing cells, fault and quality cells — every
// executeCell code path except whole figures.
func chaosCells() []Cell {
	var cells []Cell
	for _, bench := range []string{"kmeans", "inversek2j"} {
		cells = append(cells,
			Cell{Kind: "baseline-timing", Bench: bench},
			Cell{Kind: "split-error", Bench: bench, M: 14, Frac: 0.25},
			Cell{Kind: "split-timing", Bench: bench, M: 14, Frac: 0.25},
			Cell{Kind: "uni-error", Bench: bench, M: 14, Frac: 0.5},
			Cell{Kind: "fault-error", Bench: bench, Org: "doppel", Rate: 1e-4},
			Cell{Kind: "quality-error", Bench: bench, Org: "doppel", Rate: 1e-4},
		)
	}
	return cells
}

// TestChaosExactlyOnceBitIdentical is the tentpole proof. Under shard kill
// mid-job, injected latency, and response corruption, every accepted job
// must (a) receive exactly one response, (b) have been computed exactly once
// at the result layer, and (c) carry bytes identical to a plain serial
// runner computing the same cell — the determinism contract survives every
// failover path.
func TestChaosExactlyOnceBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	const submitsPerCell = 3
	cfg := Config{
		Scale:        0.02,
		Shards:       3,
		ShardWorkers: 2,
		Only:         []string{"kmeans", "inversek2j"},
		Retries:      4,
		RetryBackoff: 10 * time.Millisecond,
		HedgeAfter:   300 * time.Millisecond,
		JobTimeout:   120 * time.Second,
		FaultSeed:    42,
		QualitySeed:  43,
		// A forgiving breaker: the chaos injects bounded failures per shard,
		// and the test must never wedge with every shard quarantined.
		Breaker: quality.BreakerConfig{Budget: 0.8, Cooldown: 4},
	}
	s := mustServer(t, cfg)

	// Deterministic chaos: hash (shard, key) to decide who suffers what.
	// Panics and corruption strike each (shard, key) pair at most once, so
	// the bounded retry/hedge budget always wins eventually; latency is
	// unconditional on its victims to exercise hedging repeatedly.
	chaosHash := func(shard int, key, salt string) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%s", shard, key, salt)
		return h.Sum64()
	}
	var once sync.Map // (shard|key|kind) -> struck already
	strikeOnce := func(shard int, key, kind string) bool {
		_, loaded := once.LoadOrStore(fmt.Sprintf("%d|%s|%s", shard, key, kind), true)
		return !loaded
	}
	s.SetChaos(ChaosHooks{
		BeforeExec: func(shard int, key string) {
			if chaosHash(shard, key, "latency")%3 == 0 {
				time.Sleep(50 * time.Millisecond)
			}
			if chaosHash(shard, key, "panic")%4 == 0 && strikeOnce(shard, key, "panic") {
				panic("chaos: worker crash mid-job")
			}
		},
		CorruptPayload: func(shard int, key string, payload []byte) []byte {
			if chaosHash(shard, key, "corrupt")%4 == 0 && strikeOnce(shard, key, "corrupt") {
				mutated := append([]byte(nil), payload...)
				mutated[chaosHash(shard, key, "byte")%uint64(len(mutated))] ^= 0xff
				return mutated
			}
			return payload
		},
	})

	cells := chaosCells()
	victim := s.ring.order("kmeans")[0]

	type reply struct {
		cell int
		res  *Result
		err  error
	}
	replies := make(chan reply, len(cells)*submitsPerCell)
	var wg sync.WaitGroup
	for i, c := range cells {
		for k := 0; k < submitsPerCell; k++ {
			wg.Add(1)
			go func(i int, c Cell) {
				defer wg.Done()
				res, err := s.SubmitLocal(context.Background(), c)
				replies <- reply{cell: i, res: res, err: err}
			}(i, c)
		}
	}
	// Kill one shard while jobs are in flight: its in-progress simulations
	// abort and its queue fails fast; dispatch must fail everything over.
	time.Sleep(100 * time.Millisecond)
	s.KillShard(victim)
	wg.Wait()
	close(replies)

	// (a) Exactly one response per accepted submission, all successful.
	payloads := make(map[int][][]byte)
	for r := range replies {
		if r.err != nil {
			t.Fatalf("cell %s failed under chaos: %v", cells[r.cell].Key(), r.err)
		}
		if checksum(r.res.Payload) != r.res.Sum {
			t.Fatalf("cell %s: delivered payload fails its checksum", cells[r.cell].Key())
		}
		payloads[r.cell] = append(payloads[r.cell], r.res.Payload)
	}
	total := 0
	for i := range cells {
		got := payloads[i]
		if len(got) != submitsPerCell {
			t.Fatalf("cell %s: %d responses, want %d", cells[i].Key(), len(got), submitsPerCell)
		}
		for _, p := range got[1:] {
			if !bytes.Equal(p, got[0]) {
				t.Fatalf("cell %s: concurrent submissions saw different payloads", cells[i].Key())
			}
		}
		total += len(got)
	}
	if want := len(cells) * submitsPerCell; total != want {
		t.Fatalf("responses = %d, want %d", total, want)
	}

	// (b) Exactly-once at the result layer: one compute per distinct cell,
	// no matter how many submissions, retries, hedges or corruptions.
	if n := s.Computes(); n != int64(len(cells)) {
		t.Fatalf("Computes() = %d, want %d (exactly once per distinct cell)", n, len(cells))
	}
	st := s.Stats()
	if st.Accepted != uint64(len(cells)*submitsPerCell) || st.Completed != st.Accepted {
		t.Fatalf("accounting: accepted %d completed %d, want both %d", st.Accepted, st.Completed, len(cells)*submitsPerCell)
	}
	if !st.Shards[victim].Dead {
		t.Fatal("killed shard not reported dead")
	}

	// The chaos actually happened: panics and corruptions were detected and
	// survived (counts are deterministic given the hash, but asserting >0
	// keeps the test honest about exercising the machinery).
	if st.Panics == 0 {
		t.Fatal("chaos injected no panics — the hooks are dead code")
	}
	if st.Corrupt == 0 {
		t.Fatal("chaos injected no corruption — the checksum path is untested")
	}

	// (c) Bit-identical to a serial run: a fresh runner with the same knobs
	// (same seeds, same scale) must produce the same canonical bytes for
	// every cell.
	serial := sweep.NewRunner(cfg.Scale)
	serial.Only = cfg.Only
	serial.FaultSeed = cfg.FaultSeed
	serial.QualitySeed = cfg.QualitySeed
	for i, c := range cells {
		want, err := executeCell(context.Background(), serial, c)
		if err != nil {
			t.Fatalf("serial %s: %v", c.Key(), err)
		}
		if !bytes.Equal(payloads[i][0], want) {
			t.Fatalf("cell %s: server bytes differ from serial runner\n  server: %s\n  serial: %s",
				c.Key(), payloads[i][0], want)
		}
	}
}
