package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestChaosExactlyOnceBitIdentical pushes every cell through the server
// from several concurrent submitters, with injected latency and a panic on
// the first compute of some cells. Every submission must (a) receive
// exactly one reply; (b) fail only if it waited on a panicked compute, with
// an error naming the panic; and (c) once each failed cell is resubmitted,
// every cell must have computed successfully exactly once and carry bytes
// identical to a plain serial runner computing the same cell.
func TestChaosExactlyOnceBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	const submitsPerCell = 3
	const crash = "chaos: crash mid-compute"
	cfg := Config{
		Scale:       0.02,
		Only:        []string{"kmeans", "inversek2j"},
		JobTimeout:  120 * time.Second,
		FaultSeed:   42,
		QualitySeed: 43,
	}
	s := mustServer(t, cfg)

	// Deterministic chaos: hash the cell key to decide who suffers what.
	// A victim panics on its first compute only, so its resubmission can
	// succeed; latency strikes its victims on every compute.
	chaosHash := func(key, salt string) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s", key, salt)
		return h.Sum64()
	}
	victim := func(key string) bool { return chaosHash(key, "panic")%3 == 0 }
	var struck sync.Map
	s.beforeCompute = func(key string) {
		if chaosHash(key, "latency")%3 == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		if _, again := struck.LoadOrStore(key, true); victim(key) && !again {
			panic(crash)
		}
	}

	cells := chaosCells()
	victims := 0
	for _, c := range cells {
		if victim(c.Key()) {
			victims++
		}
	}
	if victims == 0 || victims == len(cells) {
		t.Fatalf("%d of %d cells are victims; the chaos must strike some, not all", victims, len(cells))
	}

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
				res, err := s.Submit(context.Background(), c)
				replies <- reply{cell: i, res: res, err: err}
			}(i, c)
		}
	}
	wg.Wait()
	close(replies)

	// (a) Exactly one reply per submission; (b) failures only where a
	// panicked compute was waited on.
	payloads := make(map[int][][]byte)
	replied := make(map[int]int)
	failed := make(map[int]int)
	for r := range replies {
		replied[r.cell]++
		key := cells[r.cell].Key()
		if r.err != nil {
			if !victim(key) {
				t.Fatalf("cell %s failed though no compute of it panicked: %v", key, r.err)
			}
			if !strings.Contains(r.err.Error(), crash) {
				t.Fatalf("cell %s: error does not name the panic: %v", key, r.err)
			}
			failed[r.cell]++
			continue
		}
		if checksum(r.res.Payload) != r.res.Sum {
			t.Fatalf("cell %s: delivered payload fails its checksum", key)
		}
		payloads[r.cell] = append(payloads[r.cell], r.res.Payload)
	}
	for i, c := range cells {
		if replied[i] != submitsPerCell {
			t.Fatalf("cell %s: %d replies, want %d", c.Key(), replied[i], submitsPerCell)
		}
		if victim(c.Key()) && failed[i] == 0 {
			t.Fatalf("cell %s: its panicked compute failed no submission", c.Key())
		}
	}
	st := s.Stats()
	if st.Panics != uint64(victims) {
		t.Fatalf("Stats().Panics = %d, want %d (one per victim)", st.Panics, victims)
	}

	// Resubmitting each failed cell succeeds: the memo forgot the failure.
	resubmits := 0
	for i, c := range cells {
		if failed[i] == 0 {
			continue
		}
		res, err := s.Submit(context.Background(), c)
		if err != nil {
			t.Fatalf("resubmitted %s: %v", c.Key(), err)
		}
		resubmits++
		payloads[i] = append(payloads[i], res.Payload)
	}

	// (c) Exactly once: one successful compute per distinct cell, plus one
	// per panic; no submission computed anything twice.
	if n, want := s.Computes(), int64(len(cells)+victims); n != want {
		t.Fatalf("Computes() = %d, want %d (%d cells + %d panicked computes)", n, want, len(cells), victims)
	}
	st = s.Stats()
	totalFailed := 0
	for _, n := range failed {
		totalFailed += n
	}
	if want := uint64(len(cells)*submitsPerCell + resubmits); st.Accepted != want ||
		st.Completed != want-uint64(totalFailed) || st.Failed != uint64(totalFailed) {
		t.Fatalf("accounting: accepted %d completed %d failed %d, want %d, %d, %d",
			st.Accepted, st.Completed, st.Failed, want, want-uint64(totalFailed), totalFailed)
	}

	// Bit-identical to a serial run: a fresh runner with the same knobs
	// (same seeds, same scale) must produce the same canonical bytes for
	// every cell, for every successful reply.
	serial := sweep.NewRunner(cfg.Scale)
	serial.Only = cfg.Only
	serial.FaultSeed = cfg.FaultSeed
	serial.QualitySeed = cfg.QualitySeed
	for i, c := range cells {
		want, err := executeCell(context.Background(), serial, c)
		if err != nil {
			t.Fatalf("serial %s: %v", c.Key(), err)
		}
		if len(payloads[i]) == 0 {
			t.Fatalf("cell %s: no successful reply", c.Key())
		}
		for _, p := range payloads[i] {
			if !bytes.Equal(p, want) {
				t.Fatalf("cell %s: server bytes differ from serial runner\n  server: %s\n  serial: %s", c.Key(), p, want)
			}
		}
	}
}
