package timesim

import (
	"testing"

	"doppelganger/internal/memdata"
	"doppelganger/internal/trace"
)

// TestMemOccupancySerializesFills: with a busy memory channel, overlapping
// misses queue behind each other; runtime grows versus the unlimited-
// bandwidth Table 1 model.
func TestMemOccupancySerializesFills(t *testing.T) {
	blocks := make([]int, 128)
	for i := range blocks {
		blocks[i] = i
	}
	rec := mkTrace(0, blocks...)
	free := DefaultConfig()
	busy := DefaultConfig()
	busy.MemOccupancy = 30
	a := run1(rec, free)
	b := run1(rec, busy)
	if b.Cycles <= a.Cycles {
		t.Errorf("memory occupancy had no effect: %d vs %d", b.Cycles, a.Cycles)
	}
	// With 30-cycle occupancy, 128 fills cannot finish faster than
	// 128×30 cycles of channel time.
	if b.Cycles < 128*30 {
		t.Errorf("cycles = %d, below channel bound %d", b.Cycles, 128*30)
	}
}

// TestWritebackBufferStalls: a stream of dirty evictions with a tiny
// writeback buffer must run slower than with an unbounded one.
func TestWritebackBufferStalls(t *testing.T) {
	rec := trace.NewRecorder(1)
	// Write a long stream of distinct blocks through a tiny LLC: every fill
	// evicts a dirty victim, generating a writeback.
	for i := 0; i < 400; i++ {
		rec.Access(0, memdata.Addr(0x10000+i*64), true, 4, uint64(i), false)
	}
	loose := DefaultConfig()
	loose.Cores = 1
	tight := loose
	tight.WBEntries = 1
	tight.MemOccupancy = 50
	a := Run(rec, memdata.NewStore(), nil, baselineBuilder(2<<10), loose)
	b := Run(rec, memdata.NewStore(), nil, baselineBuilder(2<<10), tight)
	if b.Cycles <= a.Cycles {
		t.Errorf("writeback buffer had no effect: %d vs %d", b.Cycles, a.Cycles)
	}
}

// TestDefaultsPreserveTable1Model: zero MemOccupancy/WBEntries must leave
// results identical to the pre-extension model.
func TestDefaultsPreserveTable1Model(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MemOccupancy != 0 || cfg.WBEntries != 0 {
		t.Fatal("bandwidth extensions must default off (Table 1 fixed-latency model)")
	}
}
