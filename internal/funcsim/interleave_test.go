package funcsim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"doppelganger/internal/memdata"
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

// Golden interleaving of TestGangInterleavingTwoGroupsGolden, captured from
// the channel token-ring gang the coroutine gang replaced; the two must
// interleave identically. The streams digest was re-taken when the record
// layout it hashes changed, from a recording that still matched the
// token-ring digest under the old layout.
const (
	goldenTwoGroupAccesses = 241
	goldenTwoGroupOrder    = "0e86781594a9d380"
	goldenTwoGroupStreams  = "4165f20a68be872b"
)

// twoGroupKernels is a five-core kernel set in two barrier groups (cores 0,
// 2 and 4 in group 0; cores 1 and 3 in group 1) whose recorded values depend
// on the global access order: most accesses read-modify-write a word shared
// by all cores or by the core's group. Core 2 finishes before its group's
// first barrier, and core 3 panics in kernel code, not in a memory access,
// after its group's first barrier, so the rotation slots where cores retire
// and where each group's barriers release all show in the recording.
func twoGroupKernels() ([]func(*CoreCtx), []int) {
	const shared = memdata.Addr(0x100)
	groupWord := func(grp int) memdata.Addr { return memdata.Addr(0x1000 + grp*0x1000) }
	bump := func(c *CoreCtx, addr memdata.Addr, k int32) {
		c.Work(int(k))
		c.StoreI32(addr, c.LoadI32(addr)*3+k)
	}
	phases := func(grp int, lens ...int) func(*CoreCtx) {
		return func(c *CoreCtx) {
			for p, n := range lens {
				for i := 0; i < n; i++ {
					bump(c, shared, int32(c.Core()+p))
					bump(c, groupWord(grp), int32(i))
					c.LoadI32(memdata.Addr(0x8000 + c.Core()*0x1000 + i*memdata.BlockSize))
				}
				c.Barrier()
			}
		}
	}
	kernels := []func(*CoreCtx){
		phases(0, 5, 9, 2),
		phases(1, 7, 3, 6),
		func(c *CoreCtx) { // early finisher: leaves group 0 before its first barrier
			for i := 0; i < 3; i++ {
				bump(c, shared, 11)
			}
		},
		func(c *CoreCtx) { // crashes between accesses after group 1's first barrier
			for i := 0; i < 4; i++ {
				bump(c, groupWord(1), 5)
			}
			c.Barrier()
			bump(c, shared, 13)
			panic("synthetic crash between accesses")
		},
		phases(0, 8, 1, 4),
	}
	return kernels, []int{0, 1, 0, 1, 0}
}

// TestGangInterleavingTwoGroupsGolden pins the gang's rotation on a
// multi-group run with an early finisher and an out-of-turn crash: the
// global access order and each core's record stream must hash to the
// golden values under a background and under a cancellable context, and the
// crash must surface as the run's error.
func TestGangInterleavingTwoGroupsGolden(t *testing.T) {
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", cancellable}} {
		rec := trace.NewRecorder(5)
		h, _ := testHierarchy(5, rec)
		kernels, groups := twoGroupKernels()
		err := RunGroupedContext(ctx.ctx, h, kernels, groups)
		if err == nil || !strings.Contains(err.Error(), "kernel 3 panicked: synthetic crash between accesses") {
			t.Fatalf("%s: err = %v, want core 3's crash", ctx.name, err)
		}
		order, streams := recorderDigests(t, rec)
		if n := len(rec.Order); n != goldenTwoGroupAccesses || order != goldenTwoGroupOrder || streams != goldenTwoGroupStreams {
			t.Errorf("%s: accesses %d order %s streams %s; golden %d %s %s", ctx.name, n, order, streams,
				goldenTwoGroupAccesses, goldenTwoGroupOrder, goldenTwoGroupStreams)
		}
	}
}
