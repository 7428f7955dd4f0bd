// Package trace defines the per-core memory access traces recorded by the
// functional simulator and replayed by the cycle-level timing simulator,
// mirroring the paper's methodology split (§4): application error is
// measured functionally, performance by simulating the same access stream
// against each LLC organization.
//
// Traces persist in one on-disk form, the capture file (file.go, "DGTC"):
// a versioned, CRC-guarded container holding everything a replay needs —
// header, annotations, initial memory image, per-core streams, the global
// interleaving order, and the run's output.
package trace

import (
	"fmt"

	"doppelganger/internal/memdata"
)

// Record is one dynamic memory operation by a core. Gap counts the
// non-memory instructions executed since the previous record, which the
// timing model converts into dispatch cycles. Store payloads (up to 8
// bytes) ride along so the timing simulator can maintain a functional image
// for Doppelgänger map computation.
type Record struct {
	Addr   memdata.Addr
	Val    uint64
	Gap    uint32
	Size   uint8
	Write  bool
	Approx bool
}

// Trace is the access stream of one core.
type Trace []Record

// Recorder accumulates per-core traces during functional simulation.
//
// Order records the global interleaving: one entry per Access, in the order
// the hierarchy performed them. The gang scheduler serializes every access,
// so appending here is race-free, and the recorded order IS the order in
// which the shared LLC observed the stream — replaying Cores[...] in Order
// reproduces the exact functional state evolution of the live run. (The
// timing simulator ignores Order: it re-schedules the per-core streams by
// its own ready times.)
type Recorder struct {
	Cores   []Trace
	Order   []uint16 // core id per access, in global access order
	pending []uint32 // non-memory instructions awaiting the next record
}

// NewRecorder creates a recorder for n cores.
func NewRecorder(n int) *Recorder {
	return &Recorder{Cores: make([]Trace, n), pending: make([]uint32, n)}
}

// Work accounts n non-memory instructions on a core.
func (r *Recorder) Work(core int, n int) {
	if r == nil {
		return
	}
	r.pending[core] += uint32(n)
}

// Access appends a memory operation for a core, consuming the pending gap.
func (r *Recorder) Access(core int, addr memdata.Addr, write bool, size int, val uint64, approxFlag bool) {
	if r == nil {
		return
	}
	r.Cores[core] = append(r.Cores[core], Record{
		Addr:   addr,
		Val:    val,
		Gap:    r.pending[core],
		Size:   uint8(size),
		Write:  write,
		Approx: approxFlag,
	})
	r.Order = append(r.Order, uint16(core))
	r.pending[core] = 0
}

// Len returns the total number of records across cores.
func (r *Recorder) Len() int {
	total := 0
	for _, t := range r.Cores {
		total += len(t)
	}
	return total
}

// Instructions returns the total instruction count implied by the traces
// (memory operations plus gaps), used to normalize MPKI-style metrics.
func (r *Recorder) Instructions() uint64 {
	var total uint64
	for _, t := range r.Cores {
		for i := range t {
			total += uint64(t[i].Gap) + 1
		}
	}
	return total
}

// Cursor iterates a recorder's accesses in the recorded global order — the
// steady-state read path of functional replay. Construction validates the
// order index once so Next can be a handful of slice operations with no
// allocation and no per-step bounds reasoning.
type Cursor struct {
	cores []Trace
	order []uint16
	pos   []int
	i     int
}

// Cursor returns a global-order iterator over the recorded accesses. It
// fails if the recorder carries no order index (e.g. one assembled by hand
// from per-core streams) or if the index is inconsistent with them.
func (r *Recorder) Cursor() (*Cursor, error) {
	if len(r.Order) != r.Len() {
		return nil, fmt.Errorf("trace: order index has %d entries for %d records (recorded before global-order capture, or corrupt)",
			len(r.Order), r.Len())
	}
	counts := make([]int, len(r.Cores))
	for _, c := range r.Order {
		if int(c) >= len(r.Cores) {
			return nil, fmt.Errorf("trace: order index names core %d of %d", c, len(r.Cores))
		}
		counts[c]++
	}
	for c, n := range counts {
		if n != len(r.Cores[c]) {
			return nil, fmt.Errorf("trace: order index has %d accesses for core %d, stream has %d", n, c, len(r.Cores[c]))
		}
	}
	return &Cursor{cores: r.Cores, order: r.Order, pos: make([]int, len(r.Cores))}, nil
}

// Len returns the total number of accesses the cursor walks.
func (c *Cursor) Len() int { return len(c.order) }

// Next returns the next access in global order: the issuing core and a
// pointer into the recorded stream. It returns (-1, nil) once exhausted.
func (c *Cursor) Next() (core int, rec *Record) {
	if c.i >= len(c.order) {
		return -1, nil
	}
	cr := c.order[c.i]
	c.i++
	p := c.pos[cr]
	c.pos[cr] = p + 1
	return int(cr), &c.cores[cr][p]
}

// Reset rewinds the cursor to the first access without allocating.
func (c *Cursor) Reset() {
	c.i = 0
	for i := range c.pos {
		c.pos[i] = 0
	}
}
