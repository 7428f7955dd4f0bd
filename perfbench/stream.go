package main

import (
	"math/rand"

	"doppelganger/internal/server"
	"doppelganger/internal/sweep"
	"doppelganger/internal/workloads"
)

// draw is one group of cells of a benchmark and how many of them a stream
// takes.
type draw struct {
	n     int
	cells []server.Cell
}

// draws lists the groups a stream draws each benchmark's cells from. The
// stream's universe is the paper grid's points, per benchmark: the five
// split points and three uniDoppelgänger points of the figures (error and
// timing each), the baseline timing run, fault injection on all three
// organizations and the quality guard on both Doppelgänger organizations,
// at the default fault rates. A stream takes a fixed number from each
// group, so its cost hardly depends on the seed: seeds vary which grid
// points are drawn, not how much of each kind of work there is. Fault and
// quality cells are grouped per organization because the organization sets
// what a replay costs.
func draws(bench string) []draw {
	var splitE, splitT, uniE, uniT []server.Cell
	for _, p := range splitPoints() {
		splitE = append(splitE, server.Cell{Kind: "split-error", Bench: bench, M: p.m, Frac: p.frac})
		splitT = append(splitT, server.Cell{Kind: "split-timing", Bench: bench, M: p.m, Frac: p.frac})
	}
	for _, f := range sweep.UniFracs {
		uniE = append(uniE, server.Cell{Kind: "uni-error", Bench: bench, M: sweep.BaseMapBits, Frac: f})
		uniT = append(uniT, server.Cell{Kind: "uni-timing", Bench: bench, M: sweep.BaseMapBits, Frac: f})
	}
	ds := []draw{{2, splitE}, {1, uniE}, {2, splitT}, {1, uniT}, {1, []server.Cell{{Kind: "baseline-timing", Bench: bench}}}}
	for _, org := range sweep.FaultOrgs {
		var fault []server.Cell
		for _, rate := range sweep.DefaultFaultRates {
			fault = append(fault, server.Cell{Kind: "fault-error", Bench: bench, Org: org, Rate: rate})
		}
		ds = append(ds, draw{1, fault})
	}
	for _, org := range sweep.GuardedOrgs {
		var guard []server.Cell
		for _, rate := range sweep.DefaultFaultRates {
			guard = append(guard, server.Cell{Kind: "quality-error", Bench: bench, Org: org, Rate: rate})
		}
		ds = append(ds, draw{1, guard})
	}
	return ds
}

// universe is every cell a stream can draw, in a fixed order.
func universe() []server.Cell {
	var all []server.Cell
	for _, f := range workloads.All() {
		for _, d := range draws(f.Name) {
			all = append(all, d.cells...)
		}
	}
	return all
}

// repeatLag is how many submissions separate a cell's first submission
// from any repeat of it. drive holds a repeat until its first submission has
// been answered, so a repeat is always a memo hit and never a join onto the
// running computation; the lag makes that wait rare.
const repeatLag = 8

// drawCells picks a run's distinct cells: the fixed number of each group
// of draws, which ones chosen by rng. They come in a random order, the
// order the recording pass submits them in.
func drawCells(rng *rand.Rand) []server.Cell {
	var distinct []server.Cell
	for _, f := range workloads.All() {
		for _, d := range draws(f.Name) {
			for _, i := range rng.Perm(len(d.cells))[:d.n] {
				distinct = append(distinct, d.cells[i])
			}
		}
	}
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	return distinct
}

// arrange makes one pass's job sequence from a run's distinct cells: every
// cell once, in an order drawn from rng (its first submission computes),
// interleaved with exactly as many repeats of earlier cells, drawn with
// replacement (memo hits). The memo-hit ratio is therefore 1/2 by
// construction, whatever the seed. firsts lists the cells in the order of
// their first submission. Every pass of a run draws its own order: how slow
// cells happen to overlap on sweepd's shards moves a pass's wall time by up
// to a tenth, and a run's median pass then averages over orders instead of
// resting on one.
func arrange(distinct []server.Cell, rng *rand.Rand) (jobs, firsts []server.Cell) {
	firsts = append([]server.Cell(nil), distinct...)
	rng.Shuffle(len(firsts), func(i, j int) { firsts[i], firsts[j] = firsts[j], firsts[i] })

	var placed []int // stream position of each first submission so far
	next, repeats := 0, 0
	for next < len(firsts) || repeats < len(firsts) {
		eligible := 0
		for eligible < len(placed) && placed[eligible] <= len(jobs)-repeatLag {
			eligible++
		}
		repeat := repeats < next && eligible > 0 && (next == len(firsts) || rng.Intn(2) == 0)
		if next == len(firsts) && eligible == 0 {
			eligible = len(placed) // only repeats are left; lag is best effort
			repeat = true
		}
		if repeat {
			jobs = append(jobs, jobs[placed[rng.Intn(eligible)]])
			repeats++
			continue
		}
		placed = append(placed, len(jobs))
		jobs = append(jobs, firsts[next])
		next++
	}
	return jobs, firsts
}
