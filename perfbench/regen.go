package main

import (
	"bytes"
	"fmt"
	"os"
)

// gridCells is the number of simulation cells `experiments all` computes:
// per benchmark one baseline, five split points (M=12,13,14 at 1/4 data and
// 1/2, 1/8 data at M=14) and three uniDoppelgänger points, each of the
// eight an error cell and a timing cell; nine benchmarks.
const gridCells = 9 * (1 + 2*5 + 2*3)

// Set-up repetitions: set-up is measured several times per run and reported
// as a median, so one disturbed set-up cannot move setup_s.
const (
	coldProbes = 15 // regen-cold start-up probes, under a tenth of a second each
	recordings = 3  // serve-warm recording passes, about ten seconds each
)

// regenArgs is the regeneration command line.
var regenArgs = []string{"-scale", scaleArg, "-quiet", "all"}

// checkTables counts a regeneration's cells and fails them all unless its
// tables are byte-identical to the golden set.
func (r *run) checkTables(what string, out []byte) {
	r.attempted += gridCells
	if !bytes.Equal(out, r.golden) {
		r.fail(gridCells, "%s: tables differ from %s: %s", what, goldenPath, diffLine(out, r.golden))
	}
}

// diffLine names the first line where a regeneration's tables leave the
// golden set.
func diffLine(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d reads %q, golden %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, golden %d", len(g), len(w))
}

// regenSetup performs the set-up several times and reports the median as
// setup_s. Set-up is a start-up probe: the binary regenerates Table 2's
// first row, blackscholes' baseline functional and timing run, which must
// match the golden set. (Its column widths equal the full table's, so the
// probe's table is the golden's first lines.)
func (r *run) regenSetup() error {
	var times []float64
	for i := 0; i < coldProbes; i++ {
		u, err := r.invoke(os.Stderr, "experiments", "-scale", scaleArg, "-quiet", "-only", "blackscholes", "table2")
		if err != nil {
			return err
		}
		r.attempted++
		table := bytes.TrimSuffix(u.stdout, []byte("\n"))
		if len(table) == 0 || !bytes.HasPrefix(r.golden, table) {
			r.fail(1, "start-up probe %d: Table 2's blackscholes row differs from %s", i, goldenPath)
		}
		times = append(times, u.wall)
	}
	r.set("setup_s", median(times), "s")
	return nil
}

// regenTimed is the untraced run: set-up, then whole regenerations back to
// back until the timed phase is spent (at least two), each checked against
// the golden tables. Every metric is the median over regenerations.
func (r *run) regenTimed() error {
	if err := r.regenSetup(); err != nil {
		return err
	}
	var walls, cpus, rss, rates []float64
	err := r.repeat(2, func(i int) error {
		u, err := r.invoke(os.Stderr, "experiments", regenArgs...)
		if err != nil {
			return err
		}
		fmt.Printf("regeneration %d: %v\n", i, u)
		r.checkTables(fmt.Sprintf("regeneration %d", i), u.stdout)
		walls = append(walls, u.wall)
		cpus = append(cpus, u.cpu)
		rss = append(rss, u.rssMB)
		rates = append(rates, gridCells/u.wall)
		return nil
	})
	if err != nil {
		return err
	}
	r.setMedians(walls, cpus, rss, rates)
	return nil
}
