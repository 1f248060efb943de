package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
)

// runVariant compiles a private clone of f under opts and returns the
// report. Each variant gets its own Func and cache so spill-reload register
// names and memoized measurements cannot leak between the runs being
// compared.
func runVariant(t *testing.T, f *ir.Func, opts Options, style scoreStyle) *Report {
	t.Helper()
	cl := f.Clone()
	g, err := dag.Build(cl.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opts.Cache = measure.NewCache()
	rep, err := runOnce(g, opts, style)
	if err != nil {
		t.Fatalf("runOnce: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("invalid graph after run: %v", err)
	}
	return rep
}

func reportsEqual(a, b *Report) string {
	if !reflect.DeepEqual(a.Applied, b.Applied) {
		return fmt.Sprintf("applied sequence diverged:\n got %+v\nwant %+v", b.Applied, a.Applied)
	}
	if a.Iterations != b.Iterations || a.SpillsInserted != b.SpillsInserted {
		return fmt.Sprintf("iters/spills diverged: %d/%d vs %d/%d",
			b.Iterations, b.SpillsInserted, a.Iterations, a.SpillsInserted)
	}
	if !reflect.DeepEqual(a.FinalWidths, b.FinalWidths) {
		return fmt.Sprintf("final widths diverged: %v vs %v", b.FinalWidths, a.FinalWidths)
	}
	if a.Fits != b.Fits || a.ScheduleClean != b.ScheduleClean {
		return fmt.Sprintf("fit verdict diverged: fits=%v clean=%v vs fits=%v clean=%v",
			b.Fits, b.ScheduleClean, a.Fits, a.ScheduleClean)
	}
	return ""
}

// TestFreshVsPooledEvaluator: over 500 fuzzed blocks, machines, and
// tie-break styles, the pooled incremental evaluator (persistent scratch
// arenas, slab relations, warm-started matchers) commits exactly the same
// transformation sequence as the fresh clone-per-candidate reference path
// (DisableIncremental). This is the contract that lets every pool reset
// protocol change land without re-auditing the reduction loop: any missed
// reset or stale arena state shows up as a diverged Applied sequence.
func TestFreshVsPooledEvaluator(t *testing.T) {
	trials := 500
	if testing.Short() || raceEnabled {
		trials = 60
	}
	rng := rand.New(rand.NewSource(11))
	machines := []*machine.Config{
		machine.VLIW(1, 3), machine.VLIW(1, 4), machine.VLIW(2, 3),
		machine.VLIW(2, 4), machine.VLIW(3, 4), machine.VLIW(4, 6),
	}
	styles := []scoreStyle{styleDefault, styleAggressive, styleSpillFirst}
	for trial := 0; trial < trials; trial++ {
		f := randomBlock(rng, 6+rng.Intn(16))
		m := machines[rng.Intn(len(machines))]
		style := styles[trial%len(styles)]

		fresh := runVariant(t, f, Options{Machine: m, Workers: 1, DisableIncremental: true}, style)
		pooled := runVariant(t, f, Options{Machine: m, Workers: 1}, style)
		if diff := reportsEqual(fresh, pooled); diff != "" {
			t.Fatalf("trial %d (%s, style %d): %s", trial, m.Name, style, diff)
		}
	}
}
