package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/target"
	"ursa/internal/transform"
	"ursa/internal/workload"
)

// reachCase is one block driven through a reduction loop by
// TestIterStateClosure.
type reachCase struct {
	name  string
	f     *ir.Func
	block int // index into f.Blocks
	opts  Options
	style scoreStyle
}

// reachCases returns every kernel block at unroll 4 on vliw2x4 and
// hetero-big, 12 seeded random blocks on vliw4x6, and one clustered block on
// clus2x2x4, which takes the reference (DisableIncremental) path.
func reachCases(t *testing.T) []reachCase {
	t.Helper()
	preset := func(name string) *machine.Config {
		p := target.ByName(name)
		if p == nil {
			t.Fatalf("preset %s missing from the catalog", name)
		}
		return p.Config
	}
	var cases []reachCase
	for _, k := range workload.Kernels() {
		for _, pn := range []string{"vliw2x4", "hetero-big"} {
			u, err := k.Unit(4)
			if err != nil {
				t.Fatalf("lowering %s: %v", k.Name, err)
			}
			for bi, b := range u.Func.Blocks {
				cases = append(cases, reachCase{
					name:  fmt.Sprintf("%s/%s/%s", k.Name, b.Label, pn),
					f:     u.Func,
					block: bi,
					opts:  Options{Machine: preset(pn)},
				})
			}
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := workload.RandomBlock(rng, 20+rng.Intn(30), rng.Float64())
		cases = append(cases, reachCase{
			name:  fmt.Sprintf("rand%d/vliw4x6", seed),
			f:     f,
			opts:  Options{Machine: preset("vliw4x6")},
			style: styleSpillFirst,
		})
	}
	m := preset("clus2x2x4")
	f := workload.RandomBlock(rand.New(rand.NewSource(13)), 24, 0.5)
	if _, err := target.Clusterize(f.Blocks[0], m); err != nil {
		t.Fatalf("clusterize: %v", err)
	}
	cases = append(cases, reachCase{
		name: "rand13/clus2x2x4",
		f:    f,
		opts: Options{Machine: m, DisableIncremental: true},
	})
	return cases
}

// TestIterStateClosure is the differential oracle for candidate
// generation's reachability: it drives the evaluator through the reduction
// loop of runOnce and, after every commit, requires the closure state()
// hands out to equal a fresh g.Reach() pair for pair, and the candidate list
// generated from it to equal the one generated from g.Reach() — kinds,
// edges, payloads, notes and order. The loop's committed sequence must
// match runOnce's, so the states checked are the ones real runs visit, and
// the corpus must commit both sequencing moves and spills.
func TestIterStateClosure(t *testing.T) {
	cases := reachCases(t)
	if testing.Short() || raceEnabled {
		// The loop runs on one worker, so the race detector has nothing to
		// find here; keep the quick random and clustered cases.
		var some []reachCase
		for _, c := range cases {
			if strings.HasPrefix(c.name, "rand") {
				some = append(some, c)
			}
		}
		cases = some
	}
	var seqs, spills int
	for _, c := range cases {
		c.opts.Workers = 1
		// Each run builds from its own clone: commits rewrite instructions.
		g, err := dag.Build(c.f.Clone().Blocks[c.block])
		if err != nil {
			t.Fatalf("%s: Build: %v", c.name, err)
		}
		applied := driveReduction(t, c.name, g, c.opts, c.style)

		ref, err := dag.Build(c.f.Clone().Blocks[c.block])
		if err != nil {
			t.Fatalf("%s: Build: %v", c.name, err)
		}
		opts := c.opts
		opts.Cache = measure.NewCache()
		rep, err := runOnce(ref, opts, c.style)
		if err != nil {
			t.Fatalf("%s: runOnce: %v", c.name, err)
		}
		if !reflect.DeepEqual(applied, rep.Applied) {
			t.Fatalf("%s: driven loop committed\n%+v\nrunOnce committed\n%+v", c.name, applied, rep.Applied)
		}
		for _, a := range applied {
			if a.Kind == transform.Spill || a.Kind == transform.CopySpill {
				spills++
			} else {
				seqs++
			}
		}
	}
	if seqs == 0 || spills == 0 {
		t.Errorf("corpus committed %d sequencing moves and %d spills; both must occur", seqs, spills)
	}
}

// driveReduction runs runOnce's single-phase reduction loop on g, checking
// the iteration state of every generation it visits, and returns the
// committed moves.
func driveReduction(t *testing.T, name string, g *dag.Graph, opts Options, style scoreStyle) []Applied {
	t.Helper()
	m := opts.Machine
	opts.Cache = measure.NewCache()
	resources := Resources(g, m)
	lat := func(n *dag.Node) int { return m.LatencyOf(n.Instr.Op) }
	ev := newEvaluator(g, resources, lat, &opts)

	var applied []Applied
	plateau := 4
	for maxIters := 8*len(g.Nodes) + 16; len(applied) < maxIters; {
		st := ev.state()
		cands := collectCandidates(g, resources, st, opts)
		checkIterState(t, fmt.Sprintf("%s gen %d", name, ev.gen), g, resources, st, opts, cands)
		if st.excess == 0 || len(cands) == 0 {
			break
		}
		outs, err := ev.evalAll(cands)
		if err != nil {
			t.Fatalf("%s: evalAll: %v", name, err)
		}
		best, bestExcess, improved := pickBest(outs, st.excess, style)
		if !improved {
			if plateau == 0 {
				break
			}
			if best, bestExcess, improved = pickPlateau(outs, st.excess); !improved {
				break
			}
			plateau--
		}
		if err := best.cand.Apply(g); err != nil {
			t.Fatalf("%s: committing %s: %v", name, best.cand, err)
		}
		ev.commit(best.cand)
		applied = append(applied, Applied{
			Resource:     best.resource,
			Kind:         best.cand.Kind,
			Note:         best.cand.Note,
			ExcessBefore: st.excess,
			ExcessAfter:  bestExcess,
		})
	}
	return applied
}

// checkIterState compares st's closure with g.Reach() pair for pair, and
// cands with the candidates generated from g.Reach().
func checkIterState(t *testing.T, where string, g *dag.Graph, resources []Resource, st *iterState, opts Options, cands []scored) {
	t.Helper()
	want := g.Reach()
	if st.reach.Size() != want.Size() {
		t.Fatalf("%s: closure over %d nodes, graph has %d", where, st.reach.Size(), want.Size())
	}
	for a := 0; a < want.Size(); a++ {
		for b := 0; b < want.Size(); b++ {
			if st.reach.Has(a, b) != want.Has(a, b) {
				t.Fatalf("%s: closure disagrees at (%d,%d): state %v, fresh %v",
					where, a, b, st.reach.Has(a, b), want.Has(a, b))
			}
		}
	}
	fresh := *st
	fresh.reach = want
	ref := collectCandidates(g, resources, &fresh, opts)
	if len(cands) != len(ref) {
		t.Fatalf("%s: %d candidates, %d from a fresh closure", where, len(cands), len(ref))
	}
	for i := range cands {
		if !reflect.DeepEqual(cands[i], ref[i]) {
			t.Fatalf("%s: candidate %d is %s on %s, %s on %s from a fresh closure",
				where, i, cands[i].cand, cands[i].resource, ref[i].cand, ref[i].resource)
		}
	}
}
