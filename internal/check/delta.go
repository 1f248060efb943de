package check

import (
	"ursa/internal/assign"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/machine"
	"ursa/internal/measure"
	"ursa/internal/order"
	"ursa/internal/sched"
	"ursa/internal/transform"
)

// deltaCandidateLimit bounds how many sequencing candidates the delta
// oracle replays per case (each replay measures every resource twice:
// incrementally and from scratch), and separately how many copy-spill
// candidates it replays on clustered cases.
const deltaCandidateLimit = 16

// checkDelta holds the incremental remeasurement engine to account against
// the from-scratch reference it replaces, on every target family. Four
// layers are cross-checked on every case:
//
//  1. Tentative application: each replayed candidate (sequencing, plus
//     copy-spills on clustered cases) goes through Candidate.ApplyLog as
//     on an engine worker, must transform the graph exactly as Apply does
//     on a clone, and UndoLog.Revert must restore the graph's fingerprint,
//     node count and register count.
//  2. Closure maintenance: after a sequencing candidate, the closure
//     ApplyLog extended in place (order.Relation.AddClosureEdge) must equal
//     the closure recomputed from the transformed graph.
//  3. Measurement: for every resource, the warm-started delta measurement
//     (reuse.Reuse.UpdateClosure + measure.ChainsDelta, seeded with the
//     committed matching and the pre-candidate hammock levels, exactly as
//     the engine runs it) must report the same width and chain count as a
//     full from-scratch Measure of the transformed graph, and its
//     decomposition must be a valid chain partition of the updated order.
//     When UpdateClosure declines (register kills shifted), the fallback
//     must be justified: the recomputed kill vector must actually differ.
//  4. Selection: a full core.Run with the engine enabled must emit code
//     byte-identical to a run with Options.DisableIncremental (the
//     reference path), at several worker counts.
func checkDelta(rep *Report, c *Case) {
	m := c.Mach.Config()
	g := buildGraph(rep, OracleDelta, c)
	if g == nil {
		return
	}
	resources := core.Resources(g, m)
	hammocks := g.Hammocks()
	levels := g.NestLevels(hammocks)
	baseReach := g.Reach()
	base := make(map[string]*measure.Result, len(resources))
	for _, r := range resources {
		base[r.Name] = measure.Measure(r.Build(g))
	}

	var log transform.UndoLog
	seqs, copySpills := 0, 0
	for _, r := range resources {
		res := base[r.Name]
		limits := []int{r.Limit}
		if res.Width-1 >= 1 && res.Width-1 != r.Limit {
			limits = append(limits, res.Width-1)
		}
		for _, limit := range limits {
			for _, set := range measure.FindExcess(res, hammocks, limit) {
				var cands []*transform.Candidate
				if r.IsRegister {
					cands = transform.RegSeqCandidates(g, baseReach, res, set)
				} else {
					cands = transform.FUCandidates(g, baseReach, res, set)
				}
				if m.Clusters > 1 {
					cands = append(cands, transform.CopySpillCandidates(g, res, set)...)
				}
				for _, cand := range cands {
					seq := cand.SeqOnly()
					if seq && seqs >= deltaCandidateLimit || !seq && copySpills >= deltaCandidateLimit {
						continue
					}
					before, nodes, regs := g.Fingerprint(), g.NumNodes(), g.Func.NumRegs()
					ref := g.Clone()
					ref.Func = g.Func.Clone()
					reach := baseReach.Clone()
					if err := cand.ApplyLog(g, &log, reach); err != nil {
						continue // inapplicable candidates are allowed to refuse
					}
					rep.tick(OracleDelta)
					if err := cand.Apply(ref); err != nil || g.Fingerprint() != ref.Fingerprint() {
						rep.failf(OracleDelta, "%s: ApplyLog and Apply on a clone disagree (Apply: %v)", cand, err)
					}
					if seq {
						seqs++
						checkDeltaCandidate(rep, g, resources, base, reach, levels, cand)
					} else {
						copySpills++
					}
					log.Revert()
					if g.Fingerprint() != before || g.NumNodes() != nodes || g.Func.NumRegs() != regs {
						rep.failf(OracleDelta, "%s: revert did not restore the graph", cand)
						return
					}
				}
			}
		}
	}

	checkDeltaSelection(rep, g, m)
}

// checkDeltaCandidate compares, on the already-transformed graph g, the
// closure ApplyLog extended (inc) and the per-resource delta measurements
// against their from-scratch references.
func checkDeltaCandidate(rep *Report, g *dag.Graph, resources []core.Resource,
	base map[string]*measure.Result, inc *order.Relation, levels []int,
	cand *transform.Candidate) {

	full := g.Reach()
	for a := 0; a < full.Size(); a++ {
		for b := 0; b < full.Size(); b++ {
			if inc.Has(a, b) != full.Has(a, b) {
				rep.failf(OracleDelta, "%s: incremental closure disagrees at (%d,%d): inc=%v full=%v",
					cand, a, b, inc.Has(a, b), full.Has(a, b))
				return
			}
		}
	}

	for _, r := range resources {
		prev := base[r.Name]
		want := measure.Measure(r.Build(g))
		ru, ok := prev.R.UpdateClosure(g, inc)
		if !ok {
			// The engine would fall back to a full rebuild here; the refusal
			// must be justified by an actual kill shift.
			fresh := r.Build(g)
			same := len(fresh.Kill) == len(prev.R.Kill)
			for i := 0; same && i < len(fresh.Kill); i++ {
				same = fresh.Kill[i] == prev.R.Kill[i]
			}
			if same {
				rep.failf(OracleDelta, "%s %s: UpdateClosure declined but kills are unchanged", r.Name, cand)
			}
			continue
		}
		got := measure.ChainsDelta(prev, ru, levels)
		if got.Width != want.Width {
			rep.failf(OracleDelta, "%s %s: delta width %d, from-scratch %d",
				r.Name, cand, got.Width, want.Width)
			continue
		}
		if len(got.Chains) != len(want.Chains) {
			rep.failf(OracleDelta, "%s %s: delta has %d chains, from-scratch %d",
				r.Name, cand, len(got.Chains), len(want.Chains))
			continue
		}
		if err := order.ValidateDecomposition(ru.Rel, got.Chains); err != nil {
			rep.failf(OracleDelta, "%s %s: delta decomposition invalid: %v", r.Name, cand, err)
			continue
		}
		// The updated relation itself must match a from-scratch rebuild.
		fresh := r.Build(g)
		if ru.Rel.Pairs() != fresh.Rel.Pairs() {
			rep.failf(OracleDelta, "%s %s: delta relation has %d pairs, rebuild %d",
				r.Name, cand, ru.Rel.Pairs(), fresh.Rel.Pairs())
		}
	}
}

// checkDeltaSelection runs the full reduction loop with and without the
// incremental engine (and across worker counts) and requires byte-identical
// emitted code and identical reports.
func checkDeltaSelection(rep *Report, g *dag.Graph, m *machine.Config) {
	type variant struct {
		name string
		opts core.Options
	}
	variants := []variant{
		{"full", core.Options{Machine: m, DisableIncremental: true, Workers: 1}},
		{"incremental-j1", core.Options{Machine: m, Workers: 1}},
		{"incremental-j4", core.Options{Machine: m, Workers: 4}},
	}
	var refCode string
	var refIters int
	for i, v := range variants {
		cl := g.Clone()
		cl.Func = g.Func.Clone()
		runRep, err := core.Run(cl, v.opts)
		if err != nil {
			rep.failf(OracleDelta, "core.Run (%s): %v", v.name, err)
			return
		}
		code := ""
		if prog, _, err := assign.Emit(cl, m, sched.Options{}); err == nil {
			code = prog.String()
		}
		if i == 0 {
			refCode, refIters = code, runRep.Iterations
			rep.tick(OracleDelta)
			continue
		}
		if code != refCode {
			rep.failf(OracleDelta, "core.Run (%s) emitted different code than (%s)", v.name, variants[0].name)
		}
		if runRep.Iterations != refIters {
			rep.failf(OracleDelta, "core.Run (%s) took %d iterations, (%s) took %d",
				v.name, runRep.Iterations, variants[0].name, refIters)
		}
		rep.tick(OracleDelta)
	}
}
