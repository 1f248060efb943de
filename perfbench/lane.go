package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ursa/internal/assign"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/pipeline"
	"ursa/internal/reuse"
	"ursa/internal/sched"
	"ursa/internal/target"
)

// layers accumulates the traced run's per-layer counts; the tracer holds
// the times. Its methods are safe for concurrent use.
type layers struct {
	mu    sync.Mutex
	calls int
	// Compile lane, per block.
	blocks, nodes, excess, iterations, fits, candidates, baseOptimal int
	spillsPatched, copies                                            int
	cacheHits, cacheMisses                                           uint64
	allocBytes                                                       uint64
	gcCycles                                                         uint32
	// Served requests.
	requests                          int
	elapsedCompiled, elapsedHit       []float64
	overheadMS, probeMS               []float64
	tiers                             map[string]int
	shed, hedges, spillovers, coalesc float64
}

// compile runs one block through the URSA lane composed from outside,
// the way pipeline.Compile composes it — target.Clusterize, dag.Build,
// core.Run, assign.Emit — with a span around each call, then verifies
// the code. Probe calls, outside the lane's span, time the layers the
// lane does not call directly on the untransformed DAG. The lane must
// emit the same code as pipeline.Compile, run untraced on the same block
// as the reference: before the lane on every other call and after it on
// the rest, so warm-up effects cancel in the tracing overhead.
func (l *layers) compile(tr *tracer, j job) error {
	l.mu.Lock()
	refFirst := l.calls%2 == 0
	l.calls++
	l.mu.Unlock()
	var a0, a1 runtime.MemStats
	var want *assign.Program
	reference := func() error {
		runtime.ReadMemStats(&a0)
		ref := tr.begin("pipeline.compile", j.id, -1)
		var err error
		want, _, err = pipeline.Compile(j.block, j.m, pipeline.URSA, pipeline.Options{})
		tr.end(ref)
		runtime.ReadMemStats(&a1)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		return nil
	}
	if refFirst {
		if err := reference(); err != nil {
			return err
		}
	}

	pg, _, err := laneGraph(nil, j, -1)
	if err != nil {
		return err
	}
	probe := tr.begin("probe", j.id, -1)
	tr.timed("dag.hammocks", j.id, probe, func() { pg.Hammocks() })
	excess := 0
	for _, r := range core.Resources(pg, j.m) {
		var ru *reuse.Reuse
		tr.timed("reuse.build", j.id, probe, func() { ru = r.Build(pg) })
		var res *measure.Result
		tr.timed("measure", j.id, probe, func() { res = measure.Measure(ru) })
		excess += max(0, res.Width-r.Limit)
	}
	var cands int
	tr.timed("core.score_round", j.id, probe, func() { cands, err = core.ScoreCandidates(pg, core.Options{Machine: j.m}) })
	if err != nil {
		tr.end(probe)
		return fmt.Errorf("score round: %w", err)
	}
	var base *assign.Program
	tr.timed("core.base_emit", j.id, probe, func() { base, _, err = assign.Emit(pg, j.m, sched.Options{}) })
	tr.end(probe)
	if err != nil {
		return fmt.Errorf("base emit: %w", err)
	}

	root := tr.begin("compile", j.id, -1)
	g, copies, err := laneGraph(tr, j, root)
	if err != nil {
		tr.end(root)
		return err
	}
	cache := measure.NewCache()
	var rep *core.Report
	tr.timed("core.run", j.id, root, func() { rep, err = core.Run(g, core.Options{Machine: j.m, Cache: cache}) })
	if err != nil {
		tr.end(root)
		return fmt.Errorf("core.Run: %w", err)
	}
	var prog *assign.Program
	tr.timed("assign.emit", j.id, root, func() { prog, _, err = assign.Emit(g, j.m, sched.Options{}) })
	tr.end(root)
	if err != nil {
		return fmt.Errorf("assign.Emit: %w", err)
	}
	tr.timed("sched.list", j.id, -1, func() { _, err = sched.List(g, j.m, sched.Options{}) })
	if err != nil && !errors.Is(err, sched.ErrBuffer) {
		return fmt.Errorf("sched.List: %w", err)
	}
	tr.timed("vliwsim.verify", j.id, -1, func() { _, err = verify(prog, j) })
	if err != nil {
		return err
	}
	if !refFirst {
		if err := reference(); err != nil {
			return err
		}
	}
	if prog.String() != want.String() || spillOps(prog) != spillOps(want) {
		return fmt.Errorf("traced lane emitted %d words and %d spill ops, pipeline.Compile %d and %d",
			len(prog.Words), spillOps(prog), len(want.Words), spillOps(want))
	}

	hits, misses := cache.Stats()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.blocks++
	l.nodes += pg.NumNodes()
	l.excess += excess
	l.iterations += rep.Iterations
	if rep.Fits {
		l.fits++
	}
	l.candidates += cands
	if base.Spills == 0 && spillOps(base) == 0 && len(base.Words) == len(prog.Words) {
		l.baseOptimal++
	}
	l.spillsPatched += prog.Spills
	l.copies += copies
	l.cacheHits += hits
	l.cacheMisses += misses
	l.allocBytes += a1.TotalAlloc - a0.TotalAlloc
	return nil
}

// laneGraph clones the block's function, clusterizes the clone on
// clustered targets and builds its DAG, under spans when tr is non-nil.
// It returns the graph and the number of inter-cluster copies inserted.
func laneGraph(tr *tracer, j job, parent int) (*dag.Graph, int, error) {
	f := j.block.Func.Clone()
	b := f.Block(j.block.Label)
	copies := 0
	var err error
	if j.m.Clusters > 1 {
		tr.timed("target.clusterize", j.id, parent, func() { copies, err = target.Clusterize(b, j.m) })
		if err != nil {
			return nil, 0, fmt.Errorf("target.Clusterize: %w", err)
		}
	}
	var g *dag.Graph
	tr.timed("dag.build", j.id, parent, func() { g, err = dag.Build(b) })
	if err != nil {
		return nil, 0, fmt.Errorf("dag.Build: %w", err)
	}
	return g, copies, nil
}

func spillOps(p *assign.Program) int {
	n := 0
	for _, in := range p.Instrs() {
		if in.Op == ir.SpillStore || in.Op == ir.SpillLoad {
			n++
		}
	}
	return n
}

// traceCompile runs one traced pass over the jobs.
func traceCompile(cfg *config, jobs []job) (*outcome, error) {
	out := &outcome{}
	l := &layers{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, j := range jobs {
		out.attempted++
		if err := l.compile(cfg.tr, j); err != nil {
			out.fail("%s: %v", j.id, err)
		}
	}
	runtime.ReadMemStats(&m1)
	l.gcCycles = m1.NumGC - m0.NumGC
	out.metrics = l.metrics(cfg.tr)
	return out, nil
}

// metrics derives every per-layer metric from the spans and counts.
// Times are mean self time per calling block, kernel or request; a layer
// the workload never calls reads 0.
func (l *layers) metrics(tr *tracer) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := selfTimes(tr.spans)
	blocks := float64(l.blocks)
	per := func(n int) float64 { return share(float64(n), blocks) }
	out := map[string]float64{
		"frontend.lower_ms":            st["frontend.lower"].perKeyMS(),
		"cluster.cachekey_ms":          st["cluster.cachekey"].perKeyMS(),
		"dag.build_ms":                 st["dag.build"].perKeyMS(),
		"dag.nodes":                    per(l.nodes),
		"dag.hammocks_ms":              st["dag.hammocks"].perKeyMS(),
		"reuse.build_ms":               st["reuse.build"].perKeyMS(),
		"measure.ms":                   st["measure"].perKeyMS(),
		"measure.excess":               per(l.excess),
		"core.run_ms":                  st["core.run"].perKeyMS(),
		"core.run_share":               share(st["core.run"].Total.Seconds(), st["compile"].Total.Seconds()),
		"core.iterations":              per(l.iterations),
		"core.fits_share":              per(l.fits),
		"core.measure_cache_hit_ratio": share(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)),
		"core.score_round_ms":          st["core.score_round"].perKeyMS(),
		"core.candidates":              per(l.candidates),
		"core.base_optimal_share":      per(l.baseOptimal),
		"sched.list_ms":                st["sched.list"].perKeyMS(),
		"assign.emit_ms":               st["assign.emit"].perKeyMS(),
		"assign.spills_patched":        float64(l.spillsPatched),
		"target.clusterize_ms":         st["target.clusterize"].perKeyMS(),
		"target.copies":                float64(l.copies),
		"modsched.pipeline_ms":         st["modsched.pipeline"].perKeyMS(),
		"vliwsim.verify_ms":            st["vliwsim.verify"].perKeyMS(),
		"pipeline.alloc_kb_per_block":  share(float64(l.allocBytes)/1024, blocks),
		"runtime.gc_cycles":            float64(l.gcCycles),
		"server.elapsed_ms.compiled":   mean(l.elapsedCompiled),
		"server.elapsed_ms.hit":        mean(l.elapsedHit),
		"server.overhead_ms":           mean(l.overheadMS),
		"store.share.memory":           share(float64(l.tiers["memory"]), float64(l.requests)),
		"store.share.disk":             share(float64(l.tiers["disk"]), float64(l.requests)),
		"store.share.compiled":         share(float64(l.tiers["compiled"]), float64(l.requests)),
		"server.shed":                  l.shed,
		"cluster.hedges":               l.hedges,
		"cluster.spillovers":           l.spillovers,
		"cluster.coalesced":            l.coalesc,
	}
	// Tracing overhead: for compiles, the traced lane's time over
	// pipeline.Compile's on the same blocks; for served requests, the
	// client's time in probe calls before each request.
	if l.requests > 0 {
		out["trace.overhead_ms"] = mean(l.probeMS)
	} else {
		out["trace.overhead_ms"] = share(msOf(st["compile"].Total-st["pipeline.compile"].Total), blocks)
	}
	return out
}

func mean(v []float64) float64 { return share(sum(v), float64(len(v))) }
