package transform

import (
	"testing"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/reuse"
	"ursa/internal/target"
)

const paperSrc = `
func paper {
entry:
	v = load V[0]       ; A
	w = muli v, 2       ; B
	x = muli v, 3       ; C
	y = addi v, 5       ; D
	t1 = add w, x       ; E
	t2 = mul w, x       ; F
	t3 = muli y, 2      ; G
	t4 = divi y, 3      ; H
	t5 = div t1, t2     ; I
	t6 = add t3, t4     ; J
	z = add t5, t6      ; K
}
`

func paperGraph(t testing.TB) *dag.Graph {
	t.Helper()
	f := ir.MustParse(paperSrc)
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func node(t testing.TB, g *dag.Graph, name string) int {
	t.Helper()
	id := g.DefNode(g.Func.Reg(name))
	if id < 0 {
		t.Fatalf("no node defines %s", name)
	}
	return id
}

func fuWidth(g *dag.Graph) int  { return measure.Measure(reuse.FU(g, reuse.AllFUs)).Width }
func regWidth(g *dag.Graph) int { return measure.Measure(reuse.Reg(g, ir.ClassInt)).Width }

// TestFig3aFUSequencing: adding the sequence edge G -> H reduces the
// functional-unit requirement from 4 to 3; register requirement unchanged.
func TestFig3aFUSequencing(t *testing.T) {
	g := paperGraph(t)
	if fuWidth(g) != 4 || regWidth(g) != 5 {
		t.Fatalf("baseline widths FU=%d Reg=%d, want 4/5", fuWidth(g), regWidth(g))
	}
	c := &Candidate{Kind: FUSequence, Edges: [][2]int{{node(t, g, "t3"), node(t, g, "t4")}}}
	if err := c.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := fuWidth(g); got != 3 {
		t.Errorf("FU width after G->H = %d, want 3 (paper Fig 3a)", got)
	}
	if got := regWidth(g); got != 5 {
		t.Errorf("register width after G->H = %d, want 5 (unchanged)", got)
	}
}

// TestFig3bRegSequencing: edges I -> G and I -> H (S={I}, T={G,H}) reduce
// the register requirement from 5 to 4. As §5 predicts, the register
// sequencing also reduces the FU requirement (here to 3).
func TestFig3bRegSequencing(t *testing.T) {
	g := paperGraph(t)
	i := node(t, g, "t5")
	c := &Candidate{Kind: RegSequence, Edges: [][2]int{
		{i, node(t, g, "t3")},
		{i, node(t, g, "t4")},
	}}
	if err := c.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := regWidth(g); got != 4 {
		t.Errorf("register width = %d, want 4 (paper Fig 3b)", got)
	}
	if got := fuWidth(g); got != 3 {
		t.Errorf("FU width = %d, want 3 (register sequencing narrows the DAG)", got)
	}
}

// TestFig3cSpill: spilling D's value (y) with the reload barred behind
// SD1 = {B,C,E,F,I} reduces the register requirement from 5 to 3, the
// paper's Figure 3(c) result.
func TestFig3cSpill(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{
		Kind: Spill,
		Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t1"), node(t, g, "t2"), node(t, g, "t5")},
			PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
		},
	}
	if err := c.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := regWidth(g); got != 3 {
		t.Errorf("register width after spilling y = %d, want 3 (paper Fig 3c)", got)
	}
	// The uses of y (G and H) must now read the reloaded copy.
	yr := g.Func.Reg("y.r")
	if yr == ir.NoReg {
		t.Fatal("reloaded register y.r not created")
	}
	if got := len(g.UseNodes(yr)); got != 2 {
		t.Errorf("y.r has %d uses, want 2 (G and H)", got)
	}
	// y's only remaining use is the spill store.
	uses := g.UseNodes(g.Func.Reg("y"))
	if len(uses) != 1 || g.Nodes[uses[0]].Instr.Op != ir.SpillStore {
		t.Errorf("y's uses after spill = %v, want just the spill store", uses)
	}
}

// TestFig3cPaperLiteralBarrier applies the paper's literal S/T choice
// (reload after E and F only). Measured worst case is 4 registers: the
// schedule ...load, G, H before I keeps t1, t2 live alongside y.r and t4.
// EXPERIMENTS.md discusses the discrepancy with the paper's claimed 3.
func TestFig3cPaperLiteralBarrier(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{
		Kind: Spill,
		Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t1"), node(t, g, "t2")},
			PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
		},
	}
	if err := c.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := regWidth(g); got != 4 {
		t.Errorf("register width = %d, want 4", got)
	}
}

func TestApplyRejectsCycle(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{Kind: FUSequence, Edges: [][2]int{
		{node(t, g, "z"), node(t, g, "v")}, // K -> A closes a cycle
	}}
	if err := c.Apply(g); err == nil {
		t.Fatal("cycle-creating edge accepted")
	}
	if err := g.Check(); err != nil {
		t.Fatalf("graph corrupted by rejected candidate: %v", err)
	}
}

func TestSpillRejectsLiveOut(t *testing.T) {
	g := paperGraph(t)
	c := &Candidate{Kind: Spill, Spill: &SpillSpec{
		Reg: g.Func.Reg("z"),
		Def: node(t, g, "z"),
	}}
	if err := c.Apply(g); err == nil {
		t.Fatal("spilling a live-out value accepted")
	}
}

func TestSpillPreservesSemantics(t *testing.T) {
	// Execute the transformed DAG in dependence order and compare with the
	// original block's interpretation.
	f := ir.MustParse(paperSrc)
	st0 := ir.NewState()
	st0.StoreInt("V", 0, 7)
	ref := st0.Clone()
	if _, err := ref.Run(f, 1000); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := &Candidate{
		Kind: Spill,
		Spill: &SpillSpec{
			Reg:      g.Func.Reg("y"),
			Def:      node(t, g, "y"),
			Barrier:  []int{node(t, g, "t1"), node(t, g, "t2"), node(t, g, "t5")},
			PreRoots: []int{node(t, g, "w"), node(t, g, "x")},
		},
	}
	if err := c.Apply(g); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got := st0.Clone()
	for _, n := range g.TopoOrder() {
		if g.Nodes[n].Instr != nil {
			got.Exec(g.Func, g.Nodes[n].Instr)
		}
	}
	zf := g.Func.Reg("z")
	if got.Regs[zf] != ref.Regs[zf] {
		t.Errorf("z = %d after spill, want %d", got.Regs[zf].Int(), ref.Regs[zf].Int())
	}
}

func TestFUCandidatesReducePaperExample(t *testing.T) {
	g := paperGraph(t)
	res := measure.Measure(reuse.FU(g, reuse.AllFUs))
	sets := measure.FindExcess(res, g.Hammocks(), 3)
	if len(sets) == 0 {
		t.Fatal("no excessive set")
	}
	// The whole-graph excessive set (largest hammock) drives the transform.
	set := sets[len(sets)-1]
	cands := FUCandidates(g, g.Reach(), res, set)
	if len(cands) == 0 {
		t.Fatal("no FU candidates generated")
	}
	reduced := false
	for _, c := range cands {
		cl := g.Clone()
		if err := c.Apply(cl); err != nil {
			continue
		}
		if fuWidth(cl) < 4 {
			reduced = true
		}
	}
	if !reduced {
		t.Error("no generated FU candidate reduces the requirement")
	}
}

func TestRegSeqCandidatesReducePaperExample(t *testing.T) {
	g := paperGraph(t)
	res := measure.Measure(reuse.Reg(g, ir.ClassInt))
	sets := measure.FindExcess(res, g.Hammocks(), 4)
	if len(sets) == 0 {
		t.Fatal("no excessive set")
	}
	set := sets[len(sets)-1]
	cands := RegSeqCandidates(g, g.Reach(), res, set)
	cands = append(cands, SpillCandidates(g, res, set)...)
	if len(cands) == 0 {
		t.Fatal("no register candidates generated")
	}
	best := 5
	for _, c := range cands {
		cl := g.Clone()
		if err := c.Apply(cl); err != nil {
			continue
		}
		if w := regWidth(cl); w < best {
			best = w
		}
	}
	if best > 4 {
		t.Errorf("best candidate reaches width %d, want <= 4", best)
	}
}

func TestSequencingNeverIncreasesWidth(t *testing.T) {
	// §5: "Neither transformation can increase the requirements of either
	// resource." Check over all feasible single edges on the paper DAG.
	g := paperGraph(t)
	fu0, reg0 := fuWidth(g), regWidth(g)
	nodes := g.InstrNodes()
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b || g.HasEdge(a, b) || g.HasPath(b, a) {
				continue
			}
			cl := g.Clone()
			cl.AddEdge(a, b, dag.EdgeSeq)
			if w := fuWidth(cl); w > fu0 {
				t.Errorf("edge %d->%d increased FU width %d -> %d", a, b, fu0, w)
			}
			if w := regWidth(cl); w > reg0 {
				t.Errorf("edge %d->%d increased register width %d -> %d", a, b, reg0, w)
			}
		}
	}
}

// TestApplyUndoRoundTrip: applying a sequencing candidate through the undo
// log adds only the edges the graph lacks, and undoing the log restores the
// graph.
func TestApplyUndoRoundTrip(t *testing.T) {
	g := paperGraph(t)
	b, c := node(t, g, "w"), node(t, g, "x")
	pre := [2]int{node(t, g, "v"), b} // already present: B depends on A's value
	if !g.HasEdge(pre[0], pre[1]) {
		t.Fatalf("expected existing edge %v", pre)
	}
	cand := &Candidate{Kind: FUSequence, Edges: [][2]int{pre, {b, c}}, Note: "test"}

	before := g.Fingerprint()
	var log UndoLog
	if err := cand.ApplyLog(g, &log, g.Reach()); err != nil {
		t.Fatalf("ApplyLog: %v", err)
	}
	if len(log.added) != 1 || log.added[0] != [2]int{b, c} {
		t.Fatalf("added %v, want just %v (existing edge must be skipped)", log.added, [2]int{b, c})
	}
	if !g.HasEdge(b, c) {
		t.Fatal("edge not applied")
	}
	log.Revert()
	if g.Fingerprint() != before {
		t.Fatal("undo did not restore the graph")
	}
}

// TestApplyUndoRollsBackOnCycle: when a later edge of the candidate would
// close a cycle, the earlier edges are removed before the error returns.
func TestApplyUndoRollsBackOnCycle(t *testing.T) {
	g := paperGraph(t)
	b, c := node(t, g, "w"), node(t, g, "x")
	cand := &Candidate{Kind: FUSequence, Edges: [][2]int{{b, c}, {c, b}}, Note: "cycle"}
	before := g.Fingerprint()
	var log UndoLog
	if err := cand.ApplyLog(g, &log, g.Reach()); err == nil {
		t.Fatal("cycle accepted")
	}
	if g.Fingerprint() != before {
		t.Fatal("failed application left edges behind")
	}
}

// TestApplyLogExtendsClosure: ApplyLog's cycle checks read the caller's
// closure and its added edges extend it, so after a sequencing application
// the closure equals the transformed graph's, and a refused candidate —
// including a self-edge, which the strict closure cannot see as a cycle —
// leaves the graph as it was.
func TestApplyLogExtendsClosure(t *testing.T) {
	g := paperGraph(t)
	b, c := node(t, g, "w"), node(t, g, "x")
	var log UndoLog

	reach := g.Reach()
	before := g.Fingerprint()
	cand := &Candidate{Kind: FUSequence, Edges: [][2]int{{b, c}}, Note: "seq"}
	if err := cand.ApplyLog(g, &log, reach); err != nil {
		t.Fatalf("ApplyLog: %v", err)
	}
	want := g.Reach()
	for x := 0; x < want.Size(); x++ {
		for y := 0; y < want.Size(); y++ {
			if reach.Has(x, y) != want.Has(x, y) {
				t.Fatalf("extended closure disagrees at (%d,%d): got %v want %v",
					x, y, reach.Has(x, y), want.Has(x, y))
			}
		}
	}
	log.Revert()
	if g.Fingerprint() != before {
		t.Fatal("revert did not restore the graph")
	}

	for _, edges := range [][][2]int{{{b, c}, {c, b}}, {{b, b}}} {
		cand := &Candidate{Kind: FUSequence, Edges: edges, Note: "cycle"}
		if err := cand.ApplyLog(g, &log, g.Reach()); err == nil {
			t.Fatalf("cycle %v accepted", edges)
		}
		if g.Fingerprint() != before {
			t.Fatalf("refused %v left edges behind", edges)
		}
	}
}

// TestApplyLogCopySpill: a copy-spill applied through the undo log
// transforms the graph exactly as Apply does on a clone, and Revert
// restores the original — the copy's opcode, operands and symbol, the
// removed def->copy edge, and the node and register counts.
func TestApplyLogCopySpill(t *testing.T) {
	f := ir.MustParse(paperSrc)
	if _, err := target.Clusterize(f.Blocks[0], target.ByName("clus2x2x4").Config); err != nil {
		t.Fatalf("Clusterize: %v", err)
	}
	g, err := dag.Build(f.Blocks[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	before, nodes, regs := g.Fingerprint(), g.NumNodes(), g.Func.NumRegs()
	var log UndoLog
	copies := 0
	for _, n := range g.InstrNodes() {
		if !g.Nodes[n].Instr.IsCopy() {
			continue
		}
		copies++
		cand := &Candidate{Kind: CopySpill, CopySpill: &CopySpillSpec{Copy: n}}
		cl := g.Clone()
		cl.Func = g.Func.Clone()
		if err := cand.Apply(cl); err != nil {
			t.Fatalf("copy %d: Apply: %v", n, err)
		}
		if err := cand.ApplyLog(g, &log, g.Reach()); err != nil {
			t.Fatalf("copy %d: ApplyLog: %v", n, err)
		}
		if g.Fingerprint() != cl.Fingerprint() {
			t.Errorf("copy %d: ApplyLog and Apply disagree", n)
		}
		log.Revert()
		if g.Fingerprint() != before || g.NumNodes() != nodes || g.Func.NumRegs() != regs {
			t.Fatalf("copy %d: revert did not restore the graph", n)
		}
	}
	if copies == 0 {
		t.Fatal("clusterized block has no inter-cluster copy")
	}
}

// TestCandidateKey: Key identifies a candidate by effect — edge order and
// Note are ignored; kind, edge set, and spill payload are not.
func TestCandidateKey(t *testing.T) {
	a := &Candidate{Kind: FUSequence, Edges: [][2]int{{1, 2}, {3, 4}}, Note: "one"}
	b := &Candidate{Kind: FUSequence, Edges: [][2]int{{3, 4}, {1, 2}}, Note: "two"}
	if a.Key() != b.Key() {
		t.Errorf("edge order changed the key: %q vs %q", a.Key(), b.Key())
	}
	c := &Candidate{Kind: RegSequence, Edges: [][2]int{{1, 2}, {3, 4}}}
	if a.Key() == c.Key() {
		t.Error("kind not part of the key")
	}
	d := &Candidate{Kind: FUSequence, Edges: [][2]int{{1, 2}}}
	if a.Key() == d.Key() {
		t.Error("edge set not part of the key")
	}
	s1 := &Candidate{Kind: Spill, Spill: &SpillSpec{Reg: 1, Def: 2, Barrier: []int{5, 3}, PreRoots: []int{7}}}
	s2 := &Candidate{Kind: Spill, Spill: &SpillSpec{Reg: 1, Def: 2, Barrier: []int{3, 5}, PreRoots: []int{7}}}
	if s1.Key() != s2.Key() {
		t.Errorf("barrier order changed the key: %q vs %q", s1.Key(), s2.Key())
	}
	s3 := &Candidate{Kind: Spill, Spill: &SpillSpec{Reg: 1, Def: 3, Barrier: []int{3, 5}, PreRoots: []int{7}}}
	if s1.Key() == s3.Key() {
		t.Error("spill def not part of the key")
	}
}
