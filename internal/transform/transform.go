// Package transform implements URSA's resource-requirement reduction
// transformations (paper §4): functional-unit sequentialization, register
// sequentialization, and spill insertion. All three operate on the same
// dependence DAG, so the driver can apply them in any order or in an
// integrated manner (§5).
//
// Candidate generation is heuristic, exactly as in the paper; the driver
// tentatively applies each candidate, re-measures the transformed DAG, and
// commits the candidate with the best combination of requirement reduction
// and critical-path impact.
package transform

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
)

// Kind identifies a transformation family.
type Kind uint8

// Transformation kinds.
const (
	FUSequence  Kind = iota // §4.1: sequence independent instructions
	RegSequence             // §4.2: stage the hammock to shorten live ranges
	Spill                   // §4.3: store a value, reload when pressure drops
	CopySpill               // clustered VLIW: reroute an inter-cluster copy through memory
	NumKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case FUSequence:
		return "fu-seq"
	case RegSequence:
		return "reg-seq"
	case Spill:
		return "spill"
	case CopySpill:
		return "copy-spill"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// A Candidate is one concrete applicable transformation.
type Candidate struct {
	Kind      Kind
	Edges     [][2]int       // sequentialization edges to add (from, to)
	Spill     *SpillSpec     // spill payload, for Kind == Spill
	CopySpill *CopySpillSpec // copy-spill payload, for Kind == CopySpill
	Note      string         // human-readable description for traces
}

// SpillSpec describes a spill-insertion transformation: the value defined at
// Def is stored right after its definition, the store is sequenced before
// the PreRoots (SD1's roots, so the register is free while SD1 runs), and
// the reload is sequenced after the Barrier nodes (SD1's leaves). Uses of
// the value that can legally wait are rewired to the reloaded copy.
type SpillSpec struct {
	Reg      ir.VReg
	Def      int
	Barrier  []int
	PreRoots []int
}

// CopySpillSpec describes a copy-spill transformation (clustered machines):
// the inter-cluster copy at node Copy is rerouted through memory — a spill
// store of the source value on the producing cluster plus a reload into the
// copy's destination register on the consuming cluster — freeing the
// transfer-bus slot the copy occupied. Because URSA measures the bus, the
// per-cluster issue slots, and the destination register file through the
// same reduction loop, the copy-vs-spill decision falls out of measured
// excess rather than a fixed heuristic.
type CopySpillSpec struct {
	Copy int // node id of the inter-cluster copy
}

// String renders the candidate for traces.
func (c *Candidate) String() string {
	if c.Note != "" {
		return fmt.Sprintf("%s(%s)", c.Kind, c.Note)
	}
	return c.Kind.String()
}

// Apply mutates the graph for good: it is the commit path. It returns an
// error (leaving the graph in a valid, possibly partially-extended state)
// if the candidate is inapplicable: an edge would create a cycle, or a
// spill would rewire no uses. Tentative applications use ApplyLog.
func (c *Candidate) Apply(g *dag.Graph) error {
	for _, e := range c.Edges {
		if g.HasEdge(e[0], e[1]) {
			continue
		}
		if g.HasPath(e[1], e[0]) {
			return fmt.Errorf("transform %s: edge %d->%d would create a cycle", c.Kind, e[0], e[1])
		}
		g.AddEdge(e[0], e[1], dag.EdgeSeq)
	}
	if c.Spill != nil {
		if err := applySpill(g, c.Spill, nil); err != nil {
			return err
		}
	}
	if c.CopySpill != nil {
		if err := applyCopySpill(g, c.CopySpill, nil); err != nil {
			return err
		}
	}
	return nil
}

// An UndoLog records everything one tentative application changed, so the
// change can be reverted in place. One log lives per evaluator worker and
// is reused across candidates; its slices keep their capacity, so the
// steady-state apply/score/revert cycle allocates nothing.
//
// The payload wiring mutates the graph through the log's recording
// methods. On a nil log (the commit path) they only mutate.
type UndoLog struct {
	g       *dag.Graph
	nodes   int // node count at ApplyLog time
	regs    int // Func.NumRegs at ApplyLog time
	added   [][2]int
	removed []removedEdge
	patches []regPatch
	instrs  []instrSnapshot
}

type removedEdge struct {
	a, b int
	kind dag.EdgeKind
}

// regPatch records one operand rewrite: the Args element or Index field
// that changed, and its old register.
type regPatch struct {
	at  *ir.VReg
	old ir.VReg
}

// instrSnapshot records an instruction rewritten in place (a copy-spill
// turns its copy into the reload, replacing Op, Args and Sym) as it was.
type instrSnapshot struct {
	in  *ir.Instr
	old ir.Instr
}

// Revert undoes the recorded application: instruction and operand rewrites
// are restored, removed edges re-added with their original kinds, added
// edges removed, and any nodes and registers the application created are
// truncated away. Successor/predecessor list order may differ from the
// pre-apply state (re-added edges append at the tail); every analysis the
// evaluator runs is order-independent, and the committed graph never goes
// through a revert.
func (u *UndoLog) Revert() {
	g := u.g
	for i := len(u.instrs) - 1; i >= 0; i-- {
		*u.instrs[i].in = u.instrs[i].old
	}
	for i := len(u.patches) - 1; i >= 0; i-- {
		*u.patches[i].at = u.patches[i].old
	}
	for i := len(u.added) - 1; i >= 0; i-- {
		g.RemoveEdge(u.added[i][0], u.added[i][1])
	}
	for i := len(u.removed) - 1; i >= 0; i-- {
		r := u.removed[i]
		g.AddEdge(r.a, r.b, r.kind)
	}
	g.TruncateNodes(u.nodes)
	g.Func.TruncateRegs(u.regs)
}

// addEdge adds the edge (a, b), which must not be present yet.
func (u *UndoLog) addEdge(g *dag.Graph, a, b int, kind dag.EdgeKind) {
	g.AddEdge(a, b, kind)
	if u != nil {
		u.added = append(u.added, [2]int{a, b})
	}
}

// removeEdge removes the edge (a, b), which must be present.
func (u *UndoLog) removeEdge(g *dag.Graph, a, b int) {
	if u != nil {
		kind, _ := g.EdgeKindOf(a, b)
		u.removed = append(u.removed, removedEdge{a: a, b: b, kind: kind})
	}
	g.RemoveEdge(a, b)
}

// setReg rewrites one operand register.
func (u *UndoLog) setReg(at *ir.VReg, v ir.VReg) {
	if u != nil {
		u.patches = append(u.patches, regPatch{at: at, old: *at})
	}
	*at = v
}

// snapshot records in before it is rewritten in place.
func (u *UndoLog) snapshot(in *ir.Instr) {
	if u != nil {
		u.instrs = append(u.instrs, instrSnapshot{in: in, old: *in})
	}
}

// reset points the log at a fresh application on g.
func (u *UndoLog) reset(g *dag.Graph) {
	u.g = g
	u.nodes = g.NumNodes()
	u.regs = g.Func.NumRegs()
	u.added = u.added[:0]
	u.removed = u.removed[:0]
	u.patches = u.patches[:0]
	u.instrs = u.instrs[:0]
}

// ApplyLog tentatively applies the candidate — sequencing edges and any
// spill or copy-spill payload — recording every change in the reusable log.
// On error the partial application is already reverted and the graph is
// back in its prior state. On success the caller scores the transformed
// graph and then calls log.Revert.
//
// reach must hold g's transitive closure on entry. The cycle check of each
// sequencing edge reads it, and each edge actually added extends it in
// place, so after a successful sequencing-only application reach is the
// closure of the transformed graph. The graph's revert does not touch
// reach: the caller reseeds it before the next application, also after an
// error, which may leave it partially extended. A payload's own wiring
// still runs DFS reachability and leaves reach stale.
func (c *Candidate) ApplyLog(g *dag.Graph, log *UndoLog, reach *order.Relation) error {
	log.reset(g)
	for _, e := range c.Edges {
		if g.HasEdge(e[0], e[1]) {
			continue
		}
		// reach is strict: a self-edge is the one cycle it cannot see.
		if e[0] == e[1] || reach.Has(e[1], e[0]) {
			log.Revert()
			return fmt.Errorf("transform %s: edge %d->%d would create a cycle", c.Kind, e[0], e[1])
		}
		log.addEdge(g, e[0], e[1], dag.EdgeSeq)
		reach.AddClosureEdge(e[0], e[1])
	}
	if c.Spill != nil {
		if err := applySpill(g, c.Spill, log); err != nil {
			log.Revert()
			return err
		}
	}
	if c.CopySpill != nil {
		if err := applyCopySpill(g, c.CopySpill, log); err != nil {
			log.Revert()
			return err
		}
	}
	return nil
}

// SeqOnly reports whether the candidate is a pure sequentialization — it
// only adds sequence edges, with no spill or copy-spill payload. Only such
// candidates keep the node set and every instruction unchanged, so only
// they are remeasured incrementally; payloads are remeasured from scratch.
func (c *Candidate) SeqOnly() bool { return c.Spill == nil && c.CopySpill == nil }

// Key returns a canonical identity for the transformation's effect: the
// kind, the edge set in sorted order, and the spill target. Candidates with
// equal keys transform the graph identically even when their generators and
// Notes differ; the driver uses this to measure each distinct effect once
// per iteration. Key allocates its result; the evaluator's hot path uses
// FixedKey with a reused buffer instead.
func (c *Candidate) Key() string { return string(c.AppendKey(nil)) }

// A CandKey is a fixed-size comparable digest of a candidate's canonical
// encoding (AppendKey), usable directly as a map key. Candidates with equal
// effect always collide; distinct effects are separated by the full 256-bit
// digest.
type CandKey [sha256.Size]byte

// FixedKey returns the candidate's fixed-size key. buf is an optional
// scratch buffer reused for the canonical encoding; the (possibly grown)
// buffer is returned so callers can thread one allocation through a whole
// dedupe pass.
func (c *Candidate) FixedKey(buf []byte) (CandKey, []byte) {
	buf = c.AppendKey(buf[:0])
	return CandKey(sha256.Sum256(buf)), buf
}

// AppendKey appends the candidate's canonical binary encoding to dst and
// returns the extended slice. The encoding is what Key and FixedKey are
// built from: kind, edge count, edges sorted lexicographically, and the
// spill payload (register, definition, sorted barriers, sorted pre-roots)
// when present. Candidates with up to 32 edges encode without allocating
// beyond dst's growth.
func (c *Candidate) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(c.Kind))
	var stack [32][2]int
	edges := stack[:0]
	if len(c.Edges) > len(stack) {
		edges = make([][2]int, 0, len(c.Edges))
	}
	edges = append(edges, c.Edges...)
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = binary.AppendUvarint(dst, uint64(e[0]))
		dst = binary.AppendUvarint(dst, uint64(e[1]))
	}
	if sp := c.Spill; sp != nil {
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(sp.Reg))
		dst = binary.AppendUvarint(dst, uint64(sp.Def))
		dst = appendSortedInts(dst, sp.Barrier)
		dst = appendSortedInts(dst, sp.PreRoots)
	}
	if sp := c.CopySpill; sp != nil {
		dst = append(dst, 2)
		dst = binary.AppendUvarint(dst, uint64(sp.Copy))
	}
	return dst
}

// appendSortedInts appends a length-prefixed sorted copy of xs.
func appendSortedInts(dst []byte, xs []int) []byte {
	var stack [32]int
	s := stack[:0]
	if len(xs) > len(stack) {
		s = make([]int, 0, len(xs))
	}
	s = append(s, xs...)
	slices.Sort(s)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, x := range s {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	return dst
}

// applySpill inserts the spill's store/load pair, wires it, and rewires the
// delayable uses. With log == nil (the commit path) the graph is mutated
// for good; with a log every change is recorded so the caller can revert —
// the store/load wiring always touches the freshly added nodes, so every
// edge added here is a genuinely new edge.
func applySpill(g *dag.Graph, sp *SpillSpec, log *UndoLog) error {
	f := g.Func
	name := f.NameOf(sp.Reg)
	class := f.ClassOf(sp.Reg)
	slot := "spill." + name

	if g.LiveOut[sp.Reg] {
		return fmt.Errorf("transform spill: %s is live-out", name)
	}
	defNode := g.Nodes[sp.Def]
	if defNode.Instr == nil || defNode.Instr.Dst != sp.Reg {
		return fmt.Errorf("transform spill: node %d does not define %s", sp.Def, name)
	}

	uses := g.UseNodes(sp.Reg)
	if len(uses) == 0 {
		return fmt.Errorf("transform spill: %s has no uses", name)
	}

	// Insert the store and load nodes, on the value's home cluster: the
	// store must read the value where it lives, and the reload re-produces
	// it there so surviving same-cluster readers stay legal.
	st := g.AddInstr(&ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{sp.Reg}, Sym: slot, Cluster: defNode.Instr.Cluster})
	nv := f.NewReg(name+".r", class)
	ld := g.AddInstr(&ir.Instr{Op: ir.SpillLoad, Dst: nv, Sym: slot, Cluster: defNode.Instr.Cluster})
	log.addEdge(g, sp.Def, st, dag.EdgeData)
	log.addEdge(g, st, ld, dag.EdgeMem)

	// The reload waits for SD1 to finish.
	for _, b := range sp.Barrier {
		if b == ld || g.HasPath(ld, b) {
			continue
		}
		log.addEdge(g, b, ld, dag.EdgeSeq)
	}
	// The store happens before SD1 starts, freeing the register. Roots
	// that are ancestors of the definition cannot be sequenced after it.
	for _, r := range sp.PreRoots {
		if r == st || g.HasPath(r, sp.Def) || g.HasPath(r, st) {
			continue
		}
		log.addEdge(g, st, r, dag.EdgeSeq)
	}

	// Rewire every use that can legally wait for the reload.
	rewired := 0
	for _, u := range uses {
		if u == st || g.HasPath(u, ld) {
			continue
		}
		in := g.Nodes[u].Instr
		for i, a := range in.Args {
			if a == sp.Reg {
				log.setReg(&in.Args[i], nv)
			}
		}
		if in.Index == sp.Reg {
			log.setReg(&in.Index, nv)
		}
		if g.HasEdge(sp.Def, u) {
			log.removeEdge(g, sp.Def, u)
		}
		log.addEdge(g, ld, u, dag.EdgeData)
		rewired++
	}
	if rewired == 0 {
		if log != nil {
			// The caller reverts everything; no patch-up needed.
			return fmt.Errorf("transform spill: no use of %s can be delayed", name)
		}
		// Nothing could be delayed: undo the dangling store/load by wiring
		// them straight to the leaf so the graph stays valid, and report
		// failure so the driver discards this candidate.
		g.AddEdge(ld, g.Leaf, dag.EdgeSeq)
		return fmt.Errorf("transform spill: no use of %s can be delayed", name)
	}
	// Keep the hammock property for the new nodes.
	if len(g.Succs(ld)) == 0 {
		log.addEdge(g, ld, g.Leaf, dag.EdgeSeq)
	}
	return nil
}

// applyCopySpill reroutes an inter-cluster copy through memory: a spill
// store of the source value is inserted on the producing cluster, and the
// copy instruction itself is rewritten in place into the reload — same
// destination register, same cluster, so every consumer edge survives
// untouched. The one data edge from the source's definition to the copy is
// replaced by def -> store -> load wiring. As in applySpill, a nil log is
// the commit path and a log records every change, the rewritten copy
// included.
func applyCopySpill(g *dag.Graph, sp *CopySpillSpec, log *UndoLog) error {
	if sp.Copy < 0 || sp.Copy >= g.NumNodes() {
		return fmt.Errorf("transform copy-spill: node %d out of range", sp.Copy)
	}
	in := g.Nodes[sp.Copy].Instr
	if in == nil || !in.IsCopy() {
		return fmt.Errorf("transform copy-spill: node %d is not an inter-cluster copy", sp.Copy)
	}
	f := g.Func
	src := in.Args[0]
	def := g.DefNode(src)
	if def < 0 {
		return fmt.Errorf("transform copy-spill: copy source %s is not defined in the region", f.NameOf(src))
	}
	slot := "spill." + f.NameOf(src)
	srcCluster := g.Nodes[def].Instr.Cluster

	st := g.AddInstr(&ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{src}, Sym: slot, Cluster: srcCluster})
	log.snapshot(in)
	in.Op = ir.SpillLoad
	in.Args = nil
	in.Sym = slot

	if g.HasEdge(def, sp.Copy) {
		log.removeEdge(g, def, sp.Copy)
	}
	log.addEdge(g, def, st, dag.EdgeData)
	log.addEdge(g, st, sp.Copy, dag.EdgeMem)
	if len(g.Succs(sp.Copy)) == 0 {
		log.addEdge(g, sp.Copy, g.Leaf, dag.EdgeSeq)
	}
	return nil
}
