package dag

import (
	"sort"

	"ursa/internal/order"
)

// TopoOrder returns the node ids in a deterministic topological order
// (ties broken by node id).
func (g *Graph) TopoOrder() []int {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, ss := range g.succ {
		for _, b := range ss {
			indeg[b]++
		}
	}
	// Min-heap behaviour via sorted frontier keeps the order deterministic.
	frontier := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			frontier = append(frontier, i)
		}
	}
	sort.Ints(frontier)
	out := make([]int, 0, n)
	for len(frontier) > 0 {
		a := frontier[0]
		frontier = frontier[1:]
		out = append(out, a)
		added := false
		for _, b := range g.succ[a] {
			indeg[b]--
			if indeg[b] == 0 {
				frontier = append(frontier, b)
				added = true
			}
		}
		if added {
			sort.Ints(frontier)
		}
	}
	return out
}

// Reach returns the transitive closure of the graph's edges: Reach().Has(a, b)
// iff b is a proper descendant of a. The relation is strict, so Has(a, a) is
// always false, whereas HasPath(a, a) is true; callers that swap one for the
// other must test a == b themselves. The result is a snapshot and does not
// follow later mutations of the graph.
func (g *Graph) Reach() *order.Relation {
	return g.Relation().TransitiveClosure()
}

// CriticalPath returns the length of the longest root-to-leaf path where
// each node contributes latency(node) cycles (pseudo nodes contribute 0
// regardless), along with the path itself.
func (g *Graph) CriticalPath(latency func(*Node) int) (int, []int) {
	topo := g.TopoOrder()
	dist := make([]int, len(g.Nodes))
	prev := make([]int, len(g.Nodes))
	for i := range prev {
		prev[i] = -1
		dist[i] = -1 << 30
	}
	dist[g.Root] = 0
	for _, a := range topo {
		if dist[a] == -1<<30 {
			continue
		}
		la := 0
		if !g.Nodes[a].IsPseudo() && latency != nil {
			la = latency(g.Nodes[a])
		}
		for _, b := range g.succ[a] {
			if dist[a]+la > dist[b] {
				dist[b] = dist[a] + la
				prev[b] = a
			}
		}
	}
	var path []int
	for x := g.Leaf; x != -1; x = prev[x] {
		path = append([]int{x}, path...)
	}
	if dist[g.Leaf] < 0 {
		return 0, nil
	}
	return dist[g.Leaf], path
}

// UnitLatency assigns every instruction one cycle; the default critical-path
// metric used by transformation scoring when no machine is given.
func UnitLatency(*Node) int { return 1 }

// Depths returns, for each node, its distance from the root in edges
// (longest path, unit weights). Used by the "closest to hammock entry"
// heuristics of §4.
func (g *Graph) Depths() []int {
	topo := g.TopoOrder()
	depth := make([]int, len(g.Nodes))
	for i := range depth {
		depth[i] = -1 << 30
	}
	depth[g.Root] = 0
	for _, a := range topo {
		if depth[a] == -1<<30 {
			continue
		}
		for _, b := range g.succ[a] {
			if depth[a]+1 > depth[b] {
				depth[b] = depth[a] + 1
			}
		}
	}
	return depth
}

// Heights returns, for each node, its longest distance to the leaf in edges.
func (g *Graph) Heights() []int {
	topo := g.TopoOrder()
	height := make([]int, len(g.Nodes))
	for i := range height {
		height[i] = -1 << 30
	}
	height[g.Leaf] = 0
	for i := len(topo) - 1; i >= 0; i-- {
		a := topo[i]
		for _, b := range g.succ[a] {
			if height[b]+1 > height[a] {
				height[a] = height[b] + 1
			}
		}
	}
	return height
}

// Descendants returns the strict descendant set of n (excluding n).
func (g *Graph) Descendants(n int) *order.BitSet {
	s := order.NewBitSet(len(g.Nodes))
	stack := append([]int(nil), g.succ[n]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.Has(x) {
			continue
		}
		s.Set(x)
		stack = append(stack, g.succ[x]...)
	}
	return s
}

// Ancestors returns the strict ancestor set of n (excluding n).
func (g *Graph) Ancestors(n int) *order.BitSet {
	s := order.NewBitSet(len(g.Nodes))
	stack := append([]int(nil), g.pred[n]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.Has(x) {
			continue
		}
		s.Set(x)
		stack = append(stack, g.pred[x]...)
	}
	return s
}
