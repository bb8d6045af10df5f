// Package core implements the paper's contributions: the compressed COD
// evaluation (Algorithm 1: shared sample generation via hierarchical-first
// search plus incremental top-k evaluation), the Independent baseline, the
// LORE local hierarchical reclustering (Algorithm 2), the HIMOR index with
// its compressed construction, and the CODU / CODR / CODL query pipelines.
package core

import (
	"fmt"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
)

// Chain is H(q): the hierarchical communities containing a query node q,
// ordered deepest (smallest) first; the last community is the whole graph
// the chain was built over. Communities are represented implicitly by the
// level function: node u belongs to C_h iff Level(u) <= h.
type Chain struct {
	q     graph.NodeID
	level []int32 // level[u]: index of the smallest chain community containing u; q has level 0
	sizes []int   // sizes[h] = |C_h|
	depks []int   // dep(C_h), the paper's depth convention (used by LORE)
	// vertices[h] is the hierarchy vertex of C_h when the chain comes from a
	// single tree; nil for merged (LORE) chains.
	vertices []hier.Vertex
}

// ChainFromTree extracts H(q) from a community hierarchy: the proper
// ancestors of leaf q, deepest first. Leaf singletons are not communities.
func ChainFromTree(t *hier.Tree, q graph.NodeID) *Chain {
	return new(LoreScratch).ChainFromTree(t, q)
}

// ChainFromTree is the package-level ChainFromTree using s's buffers.
func (s *LoreScratch) ChainFromTree(t *hier.Tree, q graph.NodeID) *Chain {
	anc := t.Ancestors(t.LeafOf(q))
	if len(anc) == 0 {
		// Single-node graph: the only community is the root leaf itself.
		return &Chain{q: q, level: []int32{0}, sizes: []int{1}, depks: []int{1}, vertices: []hier.Vertex{t.Root()}}
	}
	ch := &Chain{
		q:        q,
		level:    make([]int32, t.N()),
		sizes:    make([]int, len(anc)),
		depks:    make([]int, len(anc)),
		vertices: anc,
	}
	for h, v := range anc {
		ch.sizes[h] = t.Size(v)
		ch.depks[h] = t.Depth(v)
	}
	s.hangLevels(t, t.LeafOf(q), anc, 0, ch.level, nil)
	ch.level[q] = 0
	return ch
}

// hangLevels writes chain levels for the leaves hanging off a path: path
// is from's proper ancestors, deepest first, and every leaf under path[h]
// but not under path[h-1] (not under from, for h = 0) gets level base+h,
// the index of the smallest path community containing it, which is what
// one LCA per leaf with from would give. Leaves under from are left alone.
// Leaf x's level goes to level[nodes[x]], or level[x] when nodes is nil.
// The pass visits each hanging vertex once, parents before children.
func (s *LoreScratch) hangLevels(t *hier.Tree, from hier.Vertex, path []hier.Vertex, base int32, level []int32, nodes []graph.NodeID) {
	n := hier.Vertex(t.N())
	stack := s.stack[:0]
	prev := from
	for h, a := range path {
		lv := base + int32(h)
		for stack = append(stack, a); len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range t.Children(x) {
				switch {
				case c == prev:
					// The path child, below a: its leaves get lower levels.
				case c >= n:
					stack = append(stack, c)
				case nodes != nil:
					level[nodes[c]] = lv
				default:
					level[c] = lv
				}
			}
		}
		prev = a
	}
	s.stack = stack
}

// Q returns the chain's query node.
func (c *Chain) Q() graph.NodeID { return c.q }

// Len returns |H(q)|, the number of communities in the chain.
func (c *Chain) Len() int { return len(c.sizes) }

// Level returns the index of the smallest chain community containing u, or
// Len() when u lies outside every chain community (possible for restricted
// chains built over a subset of the graph).
func (c *Chain) Level(u graph.NodeID) int { return int(c.level[u]) }

// Size returns |C_h|.
func (c *Chain) Size(h int) int { return c.sizes[h] }

// Depth returns dep(C_h) in the paper's convention.
func (c *Chain) Depth(h int) int { return c.depks[h] }

// Vertex returns the hierarchy vertex backing C_h, or -1 for merged chains.
func (c *Chain) Vertex(h int) hier.Vertex {
	if c.vertices == nil {
		return -1
	}
	return c.vertices[h]
}

// Members returns the nodes of C_h in ascending order.
func (c *Chain) Members(h int) []graph.NodeID {
	if h < 0 || h >= len(c.sizes) {
		return nil
	}
	out := make([]graph.NodeID, 0, c.sizes[h])
	for u, l := range c.level {
		if int(l) <= h {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// Contains reports whether node u belongs to C_h.
func (c *Chain) Contains(u graph.NodeID, h int) bool { return int(c.level[u]) <= h }

// Validate checks internal consistency (sizes monotone, levels within range,
// q at level 0); it is used by tests and returns a descriptive error.
func (c *Chain) Validate() error {
	if c.Len() == 0 {
		return fmt.Errorf("core: empty chain")
	}
	if c.level[c.q] != 0 {
		return fmt.Errorf("core: query node level = %d, want 0", c.level[c.q])
	}
	counts := make([]int, c.Len()+1)
	for _, l := range c.level {
		counts[l]++
	}
	cum := 0
	for h := 0; h < c.Len(); h++ {
		cum += counts[h]
		if cum != c.sizes[h] {
			return fmt.Errorf("core: C_%d has %d members by level, declared size %d", h, cum, c.sizes[h])
		}
		if h > 0 && c.sizes[h] < c.sizes[h-1] {
			return fmt.Errorf("core: sizes not monotone at %d", h)
		}
	}
	return nil
}
