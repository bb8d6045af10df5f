package graph

import (
	"fmt"
	"math"
	"slices"
)

// Subgraph is a node-induced subgraph of a parent Graph, materialized as its
// own Graph with compact local node ids plus the mapping back to the parent.
type Subgraph struct {
	// G is the induced subgraph with local ids 0..len(ToParent)-1.
	G *Graph
	// ToParent maps local node ids to parent node ids (ascending).
	ToParent []NodeID
	// toLocal maps parent ids to local ids; -1 when absent.
	toLocal []int32
}

// Induce materializes the subgraph of g induced by nodes. The node list may
// be unsorted and may contain duplicates; attributes and weights are carried
// over. Edges are those of g with both endpoints in nodes. Local ids follow
// parent ids, so each member's row, filtered from its sorted parent row,
// is already sorted and the CSR is written in one pass. The subgraph is
// unweighted when every induced edge weighs 1.
func Induce(g *Graph, nodes []NodeID) *Subgraph {
	members := slices.Clone(nodes)
	slices.Sort(members)
	members = slices.Compact(members)
	toLocal := make([]int32, g.N())
	for i := range toLocal {
		toLocal[i] = -1
	}
	for i, v := range members {
		toLocal[v] = int32(i)
	}
	n := len(members)
	sub := &Graph{numAttr: g.numAttr, off: make([]int32, n+1), attrOff: make([]int32, n+1)}
	deg, nattr := 0, 0
	for i, v := range members {
		for _, u := range g.Neighbors(v) {
			if toLocal[u] >= 0 {
				deg++
			}
		}
		nattr += len(g.Attrs(v))
		sub.off[i+1] = int32(deg)
		sub.attrOff[i+1] = int32(nattr)
	}
	sub.adj = make([]NodeID, 0, deg)
	sub.attrs = make([]AttrID, 0, nattr)
	weighted := false
	if g.wts != nil {
		sub.wts = make([]float64, 0, deg)
	}
	for _, v := range members {
		ws := g.Weights(v)
		for j, u := range g.Neighbors(v) {
			lu := toLocal[u]
			if lu < 0 {
				continue
			}
			sub.adj = append(sub.adj, lu)
			if ws != nil {
				sub.wts = append(sub.wts, ws[j])
				weighted = weighted || ws[j] != 1
			}
		}
		sub.attrs = append(sub.attrs, g.Attrs(v)...)
	}
	if !weighted {
		sub.wts = nil
	}
	sub.m = deg / 2
	return &Subgraph{G: sub, ToParent: members, toLocal: toLocal}
}

// Local maps a parent node id to its local id, or -1 when the node is not in
// the subgraph.
func (s *Subgraph) Local(parent NodeID) int32 {
	if int(parent) >= len(s.toLocal) {
		return -1
	}
	return s.toLocal[parent]
}

// Contains reports whether the parent node belongs to the subgraph.
func (s *Subgraph) Contains(parent NodeID) bool { return s.Local(parent) >= 0 }

// ParentNodes returns the parent ids of local nodes, i.e. a copy of ToParent.
func (s *Subgraph) ParentNodes() []NodeID { return slices.Clone(s.ToParent) }

// Reweight returns a copy of g in which every edge weight is replaced by
// fn(u, v, w), called once per edge with u < v. It is used to derive the
// attribute-weighted graph g_ℓ. The copy shares g's offsets, adjacency and
// attributes and owns one new weight array, nil when every new weight is
// 1. A weight that is not positive and finite (fn returned NaN, an
// infinity, or an overflowed product) is an error, because clustering would
// silently mis-handle it.
func Reweight(g *Graph, fn func(u, v NodeID, w float64) float64) (*Graph, error) {
	n := g.N()
	out := *g
	wts := make([]float64, len(g.adj))
	// Row v's entries below v come first, in increasing order of the
	// other endpoint, which is the order rows u < v reach them; cursor[v]
	// is the next of them to fill.
	cursor := make([]int32, n)
	copy(cursor, g.off[:n])
	weighted := false
	for u := NodeID(0); u < NodeID(n); u++ {
		ws := g.Weights(u)
		lo := g.off[u]
		for i, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			w = fn(u, v, w)
			if !(w > 0) || math.IsInf(w, 1) {
				// !(w > 0) also rejects NaN, which w <= 0 would let through.
				return nil, fmt.Errorf("graph: reweighted edge (%d,%d) has non-positive or non-finite weight %g", u, v, w)
			}
			weighted = weighted || w != 1
			wts[lo+int32(i)] = w
			wts[cursor[v]] = w
			cursor[v]++
		}
	}
	out.wts = nil
	if weighted {
		out.wts = wts
	}
	return &out, nil
}
