package influence

import "github.com/codsearch/cod/internal/graph"

// Pool is a flat pool of RR graphs read by index. Three shared arrays hold
// every sample's nodes, local CSR offsets and adjacency, and one Start per
// sample locates it; there is no per-sample header or pointer. A resident
// pool therefore costs its data plus 8 bytes per sample, and the garbage
// collector sees four arrays instead of one object per sample.
//
// Sample i occupies nodes[at[i].Node:at[i+1].Node]; its offsets, one more
// than its nodes, start at off[at[i].Node+i]; its adjacency is
// adj[at[i].Adj:at[i+1].Adj], indexed by those local offsets. Sample i read
// through Sample is the RR graph's CSR form: its nodes, source first, and
// its live edges bucketed by head position.
//
// A Pool is read-only. One returned by Arena.Pool aliases the arena and
// dies at its next Reset (see Arena); Clone makes one that owns its arrays.
// The zero Pool is empty.
type Pool struct {
	nodes []graph.NodeID
	off   []int32
	adj   []int32
	at    []Start // at[i] starts sample i; at[Len()] ends the last one
}

// Start locates one sample in a Pool's arrays: the index of its first node
// and of its first adjacency entry.
type Start struct{ Node, Adj int32 }

// Len returns the number of samples.
func (p Pool) Len() int { return max(len(p.at)-1, 0) }

// Nodes returns the member nodes of sample i, source first.
func (p Pool) Nodes(i int) []graph.NodeID {
	lo, hi := p.at[i].Node, p.at[i+1].Node
	return p.nodes[lo:hi:hi]
}

// Sample returns a header view of sample i over the pool's arrays; it
// copies nothing and shares the pool's lifetime.
func (p Pool) Sample(i int) RRGraph {
	s, e := p.at[i], p.at[i+1]
	o := int(s.Node) + i
	on := o + int(e.Node-s.Node) + 1
	return RRGraph{
		Nodes: p.nodes[s.Node:e.Node:e.Node],
		Off:   p.off[o:on:on],
		Adj:   p.adj[s.Adj:e.Adj:e.Adj],
	}
}

// Prefix returns the pool of the first n samples, sharing p's arrays.
func (p Pool) Prefix(n int) Pool {
	if n >= p.Len() {
		return p
	}
	e := p.at[n]
	return Pool{
		nodes: p.nodes[:e.Node:e.Node],
		off:   p.off[: int(e.Node)+n : int(e.Node)+n],
		adj:   p.adj[:e.Adj:e.Adj],
		at:    p.at[: n+1 : n+1],
	}
}

// Arrays exposes the pool's storage for loops that fold every sample with
// the arrays hoisted; see the layout in the type comment. Callers must not
// write through the returned slices.
func (p Pool) Arrays() (nodes []graph.NodeID, off, adj []int32, at []Start) {
	return p.nodes, p.off, p.adj, p.at
}

// Clone returns an exact-size copy of p that shares nothing with it: four
// allocations whatever the sample count, each array's capacity equal to
// its length.
func (p Pool) Clone() Pool {
	return Pool{
		nodes: cloneExact(p.nodes),
		off:   cloneExact(p.off),
		adj:   cloneExact(p.adj),
		at:    cloneExact(p.at),
	}
}

// cloneExact copies s into a new slice whose capacity is its length.
func cloneExact[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// PoolOf copies rrs into a new pool that owns its arrays. Each RR graph
// must be well formed (see Arena.Append).
func PoolOf(rrs []*RRGraph) Pool {
	a := NewArena()
	for _, r := range rrs {
		a.Append(r)
	}
	return a.Pool()
}

// joinPools concatenates parts, in order, into one exact-size pool; the
// parts' local offsets carry over unchanged and only the starts shift.
func joinPools(parts []Pool) Pool {
	var nn, no, na, ns int
	for i := range parts {
		nn += len(parts[i].nodes)
		no += len(parts[i].off)
		na += len(parts[i].adj)
		ns += parts[i].Len()
	}
	checkPoolSize(nn, na)
	out := Pool{
		nodes: make([]graph.NodeID, 0, nn),
		off:   make([]int32, 0, no),
		adj:   make([]int32, 0, na),
		at:    make([]Start, 1, ns+1),
	}
	for i := range parts {
		p := parts[i]
		base := Start{Node: int32(len(out.nodes)), Adj: int32(len(out.adj))}
		out.nodes = append(out.nodes, p.nodes...)
		out.off = append(out.off, p.off...)
		out.adj = append(out.adj, p.adj...)
		for _, s := range p.at[min(1, len(p.at)):] {
			out.at = append(out.at, Start{Node: base.Node + s.Node, Adj: base.Adj + s.Adj})
		}
	}
	return out
}
