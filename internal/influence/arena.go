package influence

import (
	"math"

	"github.com/codsearch/cod/internal/graph"
)

// Arena owns reusable backing storage for a batch of RR graphs. Instead of
// allocating fresh Nodes/Off/Adj slices per sample — the dominant allocation
// cost of a query, at Θ = θ·n samples each a handful of small slices — every
// sample of a batch appends into three shared arrays and one Start, the
// layout of a Pool. A Reset keeps the capacity, so an arena cycled through a
// sync.Pool amortizes sampling allocations across queries.
//
// Ownership contract: Pool returns a view of the arena's arrays, and
// Finalize a []*RRGraph of headers over the same storage. Both are valid
// until the next Reset and must not be retained past the point the arena is
// recycled. A caller whose samples must outlive the arena keeps
// Pool().Clone(), an exact-size copy that owns its arrays, as the sample
// cache does.
//
// An Arena is single-goroutine, like the samplers that fill it.
type Arena struct {
	nodes []graph.NodeID
	off   []int32
	adj   []int32
	at    []Start // at[i] starts sample i; at[Len()] is where the next one starts

	live   []arenaEdge // live edges of the sample under construction
	cursor []int32     // CSR fill scratch
	hdr    []RRGraph
	ptrs   []*RRGraph
}

// arenaEdge is one live edge recorded during sampling: positions are local
// to the open sample.
type arenaEdge struct{ head, tail int32 }

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{at: []Start{{}}} }

// Reset drops every recorded sample but keeps the backing capacity. Pools
// and slices previously returned by Pool and Finalize become invalid.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.off = a.off[:0]
	a.adj = a.adj[:0]
	a.at = append(a.at[:0], Start{})
	a.live = a.live[:0]
	a.hdr = a.hdr[:0]
	a.ptrs = a.ptrs[:0]
}

// Len returns the number of completed samples.
func (a *Arena) Len() int { return max(len(a.at)-1, 0) }

// Pool returns the completed samples as a pool over the arena's arrays; see
// the ownership contract in the type comment. It copies nothing.
func (a *Arena) Pool() Pool {
	return Pool{nodes: a.nodes, off: a.off, adj: a.adj, at: a.at}
}

// Append copies r into the arena as its next sample. r must be well
// formed, len(r.Off) == len(r.Nodes)+1, or the pool's layout would break;
// Append panics otherwise.
func (a *Arena) Append(r *RRGraph) {
	if len(r.Off) != len(r.Nodes)+1 {
		panic("influence: Append of an RR graph whose Off is not one longer than its Nodes")
	}
	if len(a.at) == 0 {
		a.at = append(a.at, Start{})
	}
	a.nodes = append(a.nodes, r.Nodes...)
	a.off = append(a.off, r.Off...)
	a.adj = append(a.adj, r.Adj...)
	a.closeSample()
}

// beginRR opens a sample rooted at src and returns the node-array base
// offset; the sampler appends nodes via pushNode and edges via pushEdge.
func (a *Arena) beginRR(src graph.NodeID) int {
	if len(a.at) == 0 {
		a.at = append(a.at, Start{})
	}
	base := len(a.nodes)
	a.nodes = append(a.nodes, src)
	a.live = a.live[:0]
	return base
}

// pushNode appends a node to the open sample, returning its local position.
func (a *Arena) pushNode(base int, u graph.NodeID) int32 {
	p := int32(len(a.nodes) - base)
	a.nodes = append(a.nodes, u)
	return p
}

// pushEdge records a live edge between local positions of the open sample.
func (a *Arena) pushEdge(head, tail int32) {
	a.live = append(a.live, arenaEdge{head, tail})
}

// endRR closes the open sample, bucketing its live edges into CSR form in
// the shared Off/Adj arrays — the same layout RRGraphFrom builds, so the
// resulting graphs are byte-identical to the allocating path.
func (a *Arena) endRR(base int) {
	n := len(a.nodes) - base
	offStart := len(a.off)
	a.off = growInt32(a.off, n+1)
	off := a.off[offStart:]
	for _, e := range a.live {
		off[e.head+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adjStart := len(a.adj)
	a.adj = growInt32(a.adj, len(a.live))
	adj := a.adj[adjStart:]
	if cap(a.cursor) < n {
		a.cursor = make([]int32, n)
	}
	cur := a.cursor[:n]
	copy(cur, off[:n])
	for _, e := range a.live {
		adj[cur[e.head]] = e.tail
		cur[e.head]++
	}
	a.closeSample()
}

// closeSample records the end of the sample just written, which is where
// the next one starts. Starts are int32, so one pool holds fewer than 2³¹
// nodes and adjacency entries.
func (a *Arena) closeSample() {
	checkPoolSize(len(a.nodes), len(a.adj))
	a.at = append(a.at, Start{Node: int32(len(a.nodes)), Adj: int32(len(a.adj))})
}

// checkPoolSize panics when a pool's node or adjacency count leaves the
// int32 range its starts address.
func checkPoolSize(nodes, adj int) {
	if nodes > math.MaxInt32 || adj > math.MaxInt32 {
		panic("influence: RR pool exceeds 2^31 nodes or edges")
	}
}

// growInt32 extends s by n zeroed elements.
func growInt32(s []int32, n int) []int32 {
	for cap(s) < len(s)+n {
		s = append(s[:cap(s)], 0)[:len(s)]
	}
	tail := s[len(s) : len(s)+n]
	clear(tail)
	return s[: len(s)+n : cap(s)]
}

// Finalize returns a header for every completed sample, each a zero-copy
// view over the arena's arrays (Pool.Sample). The slice and the RRGraphs it
// points to alias the arena; see the ownership contract in the type
// comment. It serves callers that take []*RRGraph; the engine's query
// paths read Pool instead.
func (a *Arena) Finalize() []*RRGraph {
	p := a.Pool()
	n := p.Len()
	if cap(a.hdr) < n {
		a.hdr = make([]RRGraph, 0, n)
	}
	a.hdr = a.hdr[:0]
	for i := 0; i < n; i++ {
		a.hdr = append(a.hdr, p.Sample(i))
	}
	a.ptrs = a.ptrs[:0]
	for i := range a.hdr {
		a.ptrs = append(a.ptrs, &a.hdr[i])
	}
	return a.ptrs
}

// ArenaSampler is implemented by samplers that can write samples into an
// Arena instead of allocating them; both the IC Sampler and the LTSampler
// qualify, so the engine can pool sampling buffers for either model. The
// arena variants consume randomness in exactly the same order as their
// allocating counterparts: given equal rng states the samples are
// byte-identical (locked by TestArenaSamplingByteIdentical).
type ArenaSampler interface {
	GraphSampler
	// RRGraphInto samples one RR graph from a uniform source into a.
	RRGraphInto(a *Arena)
	// RRGraphWithinInto samples one RR graph rooted at src confined to
	// member nodes into a.
	RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool)
}

var (
	_ ArenaSampler = (*Sampler)(nil)
	_ ArenaSampler = (*LTSampler)(nil)
)

// RRGraphInto samples one RR graph from a uniform source into a.
func (s *Sampler) RRGraphInto(a *Arena) {
	s.RRGraphFromInto(a, graph.NodeID(s.rng.IntN(s.g.N())))
}

// RRGraphFromInto is RRGraphFrom writing into a: same coin policy, same
// randomness order, arena-backed storage.
func (s *Sampler) RRGraphFromInto(a *Arena, src graph.NodeID) {
	s.ver++
	base := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	for qi := 0; base+qi < len(a.nodes); qi++ {
		v := a.nodes[base+qi]
		for _, u := range s.g.Neighbors(v) {
			if s.rng.Float64() >= s.model.Prob(u, v) {
				continue
			}
			if s.epoch[u] != s.ver {
				s.epoch[u] = s.ver
				s.pos[u] = a.pushNode(base, u)
			}
			a.pushEdge(int32(qi), s.pos[u])
		}
	}
	a.endRR(base)
}

// RRGraphWithinInto is RRGraphWithin writing into a.
func (s *Sampler) RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.ver++
	base := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	for qi := 0; base+qi < len(a.nodes); qi++ {
		v := a.nodes[base+qi]
		for _, u := range s.g.Neighbors(v) {
			if !member(u) {
				continue
			}
			if s.rng.Float64() >= s.model.Prob(u, v) {
				continue
			}
			if s.epoch[u] != s.ver {
				s.epoch[u] = s.ver
				s.pos[u] = a.pushNode(base, u)
			}
			a.pushEdge(int32(qi), s.pos[u])
		}
	}
	a.endRR(base)
}

// RRGraphInto samples one LT RR graph from a uniform source into a.
func (s *LTSampler) RRGraphInto(a *Arena) {
	s.rrWalkInto(a, graph.NodeID(s.rng.IntN(s.g.N())), nil)
}

// RRGraphWithinInto samples one LT RR graph rooted at src confined to
// member nodes into a.
func (s *LTSampler) RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.rrWalkInto(a, src, member)
}

// rrWalkInto is the arena form of the LT reverse walk; member == nil means
// unrestricted. Randomness order matches RRGraphFrom/RRGraphWithin exactly.
func (s *LTSampler) rrWalkInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.ver++
	base := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	cur := src
	for {
		u := s.pickInNeighbor(cur)
		if u < 0 || (member != nil && !member(u)) {
			break
		}
		if s.epoch[u] == s.ver {
			a.pushEdge(s.pos[cur], s.pos[u])
			break
		}
		s.epoch[u] = s.ver
		s.pos[u] = a.pushNode(base, u)
		a.pushEdge(s.pos[cur], s.pos[u])
		cur = u
	}
	a.endRR(base)
}
