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

	hdr  []RRGraph
	ptrs []*RRGraph
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{at: []Start{{}}} }

// Reset drops every recorded sample but keeps the backing capacity. Pools
// and slices previously returned by Pool and Finalize become invalid.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.off = a.off[:0]
	a.adj = a.adj[:0]
	a.at = append(a.at[:0], Start{})
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

// beginRR opens a sample rooted at src and returns its node base (local
// positions count from it) and adjacency base. The sampler then writes the
// sample's CSR as it goes: for each position p = 0, 1, … in order it calls
// openRow and pushes p's live tails with pushTail, appending nodes with
// pushNode as it discovers them, and endRR closes the sample. Every
// sampler visits positions in discovery order and records a visited node's
// live in-edges while it is visited, so rows are written in head order and
// the layout is RRGraph's CSR: live edges bucketed by head position.
func (a *Arena) beginRR(src graph.NodeID) (base, adjBase int) {
	if len(a.at) == 0 {
		a.at = append(a.at, Start{})
	}
	base = len(a.nodes)
	a.nodes = append(a.nodes, src)
	return base, len(a.adj)
}

// pushNode appends a node to the open sample, returning its local position.
func (a *Arena) pushNode(base int, u graph.NodeID) int32 {
	p := int32(len(a.nodes) - base)
	a.nodes = append(a.nodes, u)
	return p
}

// openRow starts the next position's row of the open sample: its local
// CSR offset is the number of live tails pushed so far.
func (a *Arena) openRow(adjBase int) {
	a.off = append(a.off, int32(len(a.adj)-adjBase))
}

// pushTail records a live edge from the open row's node to the node at
// local position tail.
func (a *Arena) pushTail(tail int32) {
	a.adj = append(a.adj, tail)
}

// endRR closes the open sample with its final CSR offset.
func (a *Arena) endRR(adjBase int) {
	a.openRow(adjBase)
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

// ArenaSampler is the RR-graph sampling interface the COD pipelines depend
// on: a sampler writes each RR graph into an Arena rather than allocating
// it. The IC Sampler and the LTSampler implement it, one sampler per
// influence model (§II, "Influence Models"), so the engine pools sampling
// buffers for either. TestArenaSamplerByteIdentical locks both to the draw
// order and layout of the allocating samplers they replaced, which survive
// as its test reference.
type ArenaSampler interface {
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

// RRGraphFromInto samples one RR graph rooted at src into a. Every in-edge
// (u, v) of every visited v gets an independent liveness coin with
// probability p(u, v); live edges are recorded even when u was already
// visited.
func (s *Sampler) RRGraphFromInto(a *Arena, src graph.NodeID) {
	s.ver++
	base, adjBase := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	for qi := 0; base+qi < len(a.nodes); qi++ {
		a.openRow(adjBase)
		v := a.nodes[base+qi]
		p := s.headProb(v)
		for _, u := range s.g.Neighbors(v) {
			if s.wc == nil {
				p = s.model.Prob(u, v)
			}
			if s.rng.Float64() >= p {
				continue
			}
			if s.epoch[u] != s.ver {
				s.epoch[u] = s.ver
				s.pos[u] = a.pushNode(base, u)
			}
			a.pushTail(s.pos[u])
		}
	}
	a.endRR(adjBase)
}

// RRGraphWithinInto samples one RR graph rooted at src confined to member
// nodes into a, with RRGraphFromInto's every-in-edge coin policy so that
// induced RR graphs over sub-communities of the restriction remain
// faithful.
func (s *Sampler) RRGraphWithinInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.ver++
	base, adjBase := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	for qi := 0; base+qi < len(a.nodes); qi++ {
		a.openRow(adjBase)
		v := a.nodes[base+qi]
		p := s.headProb(v)
		for _, u := range s.g.Neighbors(v) {
			if !member(u) {
				continue
			}
			if s.wc == nil {
				p = s.model.Prob(u, v)
			}
			if s.rng.Float64() >= p {
				continue
			}
			if s.epoch[u] != s.ver {
				s.epoch[u] = s.ver
				s.pos[u] = a.pushNode(base, u)
			}
			a.pushTail(s.pos[u])
		}
	}
	a.endRR(adjBase)
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

// rrWalkInto samples the LT RR graph rooted at src into a: the reverse walk
// along each node's single live in-edge, stopped at the first revisit (whose
// closing edge it records). A non-nil member confines it: the live in-edge
// of each node is still chosen globally, since the possible world does not
// depend on the community, but the walk stops as soon as the chosen tail
// leaves the restriction, matching the induced RR graph semantics of
// Definition 3 for LT live-edge worlds. member == nil means unrestricted.
func (s *LTSampler) rrWalkInto(a *Arena, src graph.NodeID, member func(graph.NodeID) bool) {
	s.ver++
	base, adjBase := a.beginRR(src)
	s.pos[src] = 0
	s.epoch[src] = s.ver
	cur := src
	for {
		// cur is the newest node, so its row is the next one.
		a.openRow(adjBase)
		u := s.pickInNeighbor(cur)
		if u < 0 || (member != nil && !member(u)) {
			break
		}
		if s.epoch[u] == s.ver {
			a.pushTail(s.pos[u])
			break
		}
		s.epoch[u] = s.ver
		s.pos[u] = a.pushNode(base, u)
		a.pushTail(s.pos[u])
		cur = u
	}
	a.endRR(adjBase)
}
