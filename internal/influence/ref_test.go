package influence

import "github.com/codsearch/cod/internal/graph"

// The allocating RR-graph samplers as they stood before the arena samplers
// replaced them, kept as the reference TestArenaSamplerByteIdentical holds
// the arena samplers to: one fresh RRGraph per sample, its live edges
// collected in discovery order and bucketed into CSR by head position once
// the walk ends. Each wraps a production sampler for its graph, model, rng
// and visited marks, so a reference and an arena sampler built from equal
// rng states flip the same coins.

// refSampler is the allocating IC sampler.
type refSampler struct{ *Sampler }

// RRGraph samples one RR graph from a uniform source.
func (s refSampler) RRGraph() *RRGraph {
	return s.walk(graph.NodeID(s.rng.IntN(s.g.N())), nil)
}

// RRGraphWithin samples one RR graph rooted at src confined to member
// nodes.
func (s refSampler) RRGraphWithin(src graph.NodeID, member func(graph.NodeID) bool) *RRGraph {
	return s.walk(src, member)
}

// walk is the IC reverse BFS from src; member == nil means unrestricted.
// Every in-edge (u, v) of every visited v gets an independent liveness coin
// with probability p(u, v); live edges are recorded even when u was already
// visited.
func (s refSampler) walk(src graph.NodeID, member func(graph.NodeID) bool) *RRGraph {
	s.ver++
	r := &RRGraph{Nodes: []graph.NodeID{src}}
	s.pos[src] = 0
	s.epoch[src] = s.ver
	var live []liveEdge
	for qi := 0; qi < len(r.Nodes); qi++ {
		v := r.Nodes[qi]
		for _, u := range s.g.Neighbors(v) {
			if member != nil && !member(u) {
				continue
			}
			if s.rng.Float64() >= s.model.Prob(u, v) {
				continue
			}
			if s.epoch[u] != s.ver {
				s.epoch[u] = s.ver
				s.pos[u] = int32(len(r.Nodes))
				r.Nodes = append(r.Nodes, u)
			}
			live = append(live, liveEdge{int32(qi), s.pos[u]})
		}
	}
	bucket(r, live)
	return r
}

// Batch samples count RR graphs.
func (s refSampler) Batch(count int) []*RRGraph {
	out := make([]*RRGraph, count)
	for i := range out {
		out[i] = s.RRGraph()
	}
	return out
}

// refLTSampler is the allocating LT sampler.
type refLTSampler struct{ *LTSampler }

// RRGraph samples one LT RR graph from a uniform random source.
func (s refLTSampler) RRGraph() *RRGraph {
	return s.walk(graph.NodeID(s.rng.IntN(s.g.N())), nil)
}

// RRGraphWithin samples the LT RR graph rooted at src confined to member
// nodes: the walk stops as soon as the chosen tail leaves the restriction.
func (s refLTSampler) RRGraphWithin(src graph.NodeID, member func(graph.NodeID) bool) *RRGraph {
	return s.walk(src, member)
}

// walk is the LT reverse walk from src along each node's single live
// in-edge, stopped at the first revisit; member == nil means unrestricted.
func (s refLTSampler) walk(src graph.NodeID, member func(graph.NodeID) bool) *RRGraph {
	s.ver++
	r := &RRGraph{Nodes: []graph.NodeID{src}}
	s.pos[src] = 0
	s.epoch[src] = s.ver
	var live []liveEdge
	cur := src
	for {
		u := s.pickInNeighbor(cur)
		if u < 0 || (member != nil && !member(u)) {
			break
		}
		if s.epoch[u] == s.ver {
			// cycle: record the closing edge, the walk cannot grow further
			live = append(live, liveEdge{s.pos[cur], s.pos[u]})
			break
		}
		s.epoch[u] = s.ver
		s.pos[u] = int32(len(r.Nodes))
		live = append(live, liveEdge{s.pos[cur], s.pos[u]})
		r.Nodes = append(r.Nodes, u)
		cur = u
	}
	bucket(r, live)
	return r
}

// liveEdge is one live edge of a sample being built: the positions of its
// head and its tail.
type liveEdge struct{ headPos, tail int32 }

// bucket fills r's CSR arrays from its live edges, grouped by head
// position in discovery order.
func bucket(r *RRGraph, live []liveEdge) {
	r.Off = make([]int32, len(r.Nodes)+1)
	for _, e := range live {
		r.Off[e.headPos+1]++
	}
	for i := 1; i <= len(r.Nodes); i++ {
		r.Off[i] += r.Off[i-1]
	}
	r.Adj = make([]int32, len(live))
	cursor := make([]int32, len(r.Nodes))
	copy(cursor, r.Off[:len(r.Nodes)])
	for _, e := range live {
		r.Adj[cursor[e.headPos]] = e.tail
		cursor[e.headPos]++
	}
}
