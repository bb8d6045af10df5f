package influence

import (
	"math/rand/v2"

	"github.com/codsearch/cod/internal/graph"
)

// RRGraph is the paper's Definition 2: the nodes of an RR set together with
// the edges activated while generating it, rooted at the uniformly sampled
// source. Crucially for Theorem 2 (induced RR graphs), generation flips a
// coin for *every* in-edge of every visited node — not only edges that
// discover new nodes — so that reachability restricted to any community C
// is faithful to the underlying possible world.
//
// Adjacency is positional: node i's RR-neighbors (the tails u of live edges
// u->node[i]) are Adj[Off[i]:Off[i+1]], stored as indices into Nodes.
type RRGraph struct {
	// Nodes lists the member graph nodes; Nodes[0] is the source.
	Nodes []graph.NodeID
	// Off and Adj encode, per position i, the positions of nodes reachable
	// one reverse-step from Nodes[i] via live edges.
	Off []int32
	Adj []int32
}

// Source returns the sampled source node of the RR graph.
func (r *RRGraph) Source() graph.NodeID { return r.Nodes[0] }

// Len returns the number of nodes in the RR graph.
func (r *RRGraph) Len() int { return len(r.Nodes) }

// NumEdges returns the number of live edges recorded in the RR graph.
func (r *RRGraph) NumEdges() int { return len(r.Adj) }

// GraphSampler is the sampling interface the COD pipelines depend on; both
// the IC Sampler and the LTSampler implement it, which is how the framework
// supports multiple influence models (§II, "Influence Models").
type GraphSampler interface {
	// RRGraph samples one RR graph from a uniform random source.
	RRGraph() *RRGraph
	// RRGraphFrom samples one RR graph rooted at src.
	RRGraphFrom(src graph.NodeID) *RRGraph
	// RRGraphWithin samples one RR graph rooted at src with propagation
	// confined to member nodes (original probabilities).
	RRGraphWithin(src graph.NodeID, member func(graph.NodeID) bool) *RRGraph
	// Batch samples count RR graphs from uniform random sources.
	Batch(count int) []*RRGraph
}

// Sampler generates RR sets and RR graphs for one (graph, model) pair. It is
// not safe for concurrent use; create one Sampler per goroutine, each with
// its own rng.
type Sampler struct {
	g     *graph.Graph
	model Model
	rng   *rand.Rand
	// wc is the graph of a weighted-cascade model, whose p(u, v) = 1/deg(v)
	// depends only on the head, so the arena samplers read it once per
	// visited node; nil for any other model, asked per edge.
	wc *graph.Graph

	// scratch, reused across samples
	pos   []int32 // node -> position in current sample, -1 when absent
	epoch []int32 // versioned visited marks to avoid clearing pos
	ver   int32
}

// NewSampler returns a Sampler over g under model, driven by rng.
func NewSampler(g *graph.Graph, model Model, rng *rand.Rand) *Sampler {
	s := &Sampler{g: g, model: model, rng: rng}
	if wc, ok := model.(WeightedCascade); ok {
		s.wc = wc.g
	}
	s.pos = make([]int32, g.N())
	s.epoch = make([]int32, g.N())
	return s
}

// headProb returns p(u, v) for every in-edge of v under a weighted-cascade
// model, computed exactly as WeightedCascade.Prob computes it; other models
// get 0 and are asked per edge.
func (s *Sampler) headProb(v graph.NodeID) float64 {
	if s.wc == nil {
		return 0
	}
	return 1 / float64(s.wc.Degree(v))
}

// SetRand rebinds the sampler to rng. A pooled sampler keeps its per-graph
// visited marks and serves successive queries that each carry their own
// deterministic stream.
func (s *Sampler) SetRand(rng *rand.Rand) { s.rng = rng }

// RRSet samples one RR set: the source plus every node that reverse-reaches
// it through live edges. The result is a fresh slice with the source first.
func (s *Sampler) RRSet() []graph.NodeID {
	src := graph.NodeID(s.rng.IntN(s.g.N()))
	return s.RRSetFrom(src)
}

// RRSetFrom samples an RR set rooted at the given source.
func (s *Sampler) RRSetFrom(src graph.NodeID) []graph.NodeID {
	s.ver++
	nodes := []graph.NodeID{src}
	s.epoch[src] = s.ver
	for qi := 0; qi < len(nodes); qi++ {
		v := nodes[qi]
		for _, u := range s.g.Neighbors(v) {
			if s.epoch[u] == s.ver {
				continue
			}
			if s.rng.Float64() < s.model.Prob(u, v) {
				s.epoch[u] = s.ver
				nodes = append(nodes, u)
			}
		}
	}
	return nodes
}

// RRGraph samples one RR graph from a uniform source.
func (s *Sampler) RRGraph() *RRGraph {
	return s.RRGraphFrom(graph.NodeID(s.rng.IntN(s.g.N())))
}

// RRGraphFrom samples one RR graph rooted at src. Every in-edge (u, v) of
// every visited v gets an independent liveness coin with probability
// p(u, v); live edges are recorded even when u was already visited.
func (s *Sampler) RRGraphFrom(src graph.NodeID) *RRGraph {
	s.ver++
	r := &RRGraph{Nodes: []graph.NodeID{src}}
	s.pos[src] = 0
	s.epoch[src] = s.ver

	type liveEdge struct{ headPos, tail int32 }
	var live []liveEdge
	for qi := 0; qi < len(r.Nodes); qi++ {
		v := r.Nodes[qi]
		for _, u := range s.g.Neighbors(v) {
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
	// Bucket live edges by head position into CSR form.
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
	return r
}

// Batch samples count RR graphs.
func (s *Sampler) Batch(count int) []*RRGraph {
	out := make([]*RRGraph, count)
	for i := range out {
		out[i] = s.RRGraph()
	}
	return out
}

// EstimateAll counts, for every node, the number of RR graphs containing a
// node reachable... more precisely: the number of RR graphs in which the
// node reverse-reaches the source through live edges (equivalently, appears
// in the RR graph at all, since membership implies reachability on the full
// graph). Influence estimates follow Theorem 1: σ(v) ≈ count[v]/Θ · |V|.
func EstimateAll(g *graph.Graph, rrs []*RRGraph) []int {
	counts := make([]int, g.N())
	for _, r := range rrs {
		for _, v := range r.Nodes {
			counts[v]++
		}
	}
	return counts
}

// InfluenceFromCount converts an RR occurrence count into an influence
// estimate on a graph (or community) with n nodes and theta samples.
func InfluenceFromCount(count, theta, n int) float64 {
	if theta == 0 {
		return 0
	}
	return float64(count) / float64(theta) * float64(n)
}

// ReachableWithin computes which positions of r are reachable from the
// source using only nodes for which keep reports true (the induced RR graph
// R(C) of Definition 3). The source itself must satisfy keep, otherwise the
// result is empty. The returned slice is indexed by position.
func (r *RRGraph) ReachableWithin(keep func(node graph.NodeID) bool) []bool {
	reach := make([]bool, len(r.Nodes))
	if len(r.Nodes) == 0 || !keep(r.Nodes[0]) {
		return reach
	}
	reach[0] = true
	queue := []int32{0}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, t := range r.Adj[r.Off[p]:r.Off[p+1]] {
			if !reach[t] && keep(r.Nodes[t]) {
				reach[t] = true
				queue = append(queue, t)
			}
		}
	}
	return reach
}
