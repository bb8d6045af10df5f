package influence

import "github.com/codsearch/cod/internal/graph"

// Restricted sampling: RR sets (here) and RR graphs (RRGraphWithinInto) of
// the IC process confined to a community C, keeping the *original* edge probabilities of the full graph
// (the paper's σ_C(v) restricts propagation to C but does not re-normalize
// p(u,v); Theorem 2's induced RR graphs rely on exactly this semantics).

// RRSetWithin samples an RR set rooted at src where propagation may only
// traverse nodes for which member reports true. src must be a member.
func (s *Sampler) RRSetWithin(src graph.NodeID, member func(graph.NodeID) bool) []graph.NodeID {
	s.ver++
	nodes := []graph.NodeID{src}
	s.epoch[src] = s.ver
	for qi := 0; qi < len(nodes); qi++ {
		v := nodes[qi]
		for _, u := range s.g.Neighbors(v) {
			if s.epoch[u] == s.ver || !member(u) {
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

// SpreadWithin runs one forward IC simulation from seed confined to member
// nodes, with original probabilities, returning the activated count.
func SpreadWithin(g *graph.Graph, model Model, seed graph.NodeID, member func(graph.NodeID) bool, rng interface{ Float64() float64 }) int {
	active := make(map[graph.NodeID]bool, 16)
	active[seed] = true
	frontier := []graph.NodeID{seed}
	count := 1
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if active[v] || !member(v) {
					continue
				}
				if rng.Float64() < model.Prob(u, v) {
					active[v] = true
					count++
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return count
}
