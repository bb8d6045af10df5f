package core

import (
	"math/rand/v2"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

// IndependentEvaluate is the naïve baseline of §V-C: every community in the
// chain is evaluated from scratch with its own pool of θ·|C| RR sets sampled
// within the community, so the total sampling cost grows with
// Σ_{C∈H(q)} |C| instead of being shared. It returns the same EvalResult
// shape as CompressedEvaluatePoolCtx; Buckets reports the total RR-set node
// count.
//
// budget, when positive, caps the total number of RR sets across all
// communities; if the cap is hit the evaluation stops early and returns the
// best level found so far with Truncated untouched communities (the caller
// can detect this via the second return value being false).
func IndependentEvaluate(g *graph.Graph, model influence.Model, ch *Chain, k, theta int, rng *rand.Rand, budget int) (EvalResult, bool) {
	s := influence.NewSampler(g, model, rng)
	res := EvalResult{Level: -1}
	spent := 0
	for h := 0; h < ch.Len(); h++ {
		members := ch.Members(h)
		nSets := theta * len(members)
		if budget > 0 && spent+nSets > budget {
			return res, false
		}
		spent += nSets
		member := func(u graph.NodeID) bool { return ch.Contains(u, h) }
		counts := make(map[graph.NodeID]int, len(members))
		for i := 0; i < nSets; i++ {
			src := members[rng.IntN(len(members))]
			set := s.RRSetWithin(src, member)
			for _, v := range set {
				counts[v]++
			}
			res.Buckets += len(set)
		}
		if rankOf(counts, ch.q) < k {
			res.Level = h
			res.QCount = counts[ch.q]
		}
	}
	return res, true
}

// rankOf returns the number of nodes ranked ahead of q under the canonical
// influence order: count descending, ties broken by smaller node ID. The
// tie-break keeps ranks stable across runs (and map iteration orders) and
// matches the ordering used by HIMOR construction and the top-k sweep.
func rankOf(counts map[graph.NodeID]int, q graph.NodeID) int {
	cq := counts[q]
	ahead := 0
	for v, c := range counts {
		if v != q && (c > cq || (c == cq && v < q)) {
			ahead++
		}
	}
	return ahead
}

// ExactRankWithin estimates rank_C(q) with a dedicated pool of RR sets per
// node count (the paper's ground-truth procedure for top-k precision uses
// 1000 RR sets per community node). It returns the number of community
// members with a strictly larger estimated influence than q.
func ExactRankWithin(g *graph.Graph, model influence.Model, members []graph.NodeID, q graph.NodeID, setsPerNode int, rng *rand.Rand) int {
	s := influence.NewSampler(g, model, rng)
	in := make(map[graph.NodeID]bool, len(members))
	for _, v := range members {
		in[v] = true
	}
	member := func(u graph.NodeID) bool { return in[u] }
	counts := make(map[graph.NodeID]int, len(members))
	total := setsPerNode * len(members)
	for i := 0; i < total; i++ {
		src := members[rng.IntN(len(members))]
		for _, v := range s.RRSetWithin(src, member) {
			counts[v]++
		}
	}
	return rankOf(counts, q)
}
