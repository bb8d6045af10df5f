package core

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/obs"
)

// This file implements LORE (Algorithm 2): choose the community C_ℓ ∈ H(q)
// with the largest reclustering score r(C) (Definition 4, computed with the
// recursion of Eq. 3), recluster the attribute-weighted subgraph induced by
// C_ℓ, and splice the result under C_ℓ's ancestors to obtain the
// attribute-aware chain H_ℓ(q).
//
// Every attribute-driven step runs against a node membership mask in[u]
// (does u satisfy the query's predicate): a compound predicate from the
// query DSL and a single attribute (AttrMask) reduce to the same form, so
// there is one scorer, one edge reweighting and one LORE driver. The
// single-attribute entry points lower onto them in one line.

// AttrMask fills in, which must have g.N() entries, with the membership mask
// of one attribute (in[v] reports whether v carries attr) and returns it.
func AttrMask(in []bool, g *graph.Graph, attr graph.AttrID) []bool {
	for v := range in {
		in[v] = g.HasAttr(graph.NodeID(v), attr)
	}
	return in
}

// PredWeighted returns g_P: a copy of g whose edges between two nodes both
// satisfying the predicate mask get weight boosted by beta (w' = w·(1+beta)).
// The transformation scheme is orthogonal to the paper's contribution; this
// is the simplest synergized-weight instance.
func PredWeighted(g *graph.Graph, in []bool, beta float64) *graph.Graph {
	return graph.Reweight(g, func(u, v graph.NodeID, w float64) float64 {
		if in[u] && in[v] {
			return w * (1 + beta)
		}
		return w
	})
}

// AttributeWeighted returns g_ℓ: PredWeighted over the mask of attr.
func AttributeWeighted(g *graph.Graph, attr graph.AttrID, beta float64) *graph.Graph {
	return PredWeighted(g, AttrMask(make([]bool, g.N()), g, attr), beta)
}

// ReclusterScoresPred computes r(C_h) for every community in H(q) (Definition
// 4 via Eq. 3) in O(|E_g|) time: one LCA per edge whose endpoints both
// satisfy the predicate mask, plus a prefix sweep over the chain. Returned
// scores align with ChainFromTree(t,q); best is the argmax over h >= 1
// (Algorithm 2 starts at i = 1), with ties resolved toward the deepest
// community. When no predicate-satisfying edge touches the chain, best
// defaults to min(1, L-1).
func ReclusterScoresPred(g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool) (scores []float64, best int) {
	ch := ChainFromTree(t, q)
	L := ch.Len()
	delta := make([]int64, L)
	leafQ := t.LeafOf(q)
	topDepth := ch.Depth(0)
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if !in[u] || !in[v] {
			return
		}
		c := t.LCANodes(u, v)
		if !t.IsAncestor(c, leafQ) {
			return // lca does not contain q (Alg. 2 line 10)
		}
		idx := topDepth - t.Depth(c)
		if idx >= 0 && idx < L {
			delta[idx]++
		}
	})
	scores = make([]float64, L)
	var num int64
	for h := 0; h < L; h++ {
		num += delta[h] * int64(ch.Depth(h))
		scores[h] = float64(num) / float64(ch.Size(h))
	}
	best = -1
	var bestScore float64
	for h := 1; h < L; h++ {
		if scores[h] > bestScore {
			bestScore = scores[h]
			best = h
		}
	}
	if best == -1 {
		best = 1
		if best >= L {
			best = L - 1
		}
	}
	return scores, best
}

// ReclusterScores is ReclusterScoresPred over the mask of attr.
func ReclusterScores(g *graph.Graph, t *hier.Tree, q graph.NodeID, attr graph.AttrID) (scores []float64, best int) {
	return ReclusterScoresPred(g, t, q, AttrMask(make([]bool, g.N()), g, attr))
}

// Reclustering is the output of LORE: the chosen community C_ℓ, the induced
// attribute-weighted subgraph, and the local hierarchy over it.
type Reclustering struct {
	// CL is the chosen community vertex in the non-attributed hierarchy.
	CL hier.Vertex
	// ChainIndex is C_ℓ's index within H(q) of the non-attributed hierarchy.
	ChainIndex int
	// Scores are the reclustering scores per chain community (diagnostics).
	Scores []float64
	// Sub is the subgraph of g_ℓ induced by C_ℓ (local node ids).
	Sub *graph.Subgraph
	// Local is the hierarchy over Sub.G produced by reclustering.
	Local *hier.Tree
}

// LorePredCtx runs Algorithm 2 against a predicate mask: pick C_ℓ by
// reclustering score over the non-attributed hierarchy t, induce C_ℓ's
// subgraph, boost the edges whose endpoints both satisfy the predicate, and
// recluster. Weighting only the induced subgraph is equivalent to inducing
// from the globally weighted g_P (edge weights depend only on endpoint
// membership) but costs O(|C_ℓ|) instead of O(|E_g|) per query. The mask is
// read, never retained. ctx is checked at every phase boundary (before
// scoring, before inducing, inside the recluster's merge loop via
// hac.ClusterCtx), so a canceled query never starts the expensive local
// clustering.
func LorePredCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool, beta float64, linkage hac.Linkage) (*Reclustering, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lore canceled before scoring: %w", err)
	}
	score := obs.FromContext(ctx).StartSpan(obs.StageLoreScore)
	scores, best := ReclusterScoresPred(g, t, q, in)
	score.EndItems(len(scores))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lore canceled before reclustering: %w", err)
	}
	ch := ChainFromTree(t, q)
	cl := ch.Vertex(best)
	sub := graph.Induce(g, t.Members(cl))
	localIn := make([]bool, len(sub.ToParent))
	for lu, pu := range sub.ToParent {
		localIn[lu] = in[pu]
	}
	weighted := PredWeighted(sub.G, localIn, beta)
	local, err := hac.ClusterCtx(ctx, weighted, linkage)
	if err != nil {
		return nil, fmt.Errorf("core: reclustering C_ℓ: %w", err)
	}
	return &Reclustering{CL: cl, ChainIndex: best, Scores: scores, Sub: sub, Local: local}, nil
}

// LoreCtx is LorePredCtx over the mask of attr.
func LoreCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, q graph.NodeID, attr graph.AttrID, beta float64, linkage hac.Linkage) (*Reclustering, error) {
	return LorePredCtx(ctx, g, t, q, AttrMask(make([]bool, g.N()), g, attr), beta, linkage)
}

// MergedChain builds H_ℓ(q): the ancestors of q inside the reclustered local
// hierarchy (deepest first, ending at C_ℓ itself) followed by the strict
// ancestors of C_ℓ in the non-attributed hierarchy. Levels are defined over
// the full graph's node ids.
func MergedChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	localQ := rec.Sub.Local(q)
	if localQ < 0 {
		panic(fmt.Sprintf("core: query node %d not inside C_ℓ", q))
	}
	inner := rec.Local.Ancestors(rec.Local.LeafOf(localQ))
	if len(inner) == 0 {
		// C_ℓ is a single node (degenerate); treat its leaf as the only
		// inner community.
		inner = []hier.Vertex{rec.Local.Root()}
	}
	outer := t.Ancestors(rec.CL)
	L := len(inner) + len(outer)
	chain := &Chain{
		q:     q,
		level: make([]int32, g.N()),
		sizes: make([]int, L),
		depks: make([]int, L),
	}
	// Depths: the reclustered communities sit below C_ℓ, so give inner[i] the
	// depth dep(C_ℓ) + (distance above the splice point); these values are
	// only diagnostic after reclustering but stay strictly monotone.
	clDepth := t.Depth(rec.CL)
	for i, v := range inner {
		chain.sizes[i] = rec.Local.Size(v)
		chain.depks[i] = clDepth + (len(inner) - 1 - i)
	}
	for j, v := range outer {
		chain.sizes[len(inner)+j] = t.Size(v)
		chain.depks[len(inner)+j] = t.Depth(v)
	}

	localLeafQ := rec.Local.LeafOf(localQ)
	localTop := 0
	if p := rec.Local.Parent(localLeafQ); p != -1 {
		localTop = rec.Local.Depth(p)
	}
	leafQ := t.LeafOf(q)
	outerTop := 0
	if len(outer) > 0 {
		outerTop = t.Depth(outer[0])
	}
	for u := 0; u < g.N(); u++ {
		node := graph.NodeID(u)
		if lu := rec.Sub.Local(node); lu >= 0 {
			if lu == localQ {
				chain.level[u] = 0
				continue
			}
			l := rec.Local.LCA(localLeafQ, rec.Local.LeafOf(lu))
			chain.level[u] = int32(localTop - rec.Local.Depth(l))
			continue
		}
		// u outside C_ℓ: its smallest shared community is an ancestor of C_ℓ.
		l := t.LCA(leafQ, t.LeafOf(node))
		chain.level[u] = int32(len(inner) + outerTop - t.Depth(l))
	}
	return chain
}

// InnerChain returns only the reclustered part H_ℓ(q|C_ℓ): the ancestors of
// q within the local hierarchy, with levels over the full graph's node ids
// (nodes outside C_ℓ get level = Len(), i.e. outside every community).
func InnerChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	merged := MergedChain(g, t, rec, q)
	localQ := rec.Sub.Local(q)
	innerLen := len(rec.Local.Ancestors(rec.Local.LeafOf(localQ)))
	if innerLen == 0 {
		innerLen = 1
	}
	chain := &Chain{
		q:     q,
		level: make([]int32, g.N()),
		sizes: merged.sizes[:innerLen:innerLen],
		depks: merged.depks[:innerLen:innerLen],
	}
	for u := range chain.level {
		if l := merged.level[u]; int(l) < innerLen {
			chain.level[u] = l
		} else {
			chain.level[u] = int32(innerLen)
		}
	}
	return chain
}
