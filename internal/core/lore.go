package core

import (
	"context"
	"fmt"
	"slices"

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

// LoreScratch holds the buffers that LORE and the chain builders reuse
// from one query to the next: the local clustering's workspace, the local
// predicate mask and the chain-level pass's stack. Nothing they return
// aliases it. The zero value is ready to use; a LoreScratch serves one
// query at a time.
type LoreScratch struct {
	hac   hac.Workspace
	in    []bool
	stack []hier.Vertex
}

// PredWeighted returns g_P: a copy of g whose edges between two nodes both
// satisfying the predicate mask get weight boosted by beta (w' = w·(1+beta)).
// The transformation scheme is orthogonal to the paper's contribution; this
// is the simplest synergized-weight instance. It panics when beta makes a
// weight non-positive or non-finite (a NaN or infinite beta, or a product
// that overflows); the query paths (LorePredCtx, PredTreeCtx) return that
// as an error instead.
func PredWeighted(g *graph.Graph, in []bool, beta float64) *graph.Graph {
	gw, err := predWeighted(g, in, beta)
	if err != nil {
		panic(err)
	}
	return gw
}

// predWeighted is PredWeighted reporting an unusable weight as an error.
func predWeighted(g *graph.Graph, in []bool, beta float64) (*graph.Graph, error) {
	gw, err := graph.Reweight(g, func(u, v graph.NodeID, w float64) float64 {
		if in[u] && in[v] {
			return w * (1 + beta)
		}
		return w
	})
	if err != nil {
		return nil, fmt.Errorf("core: weighting by predicate with β=%g: %w", beta, err)
	}
	return gw, nil
}

// AttributeWeighted returns g_ℓ: PredWeighted over the mask of attr.
func AttributeWeighted(g *graph.Graph, attr graph.AttrID, beta float64) *graph.Graph {
	return PredWeighted(g, AttrMask(make([]bool, g.N()), g, attr), beta)
}

// PredTreeCtx is CODR's global recluster: the hierarchy of g_P, clustered
// in s's workspace. A weight beta makes unusable is an error.
func (s *LoreScratch) PredTreeCtx(ctx context.Context, g *graph.Graph, in []bool, beta float64, linkage hac.Linkage) (*hier.Tree, error) {
	gw, err := predWeighted(g, in, beta)
	if err != nil {
		return nil, err
	}
	return s.hac.ClusterCtx(ctx, gw, linkage)
}

// ReclusterScoresPred computes r(C_h) for every community in H(q) (Definition
// 4 via Eq. 3) in O(|E_g|) time: one pass over the edges whose endpoints
// both satisfy the predicate mask, plus a prefix sweep over the chain.
// Returned scores align with ChainFromTree(t,q); best is the argmax over
// h >= 1 (Algorithm 2 starts at i = 1), with ties resolved toward the
// deepest community. When no predicate-satisfying edge touches the chain,
// best defaults to min(1, L-1).
func ReclusterScoresPred(g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool) (scores []float64, best int) {
	return reclusterScores(g, t, ChainFromTree(t, q), in)
}

// reclusterScores is ReclusterScoresPred over q's chain ch in t. An edge
// counts at the chain level of its endpoints' LCA when that LCA contains q
// (Alg. 2 line 10). Endpoints at different levels h < h' meet exactly at
// C_h', which contains q; only endpoints at one level h need an LCA, to
// tell whether they meet at C_h or below it, off the chain.
func reclusterScores(g *graph.Graph, t *hier.Tree, ch *Chain, in []bool) (scores []float64, best int) {
	L := ch.Len()
	delta := make([]int64, L)
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		if !in[u] {
			continue
		}
		lu := ch.level[u]
		for _, v := range g.Neighbors(u) {
			if v <= u || !in[v] {
				continue
			}
			switch lv := ch.level[v]; {
			case lu != lv:
				delta[max(lu, lv)]++
			case t.LCANodes(u, v) == ch.vertices[lu]:
				delta[lu]++
			}
		}
	}
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
// clustering. A weight beta makes non-positive or non-finite is an error.
func LorePredCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool, beta float64, linkage hac.Linkage) (*Reclustering, error) {
	return new(LoreScratch).LorePredCtx(ctx, g, t, q, in, beta, linkage)
}

// LorePredCtx is the package-level LorePredCtx using s's buffers; q's
// chain in t is built once, for the scores and for C_ℓ.
func (s *LoreScratch) LorePredCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, q graph.NodeID, in []bool, beta float64, linkage hac.Linkage) (*Reclustering, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lore canceled before scoring: %w", err)
	}
	score := obs.FromContext(ctx).StartSpan(obs.StageLoreScore)
	ch := s.ChainFromTree(t, q)
	scores, best := reclusterScores(g, t, ch, in)
	score.EndItems(len(scores))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: lore canceled before reclustering: %w", err)
	}
	cl := ch.Vertex(best)
	sub := graph.Induce(g, t.Members(cl))
	s.in = slices.Grow(s.in[:0], len(sub.ToParent))
	for _, pu := range sub.ToParent {
		s.in = append(s.in, in[pu])
	}
	weighted, err := predWeighted(sub.G, s.in, beta)
	if err != nil {
		return nil, err
	}
	local, err := s.hac.ClusterCtx(ctx, weighted, linkage)
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
	return new(LoreScratch).MergedChain(g, t, rec, q)
}

// MergedChain is the package-level MergedChain using s's buffers.
func (s *LoreScratch) MergedChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	inner := innerVertices(rec, q)
	outer := t.Ancestors(rec.CL)
	L := len(inner) + len(outer)
	chain := &Chain{
		q:     q,
		level: make([]int32, g.N()),
		sizes: make([]int, L),
		depks: make([]int, L),
	}
	innerSizes(t, rec, inner, chain.sizes, chain.depks)
	for j, v := range outer {
		chain.sizes[len(inner)+j] = t.Size(v)
		chain.depks[len(inner)+j] = t.Depth(v)
	}
	s.innerLevels(rec, q, inner, chain.level)
	// Nodes outside C_ℓ: their smallest shared community is an ancestor of
	// C_ℓ.
	s.hangLevels(t, rec.CL, outer, int32(len(inner)), chain.level, nil)
	return chain
}

// InnerChain returns only the reclustered part H_ℓ(q|C_ℓ): the ancestors of
// q within the local hierarchy, with levels over the full graph's node ids
// (nodes outside C_ℓ get level = Len(), i.e. outside every community).
func InnerChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	return new(LoreScratch).InnerChain(g, t, rec, q)
}

// InnerChain is the package-level InnerChain using s's buffers; it visits
// only C_ℓ's local hierarchy.
func (s *LoreScratch) InnerChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	inner := innerVertices(rec, q)
	L := len(inner)
	chain := &Chain{
		q:     q,
		level: make([]int32, g.N()),
		sizes: make([]int, L),
		depks: make([]int, L),
	}
	innerSizes(t, rec, inner, chain.sizes, chain.depks)
	for u := range chain.level {
		chain.level[u] = int32(L)
	}
	s.innerLevels(rec, q, inner, chain.level)
	return chain
}

// innerVertices returns q's ancestors in the local hierarchy, deepest first
// and ending at its root, C_ℓ; when C_ℓ is q alone, the root leaf stands
// in as the only inner community. It panics when q is outside C_ℓ.
func innerVertices(rec *Reclustering, q graph.NodeID) []hier.Vertex {
	localQ := rec.Sub.Local(q)
	if localQ < 0 {
		panic(fmt.Sprintf("core: query node %d not inside C_ℓ", q))
	}
	inner := rec.Local.Ancestors(rec.Local.LeafOf(localQ))
	if len(inner) == 0 {
		inner = []hier.Vertex{rec.Local.Root()}
	}
	return inner
}

// innerSizes fills the inner levels' sizes and depths. The reclustered
// communities sit below C_ℓ, so inner[i] gets the depth dep(C_ℓ) +
// (distance above the splice point); these values are only diagnostic
// after reclustering but stay strictly monotone.
func innerSizes(t *hier.Tree, rec *Reclustering, inner []hier.Vertex, sizes, depks []int) {
	clDepth := t.Depth(rec.CL)
	for i, v := range inner {
		sizes[i] = rec.Local.Size(v)
		depks[i] = clDepth + (len(inner) - 1 - i)
	}
}

// innerLevels writes the inner chain level of every member of C_ℓ into
// level, by global node id: q gets 0, and every other member the index
// of its smallest local community shared with q (inner is from
// innerVertices).
func (s *LoreScratch) innerLevels(rec *Reclustering, q graph.NodeID, inner []hier.Vertex, level []int32) {
	if leafQ := rec.Local.LeafOf(rec.Sub.Local(q)); inner[0] != leafQ {
		s.hangLevels(rec.Local, leafQ, inner, 0, level, rec.Sub.ToParent)
	}
	level[q] = 0
}
