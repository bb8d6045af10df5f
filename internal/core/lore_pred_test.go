package core

import (
	"context"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
)

// The single-attribute scorer, edge reweighting and LORE driver as they
// stood before lowering onto the mask form, kept verbatim as the reference
// the mask form (and the one-line single-attribute lowerings) must
// reproduce exactly.

func legacyAttributeWeighted(g *graph.Graph, attr graph.AttrID, beta float64) *graph.Graph {
	gw, err := graph.Reweight(g, func(u, v graph.NodeID, w float64) float64 {
		if g.HasAttr(u, attr) && g.HasAttr(v, attr) {
			return w * (1 + beta)
		}
		return w
	})
	if err != nil {
		panic(err)
	}
	return gw
}

func legacyReclusterScores(g *graph.Graph, t *hier.Tree, q graph.NodeID, attr graph.AttrID) (scores []float64, best int) {
	ch := ChainFromTree(t, q)
	L := ch.Len()
	delta := make([]int64, L)
	leafQ := t.LeafOf(q)
	topDepth := ch.Depth(0)
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if !g.HasAttr(u, attr) || !g.HasAttr(v, attr) {
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

func legacyLore(g *graph.Graph, t *hier.Tree, q graph.NodeID, attr graph.AttrID, beta float64, linkage hac.Linkage) (*Reclustering, error) {
	scores, best := legacyReclusterScores(g, t, q, attr)
	ch := ChainFromTree(t, q)
	cl := ch.Vertex(best)
	sub := graph.Induce(g, t.Members(cl))
	weighted := legacyAttributeWeighted(sub.G, attr, beta)
	local, err := hac.ClusterCtx(context.Background(), weighted, linkage)
	if err != nil {
		return nil, err
	}
	return &Reclustering{CL: cl, ChainIndex: best, Scores: scores, Sub: sub, Local: local}, nil
}

func attrMask(g *graph.Graph, attr graph.AttrID) []bool {
	return AttrMask(make([]bool, g.N()), g, attr)
}

// legacyCase is one graph the mask form is compared on.
type legacyCase struct {
	g  *graph.Graph
	tr *hier.Tree
	q  graph.NodeID
}

// legacyCases are the paper's worked example plus random attributed graphs.
func legacyCases(t *testing.T) []legacyCase {
	t.Helper()
	cases := []legacyCase{{fig5Graph(t), fig2Tree(t), 0}}
	for seed := uint64(0); seed < 3; seed++ {
		g, q := randomAttributed(t, seed+500, 40)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, legacyCase{g, tr, q})
	}
	return cases
}

func sameWeights(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	for v := graph.NodeID(0); int(v) < got.N(); v++ {
		ns, ws := got.Neighbors(v), got.Weights(v)
		wns, wws := want.Neighbors(v), want.Weights(v)
		if len(ns) != len(wns) {
			t.Fatalf("adjacency differs at %d", v)
		}
		for i := range ns {
			if ns[i] != wns[i] {
				t.Fatalf("neighbor order differs at %d", v)
			}
			w1, w2 := 1.0, 1.0
			if ws != nil {
				w1 = ws[i]
			}
			if wws != nil {
				w2 = wws[i]
			}
			if w1 != w2 {
				t.Fatalf("weight differs at (%d,%d): %g vs %g", v, ns[i], w1, w2)
			}
		}
	}
}

func TestPredWeightedMatchesAttributeWeighted(t *testing.T) {
	for _, c := range legacyCases(t) {
		for attr := graph.AttrID(0); attr < 2; attr++ {
			want := legacyAttributeWeighted(c.g, attr, 1)
			sameWeights(t, PredWeighted(c.g, attrMask(c.g, attr), 1), want)
			sameWeights(t, AttributeWeighted(c.g, attr, 1), want)
		}
	}
}

func TestReclusterScoresPredMatchesLegacy(t *testing.T) {
	for ci, c := range legacyCases(t) {
		for attr := graph.AttrID(0); attr < 2; attr++ {
			wantScores, wantBest := legacyReclusterScores(c.g, c.tr, c.q, attr)
			gotScores, gotBest := ReclusterScoresPred(c.g, c.tr, c.q, attrMask(c.g, attr))
			lowScores, lowBest := ReclusterScores(c.g, c.tr, c.q, attr)
			if gotBest != wantBest || lowBest != wantBest {
				t.Fatalf("case %d attr %d: best = %d (pred) / %d (attr), want %d", ci, attr, gotBest, lowBest, wantBest)
			}
			for i := range wantScores {
				if gotScores[i] != wantScores[i] || lowScores[i] != wantScores[i] {
					t.Fatalf("case %d attr %d: score %d = %v (pred) / %v (attr), want %v",
						ci, attr, i, gotScores[i], lowScores[i], wantScores[i])
				}
			}
		}
	}
}

func TestLorePredMatchesLegacy(t *testing.T) {
	for ci, c := range legacyCases(t) {
		want, err := legacyLore(c.g, c.tr, c.q, 0, 1, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoreCtx(context.Background(), c.g, c.tr, c.q, 0, 1, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		if got.CL != want.CL || got.ChainIndex != want.ChainIndex {
			t.Fatalf("case %d: C_ℓ = (%d,%d), want (%d,%d)", ci, got.CL, got.ChainIndex, want.CL, want.ChainIndex)
		}
		wm, gm := MergedChain(c.g, c.tr, want, c.q), MergedChain(c.g, c.tr, got, c.q)
		if wm.Len() != gm.Len() {
			t.Fatalf("case %d: merged chain length %d, want %d", ci, gm.Len(), wm.Len())
		}
		for u := 0; u < c.g.N(); u++ {
			if wm.Level(graph.NodeID(u)) != gm.Level(graph.NodeID(u)) {
				t.Fatalf("case %d: level of node %d differs: %d vs %d",
					ci, u, gm.Level(graph.NodeID(u)), wm.Level(graph.NodeID(u)))
			}
		}
	}
}

func TestLorePredCompoundMask(t *testing.T) {
	// A disjunctive mask (attr 0 OR attr 1 covers every node of fig5Graph)
	// boosts every edge, so scores count all chain-incident edges.
	g := fig5Graph(t)
	tr := fig2Tree(t)
	in := make([]bool, g.N())
	for v := range in {
		in[v] = true
	}
	scores, best := ReclusterScoresPred(g, tr, 0, in)
	only0, _ := ReclusterScoresPred(g, tr, 0, attrMask(g, 0))
	if best < 1 {
		t.Fatalf("best = %d", best)
	}
	ge := false
	for i := range scores {
		if scores[i] < only0[i] {
			t.Fatalf("all-true mask score %d (%v) below single-attr score (%v)", i, scores[i], only0[i])
		}
		if scores[i] > only0[i] {
			ge = true
		}
	}
	if !ge {
		t.Fatal("widening the mask never increased any score")
	}

	gw := PredWeighted(g, in, 1)
	if w := gw.EdgeWeight(0, 1); w != 2 {
		t.Fatalf("compound-mask edge weight = %g, want 2", w)
	}
}
