package core

import (
	"context"
	"math"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
)

// randomAttributed builds a random connected graph with two attributes and
// returns it plus a query node carrying attribute 0.
func randomAttributed(t *testing.T, seed uint64, n int) (*graph.Graph, graph.NodeID) {
	t.Helper()
	rng := graph.NewRand(seed)
	base := graph.ErdosRenyi(n, 3*n, rng)
	b := graph.NewBuilder(n, 2)
	base.ForEachEdge(func(u, v graph.NodeID, w float64) { _ = b.AddWeightedEdge(u, v, w) })
	var q graph.NodeID = -1
	for v := 0; v < n; v++ {
		a := graph.AttrID(rng.IntN(2))
		_ = b.SetAttrs(graph.NodeID(v), a)
		if a == 0 && q < 0 {
			q = graph.NodeID(v)
		}
	}
	if q < 0 {
		q = 0
		_ = b.SetAttrs(0, 0)
	}
	return b.Build(), q
}

// The compressed evaluation over a LORE merged chain must match the
// brute-force induced-reachability reference on the same shared pool.
func TestMergedChainEvaluationMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g, q := randomAttributed(t, seed+200, 35)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := LoreCtx(context.Background(), g, tr, q, 0, 1, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		merged := MergedChain(g, tr, rec, q)
		if err := merged.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(seed+300))
		rrs := s.Batch(300)
		ref := referenceCounts(merged, rrs)
		for _, k := range []int{1, 3} {
			got := CompressedEvaluate(merged, rrs, k)
			want := referenceBest(merged, ref, k)
			if got.Level != want {
				t.Errorf("seed %d k=%d: level %d, want %d", seed, k, got.Level, want)
			}
		}
	}
}

// bruteForceScores recomputes Definition 4 from first principles: for each
// chain community C_h, sum dep(lca(u,v)) over query-attributed edges whose
// lca is an ancestor of q no shallower than C_h.
func bruteForceScores(g *graph.Graph, t *hier.Tree, q graph.NodeID, attr graph.AttrID) []float64 {
	ch := ChainFromTree(t, q)
	leafQ := t.LeafOf(q)
	scores := make([]float64, ch.Len())
	for h := 0; h < ch.Len(); h++ {
		var num float64
		g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
			if !g.HasAttr(u, attr) || !g.HasAttr(v, attr) {
				return
			}
			c := t.LCANodes(u, v)
			if !t.IsAncestor(c, leafQ) {
				return
			}
			if t.Depth(c) >= ch.Depth(h) {
				num += float64(t.Depth(c))
			}
		})
		scores[h] = num / float64(ch.Size(h))
	}
	return scores
}

func TestReclusterScoresAgainstBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g, q := randomAttributed(t, seed+400, 30)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := ReclusterScores(g, tr, q, 0)
		want := bruteForceScores(g, tr, q, 0)
		if len(got) != len(want) {
			t.Fatalf("seed %d: lengths %d vs %d", seed, len(got), len(want))
		}
		for h := range got {
			if math.Abs(got[h]-want[h]) > 1e-9 {
				t.Errorf("seed %d: r(C_%d) = %v, want %v", seed, h, got[h], want[h])
			}
		}
	}
}

// Inner chains must agree with the merged chain on the communities they
// share.
func TestInnerChainConsistentWithMerged(t *testing.T) {
	g, q := randomAttributed(t, 777, 40)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := LoreCtx(context.Background(), g, tr, q, 0, 1, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergedChain(g, tr, rec, q)
	inner := InnerChain(g, tr, rec, q)
	for h := 0; h < inner.Len(); h++ {
		if inner.Size(h) != merged.Size(h) {
			t.Errorf("size mismatch at %d: %d vs %d", h, inner.Size(h), merged.Size(h))
		}
		mi := inner.Members(h)
		mm := merged.Members(h)
		if len(mi) != len(mm) {
			t.Fatalf("member mismatch at %d", h)
		}
		for i := range mi {
			if mi[i] != mm[i] {
				t.Fatalf("member mismatch at %d", h)
			}
		}
	}
}
