package core

import (
	"context"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
)

// referenceHimorRank recomputes rank_C(q) from the same RR graph pool by
// brute-force induced reachability (Theorem 2), the quantity HIMOR's
// compressed construction must reproduce.
func referenceHimorRank(t *hier.Tree, rrs []*influence.RRGraph, q graph.NodeID, v hier.Vertex) int {
	members := t.Members(v)
	in := map[graph.NodeID]bool{}
	for _, m := range members {
		in[m] = true
	}
	counts := map[graph.NodeID]int{}
	for _, r := range rrs {
		reach := r.ReachableWithin(func(u graph.NodeID) bool { return in[u] })
		for i, ok := range reach {
			if ok {
				counts[r.Nodes[i]]++
			}
		}
	}
	cq := counts[q]
	ahead := 0
	for u, c := range counts {
		if u != q && (c > cq || (c == cq && u < q)) {
			ahead++
		}
	}
	return ahead
}

func TestHimorMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		g := graph.ErdosRenyi(35, 100, graph.NewRand(seed+50))
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		model := influence.NewWeightedCascade(g)
		theta := 8
		idx := BuildHimor(g, tr, model, theta, graph.NewRand(seed+60))

		// Regenerate the identical RR pool (same seed, same consumption
		// order) for the reference computation.
		s := influence.NewSampler(g, model, graph.NewRand(seed+60))
		rrs := s.Batch(theta * g.N())

		for _, q := range []graph.NodeID{0, 7, 19, 34} {
			for _, v := range tr.Ancestors(tr.LeafOf(q)) {
				got := idx.Rank(q, v)
				want := referenceHimorRank(tr, rrs, q, v)
				if got != want {
					t.Errorf("seed=%d q=%d vertex=%d (size %d): rank=%d want %d",
						seed, q, v, tr.Size(v), got, want)
				}
			}
		}
	}
}

func TestHimorRootRanksEveryNode(t *testing.T) {
	g := graph.BarabasiAlbert(40, 2, graph.NewRand(70))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildHimor(g, tr, influence.NewWeightedCascade(g), 10, graph.NewRand(71))
	root := tr.Root()
	// Ranks at the root are a permutation-with-ties: all in [0, n).
	for q := graph.NodeID(0); q < 40; q++ {
		r := idx.Rank(q, root)
		if r < 0 || r >= 40 {
			t.Errorf("rank_root(%d) = %d out of range", q, r)
		}
	}
	// In a BA graph node 0 (oldest, hub) should rank near the top globally.
	if r := idx.Rank(0, root); r > 8 {
		t.Errorf("hub rank at root = %d, expected near 0", r)
	}
}

func TestHimorAccessors(t *testing.T) {
	g := graph.ErdosRenyi(20, 50, graph.NewRand(72))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildHimor(g, tr, influence.NewWeightedCascade(g), 5, graph.NewRand(73))
	if idx.Theta() != 5 {
		t.Errorf("Theta = %d", idx.Theta())
	}
	if idx.Tree() != tr {
		t.Error("Tree accessor broken")
	}
	if idx.ApproxBytes() <= 0 {
		t.Error("ApproxBytes must be positive")
	}
}

func TestHimorZeroCountNodeRank(t *testing.T) {
	// A node that never appears in any RR graph within a community gets rank
	// = nnz (every counted node beats it). With theta=0 there are no samples
	// at all, so every rank must be 0 (ties) -> top-k for any k >= 1.
	g := graph.ErdosRenyi(15, 40, graph.NewRand(74))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildHimor(g, tr, influence.NewWeightedCascade(g), 0, graph.NewRand(75))
	for q := graph.NodeID(0); q < 15; q++ {
		for _, v := range tr.Ancestors(tr.LeafOf(q)) {
			if r := idx.Rank(q, v); r != 0 {
				t.Errorf("rank with no samples = %d, want 0", r)
			}
		}
	}
}

func TestHimorParallelMatchesPool(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, graph.NewRand(90))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	model := influence.NewWeightedCascade(g)
	idx, err := BuildHimorParallelCtx(context.Background(), g, tr, model, 4, 91, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Reference from the identical pool, consumed in the same order.
	pool := influence.ParallelBatch(g, model, 4*g.N(), 91, 4)
	i := 0
	ref := buildHimor(g, tr, 4, func() *influence.RRGraph { r := pool[i]; i++; return r })
	for q := graph.NodeID(0); int(q) < g.N(); q++ {
		for _, v := range tr.Ancestors(tr.LeafOf(q)) {
			if idx.Rank(q, v) != ref.Rank(q, v) {
				t.Fatalf("parallel rank differs at q=%d v=%d", q, v)
			}
		}
	}
	if idx.ApproxBytes() != ref.ApproxBytes() {
		t.Error("sizes differ")
	}
}
