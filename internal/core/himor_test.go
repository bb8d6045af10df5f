package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
)

// himorFrom builds the index from theta·|V| IC samples streamed from one
// sampler driven by rng.
func himorFrom(t *testing.T, g *graph.Graph, tr *hier.Tree, theta int, rng *rand.Rand) *Himor {
	t.Helper()
	idx, err := BuildHimorWithSamplerCtx(context.Background(), g, tr,
		influence.NewSampler(g, influence.NewWeightedCascade(g), rng), theta)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

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
		theta := 8
		idx := himorFrom(t, g, tr, theta, graph.NewRand(seed+60))

		// Regenerate the identical RR pool (same seed, same consumption
		// order) for the reference computation.
		s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(seed+60))
		rrs := samples(drawPool(t, s, theta*g.N()))

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
	idx := himorFrom(t, g, tr, 10, graph.NewRand(71))
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
	idx := himorFrom(t, g, tr, 5, graph.NewRand(73))
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
	idx := himorFrom(t, g, tr, 0, graph.NewRand(75))
	for q := graph.NodeID(0); q < 15; q++ {
		for _, v := range tr.Ancestors(tr.LeafOf(q)) {
			if r := idx.Rank(q, v); r != 0 {
				t.Errorf("rank with no samples = %d, want 0", r)
			}
		}
	}
}

// The parallel build samples per-worker arenas and joins them in index
// order; for every worker count its index must equal one built from the
// same per-item-seeded samples drawn one by one into a single arena, and
// so must the joined pool itself.
func TestHimorParallelMatchesPool(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, graph.NewRand(90))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	model := influence.NewWeightedCascade(g)
	src := graph.NewPCG(0)
	s := influence.NewSampler(g, model, rand.New(src))
	a := influence.NewArena()
	for i := 0; i < 4*g.N(); i++ {
		graph.SeedPCG(src, graph.ItemSeed(91, i))
		s.RRGraphInto(a)
	}
	rrs := samples(a.Pool())
	ref := buildHimor(g, tr, 4, a.Pool())
	for workers := 1; workers <= 4; workers++ {
		pool := influence.ParallelBatch(g, model, 4*g.N(), 91, workers)
		if pool.Len() != len(rrs) {
			t.Fatalf("workers=%d: joined pool has %d samples, want %d", workers, pool.Len(), len(rrs))
		}
		for i, r := range rrs {
			got := pool.Sample(i)
			if !slices.Equal(got.Nodes, r.Nodes) || !slices.Equal(got.Off, r.Off) || !slices.Equal(got.Adj, r.Adj) {
				t.Fatalf("workers=%d: joined sample %d differs from the sequential one", workers, i)
			}
		}
		idx, err := BuildHimorParallelCtx(context.Background(), g, tr, model, 4, 91, workers)
		if err != nil {
			t.Fatal(err)
		}
		for q := graph.NodeID(0); int(q) < g.N(); q++ {
			for _, v := range tr.Ancestors(tr.LeafOf(q)) {
				if idx.Rank(q, v) != ref.Rank(q, v) {
					t.Fatalf("workers=%d: parallel rank differs at q=%d v=%d", workers, q, v)
				}
			}
		}
		if idx.ApproxBytes() != ref.ApproxBytes() {
			t.Errorf("workers=%d: sizes differ", workers)
		}
	}
}

// A canceled parallel build returns the sampler's *CanceledError, with
// every worker joined before it returns.
func TestHimorParallelCanceled(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, graph.NewRand(92))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx, err := BuildHimorParallelCtx(ctx, g, tr, influence.NewWeightedCascade(g), 4, 93, 3)
	var ce *influence.CanceledError
	if idx != nil || !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build = %v, %v; want nil and a *CanceledError", idx, err)
	}
}
