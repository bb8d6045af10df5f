package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// drawPool samples count RR graphs from s into a fresh arena.
func drawPool(t testing.TB, s influence.ArenaSampler, count int) influence.Pool {
	t.Helper()
	pool, err := influence.BatchPoolCtx(context.Background(), s, count, influence.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// samples returns a header over each of pool's samples, for references that
// walk RR graphs one at a time.
func samples(pool influence.Pool) []*influence.RRGraph {
	out := make([]*influence.RRGraph, pool.Len())
	for i := range out {
		r := pool.Sample(i)
		out[i] = &r
	}
	return out
}

// evaluate runs Algorithm 1 over pool with a fresh scratch.
func evaluate(t testing.TB, ch *Chain, pool influence.Pool, k int) EvalResult {
	t.Helper()
	res, err := CompressedEvaluatePoolCtx(context.Background(), ch, pool, k, NewEvalScratch())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceCounts computes, per chain level and node, the number of RR
// graphs whose induced RR graph on C_h reaches the node — the quantity the
// compressed HFS buckets must reconstruct cumulatively (Theorem 2).
func referenceCounts(ch *Chain, pool influence.Pool) []map[graph.NodeID]int {
	out := make([]map[graph.NodeID]int, ch.Len())
	for h := range out {
		out[h] = map[graph.NodeID]int{}
		for _, r := range samples(pool) {
			reach := r.ReachableWithin(func(v graph.NodeID) bool { return ch.Contains(v, h) })
			for i, ok := range reach {
				if ok {
					out[h][r.Nodes[i]]++
				}
			}
		}
	}
	return out
}

// referenceBest finds the largest level where q is top-k under the reference
// counts and the canonical influence order (count descending, count ties by
// smaller node ID), mirroring CompressedEvaluatePoolCtx's semantics.
func referenceBest(ch *Chain, ref []map[graph.NodeID]int, k int) int {
	best := -1
	for h := range ref {
		ahead := 0
		cq := ref[h][ch.Q()]
		for v, c := range ref[h] {
			if v != ch.Q() && (c > cq || (c == cq && v < ch.Q())) {
				ahead++
			}
		}
		if ahead < k {
			best = h
		}
	}
	return best
}

func TestCompressedMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := graph.NewRand(seed)
		g := graph.ErdosRenyi(40, 110, rng)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		q := graph.NodeID(rng.IntN(40))
		ch := ChainFromTree(tr, q)
		s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(seed+100))
		pool := drawPool(t, s, 400)

		ref := referenceCounts(ch, pool)
		for _, k := range []int{1, 2, 5} {
			got := evaluate(t, ch, pool, k)
			want := referenceBest(ch, ref, k)
			if got.Level != want {
				t.Errorf("seed=%d k=%d: level = %d, want %d", seed, k, got.Level, want)
			}
		}
		// The query count must equal its reference count in the top level.
		got := evaluate(t, ch, pool, 1)
		if got.QCount != ref[ch.Len()-1][q] {
			t.Errorf("seed=%d: QCount = %d, want %d", seed, got.QCount, ref[ch.Len()-1][q])
		}
	}
}

// Cumulative bucket counts must reproduce induced reachability exactly; we
// expose this through QCount at every level by truncating the chain.
func TestCompressedCumulativeCounts(t *testing.T) {
	rng := graph.NewRand(42)
	g := graph.BarabasiAlbert(30, 2, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NodeID(7)
	ch := ChainFromTree(tr, q)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(43))
	pool := drawPool(t, s, 300)
	ref := referenceCounts(ch, pool)

	// Truncated chains end at level h; QCount then equals ref[h][q].
	for h := 0; h < ch.Len(); h++ {
		trunc := &Chain{q: q, level: ch.level, sizes: ch.sizes[:h+1], depks: ch.depks[:h+1]}
		got := evaluate(t, trunc, pool, 1)
		if got.QCount != ref[h][q] {
			t.Errorf("level %d: QCount = %d, want %d", h, got.QCount, ref[h][q])
		}
	}
}

func TestCompressedBucketBound(t *testing.T) {
	// Lemma 2: total bucket entries <= total RR-graph nodes.
	rng := graph.NewRand(5)
	g := graph.ErdosRenyi(50, 140, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 3)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(6))
	pool := drawPool(t, s, 500)
	total := 0
	for i := 0; i < pool.Len(); i++ {
		total += len(pool.Nodes(i))
	}
	res := evaluate(t, ch, pool, 3)
	if res.Buckets > total {
		t.Errorf("bucket entries %d exceed RR nodes %d (Lemma 2)", res.Buckets, total)
	}
	if res.Buckets == 0 {
		t.Error("no bucket entries at all")
	}
}

func TestCompressedWholeGraphAlwaysChecked(t *testing.T) {
	// With k >= n, q is trivially top-k everywhere: the whole graph (last
	// level) must be returned.
	rng := graph.NewRand(9)
	g := graph.ErdosRenyi(25, 60, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 11)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(10))
	res := evaluate(t, ch, drawPool(t, s, 200), 25)
	if res.Level != ch.Len()-1 {
		t.Errorf("k=n should select the root community, got level %d", res.Level)
	}
}

func TestCompressedNoSamples(t *testing.T) {
	rng := graph.NewRand(12)
	g := graph.ErdosRenyi(20, 50, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	res := evaluate(t, ch, influence.Pool{}, 1)
	// Zero samples: every node has count 0, ties favor q, so the whole graph
	// qualifies. This documents the degenerate-behavior contract.
	if res.Level != ch.Len()-1 {
		t.Errorf("level = %d, want %d", res.Level, ch.Len()-1)
	}
	if res.QCount != 0 || res.Buckets != 0 {
		t.Error("unexpected counts with no samples")
	}
}

func TestTopKStructure(t *testing.T) {
	tk := newTopK(2)
	tk.offer(1, 5)
	tk.offer(2, 3)
	tk.offer(3, 4) // evicts node 2
	if !tk.isTopK(1, 5) {
		t.Error("node 1 should be top-2")
	}
	if tk.isTopK(2, 3) {
		t.Error("node 2 should not be top-2 (two strictly larger)")
	}
	// count ties resolve by node ID: tied node 3 has the smaller ID, so it
	// ranks ahead of query 9 and pushes it out of the top-2...
	if tk.isTopK(9, 4) {
		t.Error("count-4 query 9 loses the tie to node 3 -> nodes 1 and 3 ahead, not top-2")
	}
	// ...while a query with the smaller ID wins the same tie.
	if !tk.isTopK(0, 4) {
		t.Error("count-4 query 0 wins the tie against node 3 -> top-2")
	}
	// updating an existing member must not duplicate it
	tk.offer(3, 10)
	if len(tk.nodes) != 2 {
		t.Errorf("topK grew to %d entries", len(tk.nodes))
	}
	if tk.isTopK(9, 4) {
		t.Error("after update, counts 10 and 5 both beat 4")
	}
	// eviction on count ties is deterministic: the tracked node with the
	// largest ID is the minimum, and an equal-count candidate with a smaller
	// ID replaces it regardless of arrival order.
	tk2 := newTopK(2)
	tk2.offer(5, 4)
	tk2.offer(7, 4)
	tk2.offer(3, 4)
	if !tk2.isTopK(3, 4) || tk2.isTopK(7, 4) {
		t.Error("equal-count eviction should retain the smaller node IDs")
	}
}

func TestIndependentAgainstCompressed(t *testing.T) {
	// On a well-separated graph both evaluators should pick the same
	// characteristic community for a clear hub query.
	b := graph.NewBuilder(12, 0)
	star := func(center graph.NodeID, leaves []graph.NodeID) {
		for _, l := range leaves {
			if err := b.AddEdge(center, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	star(0, []graph.NodeID{1, 2, 3, 4, 5})
	star(6, []graph.NodeID{7, 8, 9, 10, 11})
	if err := b.AddEdge(5, 6); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	model := influence.NewWeightedCascade(g)
	s := influence.NewSampler(g, model, graph.NewRand(77))
	comp := evaluate(t, ch, drawPool(t, s, 4000), 1)
	ind, done := IndependentEvaluate(g, model, ch, 1, 300, graph.NewRand(78), 0)
	if !done {
		t.Fatal("independent did not finish")
	}
	if comp.Level < 0 || ind.Level < 0 {
		t.Fatalf("hub not found as top-1: compressed=%d independent=%d", comp.Level, ind.Level)
	}
	// Node 0 is the strongest hub of its own star (5 leaves); the opposite
	// hub (node 6, degree 6 with the bridge) wins at the root, so both
	// evaluators should settle on at least the 5-node star core.
	if ch.Size(comp.Level) < 5 || ch.Size(ind.Level) < 5 {
		t.Errorf("characteristic community too small: %d / %d",
			ch.Size(comp.Level), ch.Size(ind.Level))
	}
}

func TestIndependentBudget(t *testing.T) {
	rng := graph.NewRand(20)
	g := graph.ErdosRenyi(30, 80, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	_, done := IndependentEvaluate(g, influence.NewWeightedCascade(g), ch, 1, 100, graph.NewRand(21), 10)
	if done {
		t.Error("tiny budget should truncate the evaluation")
	}
}

func TestExactRankWithin(t *testing.T) {
	// In a star, the center has the highest within-community influence.
	g, err := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	members := []graph.NodeID{0, 1, 2, 3, 4}
	rank := ExactRankWithin(g, influence.NewWeightedCascade(g), members, 0, 200, graph.NewRand(22))
	if rank != 0 {
		t.Errorf("star center rank = %d, want 0", rank)
	}
	rankLeaf := ExactRankWithin(g, influence.NewWeightedCascade(g), members, 3, 200, graph.NewRand(23))
	if rankLeaf == 0 {
		t.Error("leaf should not outrank the center")
	}
}

// The compressed evaluation must also be exact for LT RR graphs (the
// framework is model-agnostic; Theorem 2 only needs live-edge worlds).
func TestCompressedMatchesReferenceLT(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := graph.NewRand(seed + 600)
		g := graph.ErdosRenyi(35, 100, rng)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		q := graph.NodeID(rng.IntN(35))
		ch := ChainFromTree(tr, q)
		s := influence.NewLTSampler(g, influence.UniformLT{G: g}, graph.NewRand(seed+700))
		pool := drawPool(t, s, 400)
		ref := referenceCounts(ch, pool)
		for _, k := range []int{1, 3} {
			got := evaluate(t, ch, pool, k)
			want := referenceBest(ch, ref, k)
			if got.Level != want {
				t.Errorf("LT seed=%d k=%d: level %d, want %d", seed, k, got.Level, want)
			}
		}
	}
}

// Lemma 1: the influence rank of a node is non-monotone along its chain —
// we exhibit a graph where the query is top-1 in a small community, loses
// the top-1 spot in a mid-level community, and the evaluator still finds
// the largest qualifying community (which is NOT simply the last prefix).
func TestLemma1NonMonotoneRank(t *testing.T) {
	// Construct: q=0 is the hub of a small star {0..3}; nodes 4..9 form a
	// denser region with a stronger hub 4; the whole graph hangs together.
	g, err := graph.FromEdges(10, [][2]graph.NodeID{
		{0, 1}, {0, 2}, {0, 3}, // q's star
		{4, 5}, {4, 6}, {4, 7}, {4, 8}, {4, 9}, {5, 6}, {7, 8}, // strong hub 4
		{3, 4}, // bridge
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 0)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(11))
	pool := drawPool(t, s, 5000)
	ref := referenceCounts(ch, pool)

	// rank of q per level
	ranks := make([]int, ch.Len())
	for h := range ref {
		cq := ref[h][0]
		larger := 0
		for v, c := range ref[h] {
			if v != 0 && c > cq {
				larger++
			}
		}
		ranks[h] = larger
	}
	// q must be top-1 somewhere and not top-1 somewhere above it
	top1Levels := 0
	for _, r := range ranks {
		if r == 0 {
			top1Levels++
		}
	}
	if top1Levels == 0 || top1Levels == len(ranks) {
		t.Skipf("degenerate ranks %v; dendrogram shape changed", ranks)
	}
	res := evaluate(t, ch, pool, 1)
	want := referenceBest(ch, ref, 1)
	if res.Level != want {
		t.Errorf("level %d, want %d (ranks %v)", res.Level, want, ranks)
	}
}

// The pool evaluation and the []*RRGraph lowering of the same samples give
// one result, and both stop on a canceled context with the context's error.
func TestCompressedEvaluateCtxMatches(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, graph.NewRand(33))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	ch := ChainFromTree(tr, 7)
	pool := drawPool(t, influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(8)), 400)
	want := evaluate(t, ch, pool, 3)
	got, err := CompressedEvaluateScratchCtx(context.Background(), ch, samples(pool), 3, NewEvalScratch())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("CompressedEvaluateScratchCtx = %+v, want %+v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompressedEvaluatePoolCtx(ctx, ch, pool, 3, NewEvalScratch()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled pool evaluation error = %v", err)
	}
	if _, err := CompressedEvaluateScratchCtx(ctx, ch, samples(pool), 3, NewEvalScratch()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled lowering evaluation error = %v", err)
	}
}

// TestCompressedEvaluateScratchReuse locks the determinism contract of the
// scratch-backed evaluation: a scratch reused across chains of different
// shapes must produce exactly the fresh scratch's result every time.
func TestCompressedEvaluateScratchReuse(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, graph.NewRand(34))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	pool := drawPool(t, influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(9)), 300)
	sc := NewEvalScratch()
	for _, q := range []graph.NodeID{0, 13, 27, 41, 59, 13} {
		ch := ChainFromTree(tr, q)
		want := evaluate(t, ch, pool, 3)
		got, err := CompressedEvaluatePoolCtx(context.Background(), ch, pool, 3, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("q=%d: reused scratch eval = %+v, want %+v", q, got, want)
		}
	}
}

// denseCase is one chain and RR pool the dense evaluation is checked on.
type denseCase struct {
	name string
	ch   *Chain
	pool influence.Pool
}

// denseCases builds tree, merged and inner chains over ER and
// planted-partition graphs whose N grows and then shrinks, each with IC and
// LT pools: 12-sample ones, where count ties are common, and θ=3 ones.
// Inner chains, which leave every node outside C_ℓ at Level ≥ Len(), also
// get a pool restricted to C_ℓ, as CODL samples it.
func denseCases(t *testing.T) []denseCase {
	t.Helper()
	pp, _ := graph.PlantedPartition(graph.PlantedPartitionSpec{N: 120, TargetM: 420, NumComms: 6,
		IntraFraction: 0.8, HubBias: 0.5, PendantFraction: 0.3}, graph.NewRand(51))
	bases := []struct {
		name string
		g    *graph.Graph
	}{
		{"er40", graph.ErdosRenyi(40, 110, graph.NewRand(50))},
		{"pp120", pp},
		{"er60", graph.ErdosRenyi(60, 170, graph.NewRand(52))},
	}
	var cases []denseCase
	for bi, b := range bases {
		rng := graph.NewRand(uint64(60 + bi))
		g, q := withRandomAttrs(b.g, rng)
		tr, err := hac.Cluster(g, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := LoreCtx(context.Background(), g, tr, q, 0, 1, hac.UnweightedAverage)
		if err != nil {
			t.Fatal(err)
		}
		chains := []struct {
			name string
			ch   *Chain
		}{
			{"tree", ChainFromTree(tr, q)},
			{"merged", MergedChain(g, tr, rec, q)},
			{"inner", InnerChain(g, tr, rec, q)},
		}
		ic := influence.NewSampler(g, influence.NewWeightedCascade(g), rng)
		lt := influence.NewLTSampler(g, influence.UniformLT{G: g}, rng)
		pools := []struct {
			name string
			pool influence.Pool
		}{
			{"ic/12", drawPool(t, ic, 12)},
			{"ic/3n", drawPool(t, ic, 3*g.N())},
			{"lt/12", drawPool(t, lt, 12)},
			{"lt/3n", drawPool(t, lt, 3*g.N())},
		}
		for _, c := range chains {
			for _, p := range pools {
				cases = append(cases, denseCase{b.name + "/" + c.name + "/" + p.name, c.ch, p.pool})
			}
		}
		members := rec.Sub.ToParent
		in := make([]bool, g.N())
		for _, v := range members {
			in[v] = true
		}
		within := influence.NewArena()
		for i := 0; i < 3*len(members); i++ {
			ic.RRGraphWithinInto(within, members[rng.IntN(len(members))],
				func(v graph.NodeID) bool { return in[v] })
		}
		cases = append(cases, denseCase{b.name + "/inner/ic-within", chains[2].ch, within.Pool()})
	}
	return cases
}

// The dense fold and sweep must reproduce the map-based evaluation's full
// result — level, q's count, bucket entries, per-level decisions and ranks —
// on every case, over the flat pool and over the []*RRGraph lowering, with
// one scratch reused across all of them.
func TestDenseEvalMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	sc := NewEvalScratch()
	for _, c := range denseCases(t) {
		pool, rrs := c.pool, samples(c.pool)
		for _, k := range []int{1, 3, 5} {
			want, err := legacyCompressedEvaluateScratchCtx(ctx, c.ch, rrs, k, newLegacyEvalScratch())
			if err != nil {
				t.Fatal(err)
			}
			got, err := CompressedEvaluatePoolCtx(ctx, c.ch, pool, k, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s k=%d: pool %+v, map-based %+v", c.name, k, got, want)
			}
			got, err = CompressedEvaluateScratchCtx(ctx, c.ch, rrs, k, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s k=%d: lowering %+v, map-based %+v", c.name, k, got, want)
			}
		}
	}
}

// StagedEval must reproduce the map-based staged evaluation stage by stage
// over pool prefixes: the result and every level's margin. At each prefix
// the non-staged evaluation, over the prefix pool and over the lowering of
// the prefix's RR graphs, must match the map-based one too. The 12-sample
// pools must produce count ties at the rank-k boundary, or the tie-break
// goes unchecked.
func TestDenseStagedMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	sc := NewEvalScratch()
	flat := NewEvalScratch()
	ties := 0
	for _, c := range denseCases(t) {
		pool, rrs := c.pool, samples(c.pool)
		for _, k := range []int{1, 3, 5} {
			ref := newLegacyStagedEval(c.ch, k, nil)
			se := NewStagedEval(c.ch, k, sc)
			n := len(rrs)
			for _, cum := range []int{n / 8, n / 4, n / 2, n} {
				if err := ref.Fold(ctx, rrs[:cum]); err != nil {
					t.Fatal(err)
				}
				if err := se.Fold(ctx, pool.Prefix(cum)); err != nil {
					t.Fatal(err)
				}
				want, wantM := ref.Sweep(ctx)
				got, gotM := se.Sweep(ctx)
				if !got.Equal(want) || !slices.Equal(gotM, wantM) {
					t.Fatalf("%s k=%d cum=%d: dense %+v %v, map-based %+v %v",
						c.name, k, cum, got, gotM, want, wantM)
				}
				for _, m := range wantM {
					if m.Boundary > 0 && m.QCount == m.Boundary {
						ties++
					}
				}
				whole, err := legacyCompressedEvaluateScratchCtx(ctx, c.ch, rrs[:cum], k, newLegacyEvalScratch())
				if err != nil {
					t.Fatal(err)
				}
				if got, err := CompressedEvaluatePoolCtx(ctx, c.ch, pool.Prefix(cum), k, flat); err != nil || !got.Equal(whole) {
					t.Fatalf("%s k=%d cum=%d: prefix pool %+v (err %v), map-based %+v", c.name, k, cum, got, err, whole)
				}
				if got, err := CompressedEvaluateScratchCtx(ctx, c.ch, rrs[:cum], k, flat); err != nil || !got.Equal(whole) {
					t.Fatalf("%s k=%d cum=%d: prefix lowering %+v (err %v), map-based %+v", c.name, k, cum, got, err, whole)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no level tied q's count with the rank-k boundary")
	}
}

// A warm scratch evaluation allocates nothing: every working buffer, the
// top-k set included, lives in the scratch.
func TestCompressedEvaluateScratchAllocs(t *testing.T) {
	ch, pool := stagedChain(t, 2, 60, 200, 400)
	rrs := samples(pool)
	ctx := context.Background()
	sc := NewEvalScratch()
	eval := func() {
		if _, err := CompressedEvaluateScratchCtx(ctx, ch, rrs, 3, sc); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	if n := testing.AllocsPerRun(20, eval); n > 0 {
		t.Errorf("warm evaluation allocated %v objects, want 0", n)
	}
	evalPool := func() {
		if _, err := CompressedEvaluatePoolCtx(ctx, ch, pool, 3, sc); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, evalPool); n > 0 {
		t.Errorf("warm pool evaluation allocated %v objects, want 0", n)
	}
}

// The map-based evaluation as it stood before the dense occurrence buffer
// and tally, kept verbatim (identifiers renamed) as the reference the dense
// fold and sweep must reproduce exactly: per-level bucket maps, a running
// tally map, and a fold that walks every level up to L.

// legacyEvalScratch holds the reusable working buffers of a compressed
// evaluation: the per-level influence buckets, the per-level HFS queues, the
// per-RR visited marks and the running tally map. Reuse is determinism-safe
// because the only map-order-sensitive consumer — the top-k sweep — is
// order-invariant under the canonical influence order (see topK.offer), so a
// scratch-backed run returns exactly the fresh-allocation result. A scratch
// is single-goroutine; the engine pools one per query.
type legacyEvalScratch struct {
	buckets []map[graph.NodeID]int32
	queues  [][]int32
	visited []bool
	tau     map[graph.NodeID]int32
	topk    []bool
	ranks   []int32
}

// newLegacyEvalScratch returns an empty scratch.
func newLegacyEvalScratch() *legacyEvalScratch { return &legacyEvalScratch{} }

// prepare sizes the scratch for a chain of L levels, clearing carried state.
func (sc *legacyEvalScratch) prepare(L int) {
	for len(sc.buckets) < L {
		sc.buckets = append(sc.buckets, make(map[graph.NodeID]int32))
	}
	for h := 0; h < L; h++ {
		clear(sc.buckets[h])
	}
	for len(sc.queues) < L {
		sc.queues = append(sc.queues, nil)
	}
	for h := 0; h < L; h++ {
		sc.queues[h] = sc.queues[h][:0]
	}
	if sc.tau == nil {
		sc.tau = make(map[graph.NodeID]int32, 64)
	} else {
		clear(sc.tau)
	}
	if cap(sc.topk) < L {
		sc.topk = make([]bool, L)
		sc.ranks = make([]int32, L)
	}
	sc.topk = sc.topk[:L]
	sc.ranks = sc.ranks[:L]
}

// visitedFor returns a cleared visited buffer of length n.
func (sc *legacyEvalScratch) visitedFor(n int) []bool {
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
	}
	sc.visited = sc.visited[:n]
	clear(sc.visited)
	return sc.visited
}

// legacyCompressedEvaluateScratchCtx is the map-based evaluation drawing
// every working buffer from sc instead of allocating. Results are identical
// to the allocating call for any (possibly dirty) scratch.
func legacyCompressedEvaluateScratchCtx(ctx context.Context, ch *Chain, rrs []*influence.RRGraph, k int, sc *legacyEvalScratch) (EvalResult, error) {
	rec := obs.FromContext(ctx)
	L := ch.Len()
	sc.prepare(L)
	buckets := sc.buckets[:L]

	// Stage 1: shared sample generation (HFS over every RR graph).
	induce := rec.StartSpan(obs.StageRRInduce)
	entries := 0
	for ri, r := range rrs {
		if ri%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				induce.EndItems(entries)
				return EvalResult{Level: -1}, &influence.CanceledError{
					Op: "core: compressed evaluation", Done: ri, Total: len(rrs), Cause: err}
			}
		}
		entries += sc.foldRR(ch, L, r)
	}

	induce.EndItems(entries)

	// Stage 2: incremental top-k evaluation.
	sweep := rec.StartSpan(obs.StageTopKSweep)
	tau := sc.tau
	top := newTopK(k)
	best := -1
	for h := 0; h < L; h++ {
		for v, cnt := range buckets[h] {
			nv := tau[v] + cnt
			tau[v] = nv
			top.offer(v, nv)
		}
		ahead := top.aheadOf(ch.q, tau[ch.q])
		sc.ranks[h] = int32(ahead) + 1
		sc.topk[h] = ahead < k
		if sc.topk[h] {
			best = h
		}
	}
	sweep.EndItems(len(tau))
	return EvalResult{Level: best, QCount: int(tau[ch.q]), Buckets: entries,
		TopK: sc.topk[:L], Ranks: sc.ranks[:L]}, nil
}

// foldRR runs the HFS pass of one RR graph, adding its node occurrences to
// the per-level buckets, and returns the bucket entries it produced. Every
// pushed node lands at the current or a later level, so sweeping h from the
// source level upward processes (and then resets) each queue once. The fold
// is purely additive per RR graph, which is what lets legacyStagedEval grow the
// pool across stages at the same total HFS cost as a single full pass.
func (sc *legacyEvalScratch) foldRR(ch *Chain, L int, r *influence.RRGraph) int {
	srcLevel := ch.Level(r.Source())
	if srcLevel >= L {
		return 0 // source outside the chain's universe
	}
	buckets := sc.buckets[:L]
	queues := sc.queues[:L]
	entries := 0
	visited := sc.visitedFor(r.Len())
	visited[0] = true
	queues[srcLevel] = append(queues[srcLevel], 0)
	for h := srcLevel; h < L; h++ {
		q := queues[h]
		for qi := 0; qi < len(q); qi++ {
			p := q[qi]
			node := r.Nodes[p]
			buckets[h][node]++
			entries++
			for _, t := range r.Adj[r.Off[p]:r.Off[p+1]] {
				if visited[t] {
					continue
				}
				visited[t] = true
				lvl := ch.Level(r.Nodes[t])
				if lvl >= L {
					continue
				}
				if lvl < h {
					lvl = h
				}
				queues[lvl] = append(queues[lvl], t)
				q = queues[h] // re-read: the append above may have grown level h
			}
		}
		queues[h] = q[:0]
	}
	return entries
}

// topK maintains the k nodes with the largest counts seen so far. k is small
// (the paper uses k <= 5), so linear operations are fastest.

// newTopK returns an empty top-k set of rank k; the map-based evaluation
// allocates one per sweep.
func newTopK(k int) *topK {
	return &topK{k: k, nodes: make([]graph.NodeID, 0, k), cnts: make([]int32, 0, k)}
}

// Sweep runs the incremental top-k sweep over everything folded so far,
// reporting the would-be answer plus per-level margins. A legacyStagedEval is
// single-goroutine, like the scratch it borrows.
type legacyStagedEval struct {
	ch      *Chain
	k       int
	sc      *legacyEvalScratch
	top     *topK
	folded  int
	entries int
	margins []LevelMargin
}

// newLegacyStagedEval prepares a staged evaluation of ch at rank k drawing its
// working buffers from sc (which may be nil for a private scratch). The
// scratch must not be used by another evaluation until the legacyStagedEval is
// done.
func newLegacyStagedEval(ch *Chain, k int, sc *legacyEvalScratch) *legacyStagedEval {
	if sc == nil {
		sc = newLegacyEvalScratch()
	}
	sc.prepare(ch.Len())
	return &legacyStagedEval{ch: ch, k: k, sc: sc, top: newTopK(k),
		margins: make([]LevelMargin, ch.Len())}
}

// Folded returns the number of RR graphs folded so far.
func (se *legacyStagedEval) Folded() int { return se.folded }

// Fold folds rrs[Folded():] — the samples added since the previous call —
// into the accumulated buckets. Passing the whole (grown) pool every stage
// is the intended calling convention: already-folded prefixes are skipped.
// The fold polls ctx once per influence.PollEvery RR graphs and stops with
// a *influence.CanceledError counting the RR graphs folded in so far.
func (se *legacyStagedEval) Fold(ctx context.Context, rrs []*influence.RRGraph) error {
	induce := obs.FromContext(ctx).StartSpan(obs.StageRRInduce)
	L := se.ch.Len()
	added := 0
	for ; se.folded < len(rrs); se.folded++ {
		if se.folded%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				se.entries += added
				induce.EndItems(added)
				return &influence.CanceledError{
					Op: "core: compressed evaluation", Done: se.folded, Total: len(rrs), Cause: err}
			}
		}
		added += se.sc.foldRR(se.ch, L, rrs[se.folded])
	}
	se.entries += added
	induce.EndItems(added)
	return nil
}

// Sweep runs the incremental top-k sweep over the folded pool, returning
// the evaluation result as of this stage and the per-level margins (valid
// until the next Sweep). The decision at every level — and therefore the
// result — is identical to the non-staged evaluation over the same folded
// pool: the sweep tracks the k largest non-q nodes instead of the k largest
// overall, which changes the boundary bookkeeping but not whether fewer
// than k nodes rank ahead of q.
func (se *legacyStagedEval) Sweep(ctx context.Context) (EvalResult, []LevelMargin) {
	sweep := obs.FromContext(ctx).StartSpan(obs.StageTopKSweep)
	sc, ch, q := se.sc, se.ch, se.ch.q
	L := ch.Len()
	clear(sc.tau)
	tau := sc.tau
	se.top.reset()
	best := -1
	for h := 0; h < L; h++ {
		for v, cnt := range sc.buckets[h] {
			nv := tau[v] + cnt
			tau[v] = nv
			if v != q {
				se.top.offer(v, nv)
			}
		}
		ahead := se.top.aheadOf(q, tau[q])
		sc.ranks[h] = int32(ahead) + 1
		sc.topk[h] = ahead < se.k
		m := &se.margins[h]
		m.QCount = tau[q]
		m.Boundary = se.top.boundary()
		m.InTopK = sc.topk[h]
		if m.InTopK {
			best = h
		}
	}
	sweep.EndItems(len(tau))
	return EvalResult{Level: best, QCount: int(tau[q]), Buckets: se.entries,
		TopK: sc.topk[:L], Ranks: sc.ranks[:L]}, se.margins
}
