package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
)

// lcaChainFromTree, lcaMergedChain and lcaInnerChain build chains the way
// the chain builders did before the hanging-subtree pass: one LCA with q
// per node, the level being the depth difference (the definition of a
// chain level). They are the references the pass must reproduce.

func lcaChainFromTree(t *hier.Tree, q graph.NodeID) *Chain {
	anc := t.Ancestors(t.LeafOf(q))
	if len(anc) == 0 {
		return &Chain{q: q, level: []int32{0}, sizes: []int{1}, depks: []int{1}, vertices: []hier.Vertex{t.Root()}}
	}
	ch := &Chain{q: q, level: make([]int32, t.N()), sizes: make([]int, len(anc)),
		depks: make([]int, len(anc)), vertices: anc}
	top := t.Depth(anc[0])
	for h, v := range anc {
		ch.sizes[h] = t.Size(v)
		ch.depks[h] = t.Depth(v)
	}
	for u := 0; u < t.N(); u++ {
		if graph.NodeID(u) != q {
			ch.level[u] = int32(top - t.Depth(t.LCA(t.LeafOf(q), t.LeafOf(graph.NodeID(u)))))
		}
	}
	return ch
}

func lcaMergedChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	localQ := rec.Sub.Local(q)
	inner := rec.Local.Ancestors(rec.Local.LeafOf(localQ))
	if len(inner) == 0 {
		inner = []hier.Vertex{rec.Local.Root()}
	}
	outer := t.Ancestors(rec.CL)
	L := len(inner) + len(outer)
	chain := &Chain{q: q, level: make([]int32, g.N()), sizes: make([]int, L), depks: make([]int, L)}
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
	outerTop := 0
	if len(outer) > 0 {
		outerTop = t.Depth(outer[0])
	}
	for u := 0; u < g.N(); u++ {
		node := graph.NodeID(u)
		if lu := rec.Sub.Local(node); lu >= 0 {
			if lu != localQ {
				l := rec.Local.LCA(localLeafQ, rec.Local.LeafOf(lu))
				chain.level[u] = int32(localTop - rec.Local.Depth(l))
			}
			continue
		}
		l := t.LCA(t.LeafOf(q), t.LeafOf(node))
		chain.level[u] = int32(len(inner) + outerTop - t.Depth(l))
	}
	return chain
}

func lcaInnerChain(g *graph.Graph, t *hier.Tree, rec *Reclustering, q graph.NodeID) *Chain {
	merged := lcaMergedChain(g, t, rec, q)
	innerLen := max(len(rec.Local.Ancestors(rec.Local.LeafOf(rec.Sub.Local(q)))), 1)
	chain := &Chain{q: q, level: make([]int32, g.N()),
		sizes: merged.sizes[:innerLen:innerLen], depks: merged.depks[:innerLen:innerLen]}
	for u := range chain.level {
		chain.level[u] = min(merged.level[u], int32(innerLen))
	}
	return chain
}

// sameChain fails t unless got and want agree field by field.
func sameChain(t *testing.T, name string, got, want *Chain) {
	t.Helper()
	if got.q != want.q || !slices.Equal(got.level, want.level) || !slices.Equal(got.sizes, want.sizes) ||
		!slices.Equal(got.depks, want.depks) || !slices.Equal(got.vertices, want.vertices) {
		t.Fatalf("%s: chain differs from the LCA definition:\n got  %+v\n want %+v", name, got, want)
	}
}

// levelTrees returns hierarchies over g whose ids are parent-after-child
// (hac) and not (hier.Rebalance).
func levelTrees(t *testing.T, g *graph.Graph) map[string]*hier.Tree {
	t.Helper()
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := hier.Rebalance(tr)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*hier.Tree{"hac": tr, "rebalanced": bal}
}

// TestChainLevelsMatchLCADefinition checks the pass-computed levels of
// ChainFromTree, MergedChain and InnerChain against one LCA per node, on
// hac trees and on rebalanced trees of random graphs, for every node of
// the smaller graphs and through one reused LoreScratch.
func TestChainLevelsMatchLCADefinition(t *testing.T) {
	s := new(LoreScratch)
	for seed := uint64(0); seed < 6; seed++ {
		rng := graph.NewRand(seed + 300)
		n := 8 + rng.IntN(60)
		base := graph.ErdosRenyi(n, 2*n, rng)
		if seed%2 == 1 {
			base = graph.BarabasiAlbert(n, 2, rng)
		}
		g, _ := withRandomAttrs(base, rng)
		in := AttrMask(make([]bool, g.N()), g, 0)
		for kind, tr := range levelTrees(t, g) {
			for q := graph.NodeID(0); int(q) < g.N(); q++ {
				name := fmt.Sprintf("seed %d %s q=%d", seed, kind, q)
				sameChain(t, name+" tree", s.ChainFromTree(tr, q), lcaChainFromTree(tr, q))
				sameChain(t, name+" tree (package)", ChainFromTree(tr, q), lcaChainFromTree(tr, q))
				rec, err := s.LorePredCtx(context.Background(), g, tr, q, in, 1, hac.UnweightedAverage)
				if err != nil {
					t.Fatal(err)
				}
				sameChain(t, name+" merged", s.MergedChain(g, tr, rec, q), lcaMergedChain(g, tr, rec, q))
				sameChain(t, name+" inner", s.InnerChain(g, tr, rec, q), lcaInnerChain(g, tr, rec, q))
				sameChain(t, name+" merged (package)", MergedChain(g, tr, rec, q), lcaMergedChain(g, tr, rec, q))
				sameChain(t, name+" inner (package)", InnerChain(g, tr, rec, q), lcaInnerChain(g, tr, rec, q))
			}
		}
	}
	// A single-node graph and a C_ℓ holding only q.
	one, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := hac.Cluster(one, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	sameChain(t, "single node", ChainFromTree(t1, 0), lcaChainFromTree(t1, 0))
	pair, err := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := hac.Cluster(pair, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Reclustering{CL: 2, Sub: graph.Induce(pair, []graph.NodeID{2})}
	if rec.Local, err = hac.Cluster(rec.Sub.G, hac.UnweightedAverage); err != nil {
		t.Fatal(err)
	}
	sameChain(t, "singleton C_ℓ merged", MergedChain(pair, t3, rec, 2), lcaMergedChain(pair, t3, rec, 2))
	sameChain(t, "singleton C_ℓ inner", InnerChain(pair, t3, rec, 2), lcaInnerChain(pair, t3, rec, 2))
}

// TestLazyLCAConcurrentFirstUse makes the first LCA, ChainFromTree and
// MergedChain calls on fresh trees from many goroutines at once; the
// engine shares its hierarchy across every query, so the table's one-time
// build must be safe under -race and every caller must see it whole.
func TestLazyLCAConcurrentFirstUse(t *testing.T) {
	g, q := randomAttributed(t, 77, 120)
	in := AttrMask(make([]bool, g.N()), g, 0)
	for round := 0; round < 4; round++ {
		trees := levelTrees(t, g)
		for kind, fresh := range trees {
			ref := levelTrees(t, g)[kind]
			wantChain := lcaChainFromTree(ref, q)
			rec, err := LorePredCtx(context.Background(), g, ref, q, in, 1, hac.UnweightedAverage)
			if err != nil {
				t.Fatal(err)
			}
			wantMerged := lcaMergedChain(g, ref, rec, q)
			const workers = 16
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					u, v := graph.NodeID(w%g.N()), graph.NodeID((7*w+3)%g.N())
					switch w % 3 {
					case 0:
						if got, want := fresh.LCANodes(u, v), ref.LCANodes(u, v); got != want {
							errs[w] = fmt.Errorf("LCA(%d,%d) = %d, want %d", u, v, got, want)
						}
					case 1:
						if got := ChainFromTree(fresh, q); !slices.Equal(got.level, wantChain.level) {
							errs[w] = errors.New("ChainFromTree levels differ")
						}
					default:
						local := *rec
						r, err := LorePredCtx(context.Background(), g, fresh, q, in, 1, hac.UnweightedAverage)
						if err != nil {
							errs[w] = err
							return
						}
						local.Local, local.Sub = r.Local, r.Sub
						if got := MergedChain(g, fresh, &local, q); !slices.Equal(got.level, wantMerged.level) {
							errs[w] = errors.New("MergedChain levels differ")
						}
					}
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("round %d %s worker %d: %v", round, kind, w, err)
				}
			}
		}
	}
}

// TestLoreRejectsUnusableBeta checks that LORE and CODR's global recluster
// return an error, and PredWeighted panics, when β turns a boosted weight
// non-positive or non-finite — NaN, +Inf, or a finite β whose product with
// an edge weight overflows — instead of clustering a graph that silently
// lost those edges.
func TestLoreRejectsUnusableBeta(t *testing.T) {
	g, q := randomAttributed(t, 41, 40)
	heavy, err := graph.Reweight(g, func(_, _ graph.NodeID, w float64) float64 { return 4 * w })
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hac.Cluster(heavy, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	in := AttrMask(make([]bool, g.N()), g, 0)
	for _, beta := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64} {
		if _, err := LorePredCtx(context.Background(), heavy, tr, q, in, beta, hac.UnweightedAverage); err == nil {
			t.Errorf("LorePredCtx accepted β=%g", beta)
		}
		if _, err := new(LoreScratch).PredTreeCtx(context.Background(), heavy, in, beta, hac.UnweightedAverage); err == nil {
			t.Errorf("PredTreeCtx accepted β=%g", beta)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PredWeighted accepted β=%g", beta)
				}
			}()
			PredWeighted(heavy, in, beta)
		}()
	}
}
