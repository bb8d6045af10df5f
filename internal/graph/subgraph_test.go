package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// builderInduce and builderReweight are Induce and Reweight as they stood
// when both went through a sorting Builder, kept as the references the
// direct CSR writers must reproduce.

func builderInduce(g *Graph, nodes []NodeID) *Graph {
	members := slices.Clone(nodes)
	slices.Sort(members)
	members = slices.Compact(members)
	toLocal := make([]int32, g.N())
	for i := range toLocal {
		toLocal[i] = -1
	}
	for i, v := range members {
		toLocal[v] = int32(i)
	}
	b := NewBuilder(len(members), g.NumAttrs())
	for i, v := range members {
		ns := g.Neighbors(v)
		ws := g.Weights(v)
		for j, u := range ns {
			lu := toLocal[u]
			if lu < 0 || u <= v {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[j]
			}
			_ = b.AddWeightedEdge(int32(i), lu, w)
		}
		if as := g.Attrs(v); len(as) > 0 {
			_ = b.SetAttrs(int32(i), as...)
		}
	}
	return b.Build()
}

func builderReweight(g *Graph, fn func(u, v NodeID, w float64) float64) *Graph {
	b := NewBuilder(g.N(), g.NumAttrs())
	g.ForEachEdge(func(u, v NodeID, w float64) {
		_ = b.AddWeightedEdge(u, v, fn(u, v, w))
	})
	for v := NodeID(0); v < NodeID(g.N()); v++ {
		if as := g.Attrs(v); len(as) > 0 {
			_ = b.SetAttrs(v, as...)
		}
	}
	return b.Build()
}

// sameGraph fails t unless got and want agree on N, M, Weighted(), every
// row's neighbours and weights, every node's attributes and NumAttrs.
func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.NumAttrs() != want.NumAttrs() {
		t.Fatalf("%s: shape n=%d m=%d attrs=%d, reference n=%d m=%d attrs=%d",
			name, got.N(), got.M(), got.NumAttrs(), want.N(), want.M(), want.NumAttrs())
	}
	if got.Weighted() != want.Weighted() {
		t.Fatalf("%s: Weighted() = %t, reference %t", name, got.Weighted(), want.Weighted())
	}
	for v := NodeID(0); int(v) < got.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: row %d = %v, reference %v", name, v, got.Neighbors(v), want.Neighbors(v))
		}
		if !slices.Equal(got.Weights(v), want.Weights(v)) {
			t.Fatalf("%s: weights of row %d = %v, reference %v", name, v, got.Weights(v), want.Weights(v))
		}
		if !slices.Equal(got.Attrs(v), want.Attrs(v)) {
			t.Fatalf("%s: attributes of %d = %v, reference %v", name, v, got.Attrs(v), want.Attrs(v))
		}
	}
}

// attributedWeighted returns g with random attributes (0 to 3 of 5 per
// node) and, when weighted, random non-dyadic weights, a fifth of them 1.
func attributedWeighted(t *testing.T, g *Graph, weighted bool, seed uint64) *Graph {
	t.Helper()
	rng := NewRand(seed)
	b := NewBuilder(g.N(), 5)
	var err error
	g.ForEachEdge(func(u, v NodeID, _ float64) {
		w := 1.0
		if weighted && rng.IntN(5) > 0 {
			w = 0.1 + 2*rng.Float64()
		}
		if e := b.AddWeightedEdge(u, v, w); e != nil {
			err = e
		}
	})
	for v := NodeID(0); int(v) < g.N(); v++ {
		for k := rng.IntN(4); k > 0; k-- {
			if e := b.AddAttr(v, AttrID(rng.IntN(5))); e != nil {
				err = e
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// TestInduceReweightMatchBuilder compares the direct CSR Induce and
// Reweight with the Builder references on random Erdős–Rényi and
// Barabási–Albert graphs, unweighted and weighted, with attributes, over
// random node subsets (some with duplicates, unsorted, empty, or whole)
// and reweightings that keep every weight at 1, boost some, or scale all.
func TestInduceReweightMatchBuilder(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := NewRand(seed + 900)
		n := 10 + rng.IntN(80)
		base := ErdosRenyi(n, 2*n, rng)
		if seed%2 == 1 {
			base = BarabasiAlbert(n, 2, rng)
		}
		for _, weighted := range []bool{false, true} {
			g := attributedWeighted(t, base, weighted, seed)
			subsets := [][]NodeID{nil, {NodeID(n - 1), 0, NodeID(n - 1)}}
			all := make([]NodeID, n)
			for i := range all {
				all[i] = NodeID(n - 1 - i)
			}
			subsets = append(subsets, all)
			for k := 0; k < 4; k++ {
				var nodes []NodeID
				for v := 0; v < n; v++ {
					if rng.Float64() < 0.4 {
						nodes = append(nodes, NodeID(v))
					}
				}
				rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
				subsets = append(subsets, nodes)
			}
			for i, nodes := range subsets {
				name := fmt.Sprintf("seed %d weighted %t subset %d", seed, weighted, i)
				sub := Induce(g, nodes)
				sameGraph(t, name+" induce", sub.G, builderInduce(g, nodes))
				for _, fn := range []func(u, v NodeID, w float64) float64{
					func(_, _ NodeID, w float64) float64 { return w },
					func(u, v NodeID, w float64) float64 {
						if u%3 == 0 && v%2 == 0 {
							return w * 1.3
						}
						return w
					},
					func(_, _ NodeID, w float64) float64 { return w / 7 },
				} {
					got, err := Reweight(sub.G, fn)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameGraph(t, name+" reweight", got, builderReweight(sub.G, fn))
				}
			}
		}
	}
}

// TestReweightRejectsUnusableWeights checks that Reweight reports a
// non-positive or non-finite weight instead of dropping the edge,
// including +Inf from a finite product that overflows.
func TestReweightRejectsUnusableWeights(t *testing.T) {
	g := attributedWeighted(t, paperGraph(t), true, 3)
	heavy, err := Reweight(g, func(_, _ NodeID, w float64) float64 { return 4 * w })
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		_, err := Reweight(g, func(u, v NodeID, w float64) float64 {
			if u == 2 && v == 3 {
				return bad
			}
			return w
		})
		if err == nil {
			t.Errorf("weight %g accepted", bad)
		}
	}
	if _, err := Reweight(heavy, func(_, _ NodeID, w float64) float64 {
		return w * (1 + math.MaxFloat64)
	}); err == nil {
		t.Error("an overflowing product was accepted")
	}
}
