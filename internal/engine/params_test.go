package engine

import (
	"context"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

// attrGraph builds a planted two-community graph where attribute 0 marks
// community 0; returns the graph and a query node inside community 0.
func attrGraph(t *testing.T, seed uint64) (*graph.Graph, graph.NodeID) {
	t.Helper()
	rng := graph.NewRand(seed)
	g, comms := graph.PlantedPartition(graph.PlantedPartitionSpec{
		N: 150, TargetM: 500, NumComms: 5, IntraFraction: 0.85, HubBias: 0.4,
	}, rng)
	b := graph.NewBuilder(g.N(), 2)
	g.ForEachEdge(func(u, v graph.NodeID, w float64) { _ = b.AddWeightedEdge(u, v, w) })
	var q graph.NodeID = -1
	for v := 0; v < g.N(); v++ {
		if comms[v] == 0 {
			_ = b.SetAttrs(graph.NodeID(v), 0)
			q = graph.NodeID(v) // last member: not necessarily a hub
		} else {
			_ = b.SetAttrs(graph.NodeID(v), 1)
		}
	}
	return b.Build(), q
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.K != 5 || p.Theta != 10 || p.Beta != 1 {
		t.Errorf("defaults wrong: %+v", p)
	}
	p2 := Params{K: 2, Theta: 3, Beta: 0.5}.withDefaults()
	if p2.K != 2 || p2.Theta != 3 || p2.Beta != 0.5 {
		t.Errorf("explicit values overridden: %+v", p2)
	}
}

// TestCODRHierarchyCache: with Config.CacheAttrTrees every AttrTree call
// returns the first tree built; without it every call reclusters.
func TestCODRHierarchyCache(t *testing.T) {
	g, _ := attrGraph(t, 5)
	ctx := context.Background()
	cached := New(g, nil, nil, Params{}, Config{CacheAttrTrees: true})
	t1, err := cached.AttrTree(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cached.AttrTree(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("cache did not return the same hierarchy")
	}
	uncached := New(g, nil, nil, Params{}, Config{})
	t3, err := uncached.AttrTree(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := uncached.AttrTree(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 || t4 == t3 {
		t.Error("an engine without the cache returned a cached tree")
	}
}

func TestCODLQueryPaths(t *testing.T) {
	g, q := attrGraph(t, 6)
	ctx := context.Background()
	eng, err := Build(ctx, g, Params{K: 5, Theta: 5, Seed: 6}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	com, err := eng.Execute(ctx, eng.Compile(VariantCODL, q, 0), graph.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !containsNode(com.Nodes, q) {
		t.Error("community must contain q")
	}
	// With k = n the index path must trigger at the root immediately.
	comBig, err := eng.Execute(ctx, eng.CompileSpec(Spec{Variant: VariantCODL, Q: q, K: g.N()}), graph.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if !comBig.Found || !comBig.FromIndex {
		t.Errorf("k=n should be answered by the index: %+v", comBig)
	}
	if comBig.Size() != g.N() {
		t.Errorf("k=n community size %d, want %d", comBig.Size(), g.N())
	}
}

func TestCommunityHelpers(t *testing.T) {
	c := Community{}
	if c.Size() != 0 {
		t.Error("empty community size")
	}
	c2 := Community{Nodes: []graph.NodeID{1, 2, 3}, Found: true}
	if c2.Size() != 3 {
		t.Error("size wrong")
	}
}

func TestNewGraphSamplerKinds(t *testing.T) {
	g := graph.ErdosRenyi(15, 40, graph.NewRand(85))
	ic := NewGraphSampler(g, ICWeightedCascade, graph.NewRand(86))
	lt := NewGraphSampler(g, LTUniform, graph.NewRand(86))
	for _, s := range []influence.ArenaSampler{ic, lt} {
		a := influence.NewArena()
		s.RRGraphInto(a)
		if a.Len() != 1 || len(a.Pool().Nodes(0)) == 0 {
			t.Fatal("samplers broken")
		}
	}
	if _, ok := ic.(*influence.Sampler); !ok {
		t.Error("IC sampler wrong type")
	}
	if _, ok := lt.(*influence.LTSampler); !ok {
		t.Error("LT sampler wrong type")
	}
}

func containsNode(nodes []graph.NodeID, q graph.NodeID) bool {
	for _, v := range nodes {
		if v == q {
			return true
		}
	}
	return false
}
