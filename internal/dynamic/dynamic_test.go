package dynamic

import (
	"context"
	"fmt"
	"testing"

	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
)

func newUpdater(t *testing.T) *Updater {
	t.Helper()
	ds, err := dataset.Load("tiny", 17)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(ds.G, engine.Params{K: 5, Theta: 4, Seed: 17}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// query runs one plan of variant v on u's current engine state with the
// stream seeded by seed.
func query(t *testing.T, u *Updater, v engine.Variant, q graph.NodeID, attr graph.AttrID, seed uint64) engine.Community {
	t.Helper()
	e := u.Engine()
	com, err := e.Execute(context.Background(), e.Compile(v, q, attr), graph.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return com
}

func TestAddEdgeValidation(t *testing.T) {
	u := newUpdater(t)
	if err := u.AddEdge(3, 3); err == nil {
		t.Error("self loop accepted")
	}
	if err := u.AddEdge(0, graph.NodeID(u.Graph().N())); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := u.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if u.Pending() != 1 {
		t.Errorf("pending = %d", u.Pending())
	}
}

func TestFlushNoPendingIsNoop(t *testing.T) {
	u := newUpdater(t)
	before := u.Tree()
	if err := u.Flush(Auto); err != nil {
		t.Fatal(err)
	}
	if u.Tree() != before {
		t.Error("no-op flush replaced the tree")
	}
	if f, _ := u.Stats(); f != 0 {
		t.Error("no-op flush counted")
	}
}

func TestLocalFlush(t *testing.T) {
	u := newUpdater(t)
	g := u.Graph()
	// pick two nodes inside one small community: neighbors of node 0
	ns := g.Neighbors(0)
	if len(ns) < 2 {
		t.Skip("node 0 too sparse")
	}
	a, b := ns[0], ns[1]
	if g.HasEdge(a, b) {
		// find a non-adjacent pair among 0's neighborhood
		found := false
		for i := 0; i < len(ns) && !found; i++ {
			for j := i + 1; j < len(ns) && !found; j++ {
				if !g.HasEdge(ns[i], ns[j]) {
					a, b = ns[i], ns[j]
					found = true
				}
			}
		}
		if !found {
			t.Skip("neighborhood is a clique")
		}
	}
	mBefore := g.M()
	if err := u.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(RebuildLocal); err != nil {
		t.Fatal(err)
	}
	if u.Graph().M() != mBefore+1 {
		t.Errorf("M = %d, want %d", u.Graph().M(), mBefore+1)
	}
	if !u.Graph().HasEdge(a, b) {
		t.Error("edge not applied")
	}
	if u.Tree().Size(u.Tree().Root()) != u.Graph().N() {
		t.Error("tree lost leaves after local flush")
	}
	if u.Pending() != 0 {
		t.Error("pending not cleared")
	}
	flushes, locals := u.Stats()
	if flushes != 1 {
		t.Errorf("flushes = %d", flushes)
	}
	_ = locals // local vs full depends on the lca size; both are valid here
}

func TestFullFlushAndQuery(t *testing.T) {
	u := newUpdater(t)
	g := u.Graph()
	// edges spanning distant parts force a wide lca -> full rebuild in Auto
	if err := u.AddEdge(0, graph.NodeID(g.N()-1)); err != nil {
		t.Fatal(err)
	}
	if err := u.AddEdge(1, graph.NodeID(g.N()-2)); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(Auto); err != nil {
		t.Fatal(err)
	}
	// queries still work on the updated state
	var q graph.NodeID = -1
	for v := graph.NodeID(0); int(v) < u.Graph().N(); v++ {
		if len(u.Graph().Attrs(v)) > 0 {
			q = v
			break
		}
	}
	com := query(t, u, engine.VariantCODL, q, u.Graph().Attrs(q)[0], 99)
	if com.Found && !contains(com.Nodes, q) {
		t.Error("community missing query node")
	}
}

func TestRepeatedFlushesConverge(t *testing.T) {
	u := newUpdater(t)
	rng := graph.NewRand(23)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			a := graph.NodeID(rng.IntN(u.Graph().N()))
			b := graph.NodeID(rng.IntN(u.Graph().N()))
			if a != b {
				if err := u.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := u.Flush(Auto); err != nil {
			t.Fatal(err)
		}
		if u.Tree().N() != u.Graph().N() {
			t.Fatal("tree/graph drift")
		}
	}
	flushes, _ := u.Stats()
	if flushes != 3 {
		t.Errorf("flushes = %d", flushes)
	}
}

// After a local flush, query results must match a from-scratch full rebuild
// in validity (found communities contain q; chain sizes monotone).
func TestLocalFlushProducesValidHierarchy(t *testing.T) {
	u := newUpdater(t)
	g := u.Graph()
	ns := g.Neighbors(2)
	if len(ns) == 0 {
		t.Skip("isolated")
	}
	// duplicate edge: exercises the merge path
	if err := u.AddEdge(2, ns[0]); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(RebuildLocal); err != nil {
		t.Fatal(err)
	}
	tr := u.Tree()
	for leaf := 0; leaf < tr.N(); leaf++ {
		prev := 1
		for _, a := range tr.Ancestors(int32(leaf)) {
			if tr.Size(a) <= prev {
				t.Fatalf("chain sizes not increasing for leaf %d", leaf)
			}
			prev = tr.Size(a)
		}
	}
}

func contains(nodes []graph.NodeID, q graph.NodeID) bool {
	for _, v := range nodes {
		if v == q {
			return true
		}
	}
	return false
}

// TestFlushInvalidatesSampleCache drives graph updates between cache-hitting
// global queries: before the flush the second identical query must be served
// from the sample cache byte-identically; after the flush the bumped engine
// epoch must force a fresh pool over the updated graph, and the whole
// sequence must replay deterministically.
func TestFlushInvalidatesSampleCache(t *testing.T) {
	run := func() []string {
		ds, err := dataset.Load("tiny", 17)
		if err != nil {
			t.Fatal(err)
		}
		u, err := New(ds.G, engine.Params{K: 5, Theta: 4, Seed: 17},
			engine.Config{SampleCache: 2, CacheAttrTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		var q graph.NodeID = -1
		for v := graph.NodeID(0); int(v) < u.Graph().N(); v++ {
			if len(u.Graph().Attrs(v)) > 0 {
				q = v
				break
			}
		}
		attr := u.Graph().Attrs(q)[0]
		var out []string
		c1 := query(t, u, engine.VariantCODR, q, attr, 99)
		c2 := query(t, u, engine.VariantCODR, q, attr, 99) // cache hit: pool + attr tree reused
		if fmt.Sprintf("%+v", c1) != fmt.Sprintf("%+v", c2) {
			t.Fatalf("cache hit differs from miss: %+v vs %+v", c2, c1)
		}
		out = append(out, fmt.Sprintf("%+v", c1))
		if err := u.AddEdge(q, graph.NodeID((int(q)+u.Graph().N()/2)%u.Graph().N())); err != nil {
			t.Fatal(err)
		}
		if err := u.Flush(Auto); err != nil {
			t.Fatal(err)
		}
		if u.Engine().Epoch() != 1 {
			t.Fatalf("epoch after flush = %d, want 1", u.Engine().Epoch())
		}
		c3 := query(t, u, engine.VariantCODR, q, attr, 99)
		out = append(out, fmt.Sprintf("%+v", c3))
		return out
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("replay %d differs:\n%s\n%s", i, first[i], second[i])
		}
	}
}
