package cod

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// preparer is any searcher that prepares query expressions.
type preparer interface {
	Prepare(expr string) (*PreparedQuery, error)
}

// discoverExpr prepares expr on s and answers it for node q.
func discoverExpr(ctx context.Context, s preparer, expr string, q NodeID) (Community, error) {
	pq, err := s.Prepare(expr)
	if err != nil {
		return Community{}, err
	}
	return pq.DiscoverCtx(ctx, q)
}

// discoverVariant answers q through the expression that picks variant
// (codl, codu, codr or codl-) for attr; codu takes no attribute.
func discoverVariant(ctx context.Context, s preparer, variant string, q NodeID, attr AttrID) (Community, error) {
	expr := fmt.Sprintf("%d and variant=%s", attr, variant)
	if variant == "codu" {
		expr = "variant=codu"
	}
	return discoverExpr(ctx, s, expr, q)
}

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateDataset("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphBuilderFacade(t *testing.T) {
	b := NewGraphBuilder(4, 2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddWeightedEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.SetAttrs(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddAttr(0, 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.N() != 4 || g.M() != 3 || g.NumAttrs() != 2 {
		t.Fatalf("shape: %d %d %d", g.N(), g.M(), g.NumAttrs())
	}
	if !g.HasAttr(0, 1) || !g.HasAttr(0, 0) {
		t.Error("attrs lost")
	}
	if g.Degree(1) != 2 || len(g.Neighbors(1)) != 2 {
		t.Error("adjacency wrong")
	}
	if len(g.Attrs(0)) != 2 {
		t.Error("Attrs accessor wrong")
	}
}

func TestGraphRoundTripFacade(t *testing.T) {
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Error("round trip changed the graph")
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 7 || names[0] != "cora" {
		t.Errorf("DatasetNames = %v", names)
	}
	if _, err := GenerateDataset("no-such", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestSearcherDiscover(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 5, Theta: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var q NodeID = -1
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	if q < 0 {
		t.Fatal("no attributed node")
	}
	attr := g.Attrs(q)[0]
	com, err := s.Discover(q, attr)
	if err != nil {
		t.Fatal(err)
	}
	if com.Found {
		if !com.Contains(q) {
			t.Error("community missing query node")
		}
		if com.Size() == 0 {
			t.Error("found but empty")
		}
		rho := g.TopologyDensity(com.Nodes)
		if rho < 0 || rho > 1 {
			t.Errorf("density %f", rho)
		}
	}

	for _, variant := range []string{"codu", "codr"} {
		if _, err := discoverVariant(context.Background(), s, variant, q, attr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearcherValidation(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{Theta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Discover(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := s.Discover(NodeID(g.N()), 0); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := s.Discover(0, AttrID(g.NumAttrs())); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if _, err := NewSearcher(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestNonFiniteBetaRejected checks that every searcher constructor and
// LoadSearcher refuse a NaN or infinite Options.Beta. With such a β the
// boosted edges' weights come out NaN or +Inf, so no answer built on them
// means anything.
func TestNonFiniteBetaRejected(t *testing.T) {
	g := buildTestGraph(t)
	hin := buildHIN(t)
	_, _, saved, raw := savedIndex(t)
	for _, beta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := Options{Theta: 2, Beta: beta}
		if _, err := NewSearcher(g, opts); err == nil {
			t.Errorf("NewSearcher accepted β=%g", beta)
		}
		if _, err := NewSearcherCtx(context.Background(), g, opts); err == nil {
			t.Errorf("NewSearcherCtx accepted β=%g", beta)
		}
		if _, err := NewDynamicSearcher(g, opts); err == nil {
			t.Errorf("NewDynamicSearcher accepted β=%g", beta)
		}
		if _, err := NewHeteroSearcher(hin, MetaPath{Edges: []int32{0, 0}, Start: 0}, opts); err == nil {
			t.Errorf("NewHeteroSearcher accepted β=%g", beta)
		}
		load := saved
		load.Beta = beta
		_, err := LoadSearcher(g, bytes.NewReader(raw), load)
		if err == nil || errors.Is(err, ErrIndexParams) {
			t.Errorf("LoadSearcher with β=%g: %v, want a non-finite Beta error", beta, err)
		}
	}
}

// An adaptive Eps or Delta outside (0, 1) would make every stage count as
// certified, and a huge Stages panics or allocates a schedule that long in
// every query, so every searcher constructor and index load refuses them,
// while zero (the default) and in-range values pass.
func TestInvalidAdaptiveRejected(t *testing.T) {
	g := buildTestGraph(t)
	hin := buildHIN(t)
	_, _, saved, raw := savedIndex(t)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.05, 1, 2, 1000}
	var cases []AdaptiveOptions
	for _, v := range bad {
		cases = append(cases, AdaptiveOptions{Enabled: true, Eps: v}, AdaptiveOptions{Enabled: true, Delta: v},
			AdaptiveOptions{Delta: v})
	}
	cases = append(cases, AdaptiveOptions{Enabled: true, Stages: -1}, AdaptiveOptions{Enabled: true, Stages: 64},
		AdaptiveOptions{Enabled: true, Stages: 1 << 30})
	for _, ad := range cases {
		opts := Options{Theta: 2, Adaptive: ad}
		if _, err := NewSearcher(g, opts); err == nil {
			t.Errorf("NewSearcher accepted %+v", ad)
		}
		if _, err := NewSearcherCtx(context.Background(), g, opts); err == nil {
			t.Errorf("NewSearcherCtx accepted %+v", ad)
		}
		if _, err := NewDynamicSearcher(g, opts); err == nil {
			t.Errorf("NewDynamicSearcher accepted %+v", ad)
		}
		if _, err := NewHeteroSearcher(hin, MetaPath{Edges: []int32{0, 0}, Start: 0}, opts); err == nil {
			t.Errorf("NewHeteroSearcher accepted %+v", ad)
		}
		load := saved
		load.Adaptive = ad
		if _, err := LoadSearcher(g, bytes.NewReader(raw), load); err == nil || errors.Is(err, ErrIndexParams) {
			t.Errorf("LoadSearcher with %+v: %v, want an adaptive-range error", ad, err)
		}
	}
	for _, ad := range []AdaptiveOptions{{}, {Enabled: true}, {Enabled: true, Eps: 0.2, Delta: 1e-9, Stages: 63}} {
		if _, err := NewSearcher(g, Options{Theta: 2, Adaptive: ad}); err != nil {
			t.Errorf("NewSearcher rejected %+v: %v", ad, err)
		}
	}
}

func TestSearcherIntrospection(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{Theta: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	depth, err := s.HierarchyDepth(0)
	if err != nil || depth < 1 {
		t.Fatalf("HierarchyDepth = %d, %v", depth, err)
	}
	rank, size, err := s.InfluenceRank(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rank < 0 || size < 2 {
		t.Errorf("rank=%d size=%d", rank, size)
	}
	if _, _, err := s.InfluenceRank(0, depth+5); err == nil {
		t.Error("out-of-range ancestor accepted")
	}
	if s.IndexBytes() <= 0 {
		t.Error("IndexBytes non-positive")
	}
	infl, err := s.EstimateInfluence(0)
	if err != nil {
		t.Fatal(err)
	}
	if infl < 1 || infl > float64(g.N()) {
		t.Errorf("influence %f out of range", infl)
	}
}

func TestSearcherDeterminism(t *testing.T) {
	g := buildTestGraph(t)
	run := func() []NodeID {
		s, err := NewSearcher(g, Options{K: 3, Theta: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		com, err := s.Discover(0, g.Attrs(0)[0])
		if err != nil {
			t.Fatal(err)
		}
		return com.Nodes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d nodes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic membership")
		}
	}
}

// EstimateInfluence keeps one RR graph at a time in one arena, so a call
// allocates a bounded number of objects however many samples it draws:
// on cora at θ = 10 that is 24,850 RR graphs per call.
func TestEstimateInfluenceAllocs(t *testing.T) {
	g, err := GenerateDataset("cora", 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.EstimateInfluence(5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("EstimateInfluence allocated %v objects per call, want at most 64", allocs)
	}
}

func TestMaximizeInfluence(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{Theta: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds, spread, err := s.MaximizeInfluence(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 || len(seeds) > 3 {
		t.Fatalf("seeds = %v", seeds)
	}
	if spread <= 0 || spread > float64(g.N()) {
		t.Errorf("spread = %f", spread)
	}
	if _, _, err := s.MaximizeInfluence(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := s.MaximizeInfluence(g.N() + 1); err == nil {
		t.Error("k>n accepted")
	}
}

func TestLoadEdgeListFacade(t *testing.T) {
	edges := bytes.NewBufferString("# c\n5 9\n9 12\n5 12\n")
	attrs := bytes.NewBufferString("5 0\n9 1\n12 0\n")
	g, ids, err := LoadEdgeList(edges, attrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("shape %d/%d", g.N(), g.M())
	}
	if !g.HasAttr(ids[9], 1) {
		t.Error("attr lost through facade")
	}
	// unattributed load
	g2, _, err := LoadEdgeList(bytes.NewBufferString("1 2\n"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumAttrs() != 0 {
		t.Error("attr universe should be empty")
	}
	// error paths
	if _, _, err := LoadEdgeList(bytes.NewBufferString(""), nil, 0); err == nil {
		t.Error("empty edge list accepted")
	}
	if _, _, err := LoadEdgeList(bytes.NewBufferString("1 2\n"), bytes.NewBufferString("42 0\n"), 1); err == nil {
		t.Error("unknown attr node accepted")
	}
}

func TestSearcherParallelOffline(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 5, Theta: 4, Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var q NodeID
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	com, err := s.Discover(q, g.Attrs(q)[0])
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !com.Contains(q) {
		t.Error("parallel-offline community missing q")
	}
	// determinism for fixed (seed, workers)
	s2, err := NewSearcher(g, Options{K: 5, Theta: 4, Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := NodeID(0); int(v) < g.N(); v++ {
		d1, _ := s.HierarchyDepth(v)
		for i := 0; i < d1; i++ {
			r1, _, _ := s.InfluenceRank(v, i)
			r2, _, _ := s2.InfluenceRank(v, i)
			if r1 != r2 {
				t.Fatalf("parallel offline nondeterministic at node %d level %d", v, i)
			}
		}
	}
}
