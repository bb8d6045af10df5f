package cod

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus micro-benchmarks for the core primitives and
// ablation benches for the design choices called out in DESIGN.md §7.
//
// The per-figure benches run reduced configurations (small datasets, few
// queries) so `go test -bench=.` finishes in minutes; cmd/codbench runs the
// full-scale versions. Key figures are emitted via b.ReportMetric so the
// shape of each result (who wins, by how much) is visible in bench output.

import (
	"context"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/cohesion"
	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/dynamic"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/eval"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
)

func benchConfig(ds string, queries int) eval.Config {
	return eval.Config{
		Dataset:       ds,
		Seed:          42,
		NumQueries:    queries,
		Theta:         5,
		PrecisionSets: 50,
	}
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTableINetworkStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunNetworkStats(benchConfig("cora", 10))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgHLen, "avg|H|")
		b.ReportMetric(float64(r.SumDepth), "sum-depth")
	}
}

// --- Fig. 4 ----------------------------------------------------------------

func BenchmarkFig4FiveDeepest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.RunFiveDeepest(benchConfig("cora", 10))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSize[eval.MethodCODU][4], "CODU-5th")
		b.ReportMetric(r.AvgSize[eval.MethodCODL][4], "CODL-5th")
	}
}

// --- Fig. 7 (one bench per measure row) --------------------------------------

func runEffectiveness(b *testing.B, metric func(eval.Measures) float64, unitCODL, unitACS string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := eval.RunEffectiveness(benchConfig("cora", 10))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(r.PerMethod[eval.MethodCODL][5]), unitCODL)
		b.ReportMetric(metric(r.PerMethod[eval.MethodACQ][5]), unitACS)
	}
}

func BenchmarkFig7Size(b *testing.B) {
	runEffectiveness(b, func(m eval.Measures) float64 { return m.AvgSize }, "CODL|C*|", "ACQ|C*|")
}

func BenchmarkFig7TopologyDensity(b *testing.B) {
	runEffectiveness(b, func(m eval.Measures) float64 { return m.AvgTopoDensity }, "CODL-rho", "ACQ-rho")
}

func BenchmarkFig7AttributeDensity(b *testing.B) {
	runEffectiveness(b, func(m eval.Measures) float64 { return m.AvgAttrDensity }, "CODL-phi", "ACQ-phi")
}

func BenchmarkFig7QueryInfluence(b *testing.B) {
	runEffectiveness(b, func(m eval.Measures) float64 { return m.AvgQueryInfluence }, "CODL-I(q)", "ACQ-I(q)")
}

// --- Fig. 8 ----------------------------------------------------------------

func BenchmarkFig8CompressedVsIndependent(b *testing.B) {
	cfg := benchConfig("cora", 3)
	cfg.Thetas = []int{5, 10}
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunCompressedVsIndependent(cfg, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
		var compT, indT time.Duration
		for _, r := range rows {
			if r.Theta != 10 {
				continue
			}
			switch r.Method {
			case eval.CompressedMethod:
				compT = r.AvgTime
			case eval.IndependentMethod:
				indT = r.AvgTime
			}
		}
		if compT > 0 {
			b.ReportMetric(float64(indT)/float64(compT), "speedup")
		}
	}
}

func BenchmarkFig8Precision(b *testing.B) {
	cfg := benchConfig("cora", 3)
	cfg.Thetas = []int{10}
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunCompressedVsIndependent(cfg, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == eval.CompressedMethod {
				b.ReportMetric(r.Precision, "precision")
			}
		}
	}
}

func BenchmarkFig8Size(b *testing.B) {
	cfg := benchConfig("citeseer", 3)
	cfg.Thetas = []int{10}
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunCompressedVsIndependent(cfg, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == eval.IndependentMethod {
				b.ReportMetric(r.AvgSize, "ind-avg-size")
			}
		}
	}
}

func BenchmarkFig8Time(b *testing.B) {
	cfg := benchConfig("citeseer", 3)
	cfg.Thetas = []int{10}
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunCompressedVsIndependent(cfg, 5, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.AvgTime.Microseconds()), r.Method+"-us")
		}
	}
}

// --- Fig. 9 ----------------------------------------------------------------

func BenchmarkFig9Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunRuntime(benchConfig("cora", 5), 5, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		var codl, codr time.Duration
		for _, r := range rows {
			switch r.Method {
			case eval.MethodCODL:
				codl = r.AvgTime
			case eval.MethodCODR:
				codr = r.AvgTime
			}
			b.ReportMetric(float64(r.AvgTime.Microseconds()), r.Method+"-us")
		}
		if codl > 0 {
			b.ReportMetric(float64(codr)/float64(codl), "CODR/CODL")
		}
	}
}

// --- Table II ---------------------------------------------------------------

func BenchmarkTableIIIndexOverhead(b *testing.B) {
	for _, ds := range []string{"cora", "citeseer"} {
		b.Run(ds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := eval.RunIndexOverhead(benchConfig(ds, 5))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.IndexMB, "index-MB")
				b.ReportMetric(float64(r.BuildTime.Milliseconds()), "build-ms")
			}
		})
	}
}

// --- micro-benchmarks --------------------------------------------------------

func loadBenchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	ds, err := dataset.Load(name, 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds.G
}

func BenchmarkRRGraphGeneration(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(1))
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		nodes += s.RRGraph().Len()
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/rr")
}

func BenchmarkHACCluster(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hac.Cluster(g, hac.UnweightedAverage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoreRecluster times LORE's giant-miss path on cora with C_ℓ =
// the root: induce C_ℓ, boost its edges between nodes carrying the query
// attribute (β = 1), recluster them and build the merged chain, with the
// clustering workspace and chain buffers reused as the engine's query
// scratch reuses them.
func BenchmarkLoreRecluster(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	t, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		b.Fatal(err)
	}
	const q, attr = 5, 0
	var (
		ws   hac.Workspace
		lore core.LoreScratch
	)
	root := t.Root()
	// C_ℓ is the whole graph, so local ids are the graph's ids.
	in := core.AttrMask(make([]bool, g.N()), g, attr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := graph.Induce(g, t.Members(root))
		tr, err := ws.ClusterCtx(context.Background(), core.PredWeighted(sub.G, in, 1), hac.UnweightedAverage)
		if err != nil {
			b.Fatal(err)
		}
		rec := &core.Reclustering{CL: root, Sub: sub, Local: tr}
		if ch := lore.MergedChain(g, t, rec, q); ch.Len() == 0 {
			b.Fatal("empty chain")
		}
	}
}

func BenchmarkLCA(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	t, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(2)
	n := t.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.LCA(hier.Vertex(rng.IntN(n)), hier.Vertex(rng.IntN(n)))
	}
}

// BenchmarkCompressedEvaluate times Algorithm 1 the way the engine runs it:
// one reused EvalScratch, a flat θ=10 pool over cora held as the sample
// cache holds it (an exact-size Clone), and the chains of 40 paper-protocol
// query nodes taken in turn.
func BenchmarkCompressedEvaluate(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	t, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(3))
	pool, err := influence.BatchPoolCtx(ctx, s, 10*g.N(), influence.NewArena())
	if err != nil {
		b.Fatal(err)
	}
	pool = pool.Clone()
	var chains []*core.Chain
	for _, q := range dataset.Queries(g, 40, graph.NewRand(4)) {
		chains = append(chains, core.ChainFromTree(t, q.Node))
	}
	sc := core.NewEvalScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompressedEvaluatePoolCtx(ctx, chains[i%len(chains)], pool, 5, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHimorBuild(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	t, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		b.Fatal(err)
	}
	model := influence.NewWeightedCascade(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildHimor(g, t, model, 5, graph.NewRand(uint64(i)))
	}
}

func BenchmarkCODLQuery(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	eng, err := engine.Build(context.Background(), g, engine.Params{K: 5, Theta: 5, Seed: 4}, engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	qs := dataset.Queries(g, 16, graph.NewRand(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		pl := eng.Compile(engine.VariantCODL, q.Node, q.Attr)
		if _, err := eng.Execute(context.Background(), pl, graph.NewRand(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCODLQueryAdaptive measures the realized-budget savings of
// bounded-error staged evaluation against the same engine with it off. Both
// modes share one offline build; θ is higher than BenchmarkCODLQuery's so
// the stage-1 pool is large enough for the concentration bound to certify
// (at toy budgets the radius never shrinks below ε and "on" degenerates to
// "off" plus the staging overhead).
func BenchmarkCODLQueryAdaptive(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	p := engine.Params{K: 5, Theta: 20, Seed: 4}
	base, err := engine.Build(context.Background(), g, p, engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	qs := dataset.Queries(g, 16, graph.NewRand(5))
	for _, mode := range []struct {
		name string
		cfg  engine.Config
	}{
		{"off", engine.Config{}},
		{"on", engine.Config{Adaptive: engine.Adaptive{Enabled: true}}},
	} {
		eng := engine.New(g, base.Tree(), base.Index(), p, mode.cfg)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := eng.Execute(context.Background(),
					eng.Compile(engine.VariantCODL, q.Node, q.Attr), graph.NewRand(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTrussDecomposition(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrussSink = trussCount(g)
	}
}

var benchTrussSink int

func trussCount(g *graph.Graph) int {
	_, nodes := cohesion.KTruss(g, 3)
	return len(nodes)
}

// --- ablations ---------------------------------------------------------------

func BenchmarkAblationLinkage(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	for _, l := range []hac.Linkage{hac.UnweightedAverage, hac.WeightedAverage, hac.Single} {
		b.Run(l.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := hac.Cluster(g, l)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(t.SumLeafDepths())/float64(g.N()), "avg-depth")
			}
		})
	}
}

func BenchmarkAblationBeta(b *testing.B) {
	for _, beta := range []float64{0.5, 1, 2, 4} {
		b.Run(formatBeta(beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig("tiny", 8)
				cfg.Beta = beta
				r, err := eval.RunEffectiveness(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.PerMethod[eval.MethodCODL][5].AvgAttrDensity, "phi")
			}
		})
	}
}

func formatBeta(beta float64) string {
	switch beta {
	case 0.5:
		return "beta=0.5"
	case 1:
		return "beta=1"
	case 2:
		return "beta=2"
	default:
		return "beta=4"
	}
}

// BenchmarkAblationBalance measures what heavy-path rebalancing buys on the
// hub-skewed retweet stand-in: Σ dep(v) (which drives HIMOR cost, Thm. 6)
// and the index build time, plain vs rebalanced.
func BenchmarkAblationBalance(b *testing.B) {
	ds, err := dataset.Load("retweet", 42)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.G
	model := influence.NewWeightedCascade(g)
	for _, balanced := range []bool{false, true} {
		name := "plain"
		if balanced {
			name = "rebalanced"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var t *hier.Tree
				var err error
				if balanced {
					t, err = hac.ClusterBalanced(g, hac.UnweightedAverage)
				} else {
					t, err = hac.Cluster(g, hac.UnweightedAverage)
				}
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				idx := core.BuildHimor(g, t, model, 2, graph.NewRand(7))
				b.ReportMetric(float64(time.Since(start).Milliseconds()), "himor-ms")
				b.ReportMetric(float64(t.SumLeafDepths())/float64(g.N()), "avg-depth")
				b.ReportMetric(float64(idx.ApproxBytes())/(1<<20), "index-MB")
			}
		})
	}
}

func BenchmarkAblationLCA(b *testing.B) {
	g := loadBenchGraph(b, "cora")
	t, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		b.Fatal(err)
	}
	rng := graph.NewRand(6)
	n := t.NumVertices()
	naive := func(a, c hier.Vertex) hier.Vertex {
		da, dc := t.Depth(a), t.Depth(c)
		for da > dc {
			a = t.Parent(a)
			da--
		}
		for dc > da {
			c = t.Parent(c)
			dc--
		}
		for a != c {
			a, c = t.Parent(a), t.Parent(c)
		}
		return a
	}
	b.Run("sparse-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = t.LCA(hier.Vertex(rng.IntN(n)), hier.Vertex(rng.IntN(n)))
		}
	})
	b.Run("naive-climb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = naive(hier.Vertex(rng.IntN(n)), hier.Vertex(rng.IntN(n)))
		}
	})
}

// --- extension benches --------------------------------------------------------

// BenchmarkDynamicFlush compares the local subtree splice against a full
// recluster for a single localized edge insertion.
func BenchmarkDynamicFlush(b *testing.B) {
	for _, strat := range []struct {
		name string
		s    dynamic.Strategy
	}{{"local", dynamic.RebuildLocal}, {"full", dynamic.RebuildFull}} {
		b.Run(strat.name, func(b *testing.B) {
			ds, err := dataset.Load("small", 42)
			if err != nil {
				b.Fatal(err)
			}
			u, err := dynamic.New(ds.G, engine.Params{Theta: 2, Seed: 1}, engine.Config{})
			if err != nil {
				b.Fatal(err)
			}
			g := u.Graph()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := graph.NodeID(i % g.N())
				c := graph.NodeID((i*7 + 1) % g.N())
				if a == c {
					c = (c + 1) % graph.NodeID(g.N())
				}
				if err := u.AddEdge(a, c); err != nil {
					b.Fatal(err)
				}
				if err := u.Flush(strat.s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiscoverBatch measures batched query throughput at different
// worker counts over a shared offline state.
func BenchmarkDiscoverBatch(b *testing.B) {
	g, err := GenerateDataset("small", 42)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSearcher(g, Options{K: 5, Theta: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var queries []Query
	for v := NodeID(0); int(v) < g.N() && len(queries) < 16; v += 31 {
		if as := g.Attrs(v); len(as) > 0 {
			queries = append(queries, Query{Node: v, Attr: as[0]})
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := s.DiscoverBatch(queries, workers)
				if len(out) != len(queries) {
					b.Fatal("bad batch")
				}
			}
		})
	}
}
