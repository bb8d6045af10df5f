package eval

import (
	"context"

	"github.com/codsearch/cod/internal/acs"
	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/graph"
)

// Method names, in the paper's legend order.
const (
	MethodACQ  = "ACQ"
	MethodATC  = "ATC"
	MethodCAC  = "CAC"
	MethodCODU = "CODU"
	MethodCODR = "CODR"
	MethodCODL = "CODL"
)

// AllMethods lists every compared method.
func AllMethods() []string {
	return []string{MethodACQ, MethodATC, MethodCAC, MethodCODU, MethodCODR, MethodCODL}
}

// EffectivenessResult holds Fig. 7 data for one dataset: per method, per k,
// the four effectiveness measures.
type EffectivenessResult struct {
	Dataset string
	Ks      []int
	// PerMethod[method][k] -> Measures
	PerMethod map[string]map[int]Measures
}

// RunEffectiveness regenerates the Fig. 7 rows for one dataset: average
// |C*|, ρ(C*), φ(C*) and I(q) for k = 1..5 across the six methods.
func RunEffectiveness(cfg Config) (*EffectivenessResult, error) {
	cfg = cfg.withDefaults()
	e, err := newEnv(cfg, true)
	if err != nil {
		return nil, err
	}
	res := &EffectivenessResult{
		Dataset:   cfg.Dataset,
		Ks:        cfg.Ks,
		PerMethod: map[string]map[int]Measures{},
	}

	// Per-query answers per method per k.
	type answer map[int][]graph.NodeID // k -> community (nil = unserved)
	answers := map[string][]answer{}
	for _, m := range AllMethods() {
		answers[m] = make([]answer, len(e.queries))
	}

	// --- ACS baselines: structure independent of k; a community only counts
	// when q is top-k influential in it (the paper's protocol). The shared
	// acs.Index caches the core/truss decompositions across queries.
	acsIdx := acs.NewIndex(e.g)
	rankRng := e.rng(0x1111)
	for qi, q := range e.queries {
		for _, m := range []string{MethodACQ, MethodATC, MethodCAC} {
			var comm []graph.NodeID
			switch m {
			case MethodACQ:
				comm, _ = acsIdx.ACQ(q.Node, q.Attr)
			case MethodATC:
				comm, _ = acsIdx.ATC(q.Node, q.Attr)
			case MethodCAC:
				comm, _ = acsIdx.CAC(q.Node, q.Attr)
			}
			ans := answer{}
			if len(comm) > 1 {
				rank := core.ExactRankWithin(e.g, e.model, comm, q.Node, cfg.PrecisionSets/4+1, rankRng)
				for _, k := range cfg.Ks {
					if rank < k {
						ans[k] = comm
					}
				}
			}
			answers[m][qi] = ans
		}
	}

	// --- CODU: one chain per query over the shared non-attributed tree.
	pool := e.sharedPool(0x2222)
	sc := core.NewEvalScratch()
	for qi, q := range e.queries {
		ch := core.ChainFromTree(e.tree, q.Node)
		ans := answer{}
		for _, k := range cfg.Ks {
			if lvl := evalLevel(ch, pool, k, sc); lvl >= 0 {
				ans[k] = ch.Members(lvl)
			}
		}
		answers[MethodCODU][qi] = ans
	}

	// --- CODR: recluster g_ℓ per attribute (cached), shared sample pool.
	codr := e.attrTrees()
	for qi, q := range e.queries {
		t, err := codr.AttrTree(context.Background(), q.Attr)
		if err != nil {
			return nil, err
		}
		ch := core.ChainFromTree(t, q.Node)
		ans := answer{}
		for _, k := range cfg.Ks {
			if lvl := evalLevel(ch, pool, k, sc); lvl >= 0 {
				ans[k] = ch.Members(lvl)
			}
		}
		answers[MethodCODR][qi] = ans
	}

	// --- CODL: LORE + HIMOR (Algorithm 3) per query.
	codl := e.queryEngine()
	for qi, q := range e.queries {
		got, err := codlAnswer(codl, e, q, cfg.Ks, 0x3333)
		if err != nil {
			return nil, err
		}
		answers[MethodCODL][qi] = got
	}

	// Aggregate.
	for _, m := range AllMethods() {
		perK := map[int]Measures{}
		for _, k := range cfg.Ks {
			acc := NewAccumulator(e.g)
			for qi, q := range e.queries {
				nodes := answers[m][qi][k]
				acc.Add(nodes, q.Attr, e.glInfl[q.Node])
			}
			perK[k] = acc.Result()
		}
		res.PerMethod[m] = perK
	}
	return res, nil
}

// Fig4Result reports the average size of the five deepest communities
// containing a query node, per hierarchy-construction method.
type Fig4Result struct {
	Dataset string
	// AvgSize[method][i] = average size of the i-th deepest community, i<5.
	AvgSize map[string][5]float64
}

// RunFiveDeepest regenerates Fig. 4 for one dataset: the skew of the
// hierarchies produced by CODU (non-attributed), CODR (global reclustering)
// and CODL (LORE local reclustering).
func RunFiveDeepest(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	e, err := newEnv(cfg, false)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Dataset: cfg.Dataset, AvgSize: map[string][5]float64{}}

	addChain := func(sums *[5]float64, ch *core.Chain) {
		for i := 0; i < 5; i++ {
			h := i
			if h >= ch.Len() {
				h = ch.Len() - 1
			}
			sums[i] += float64(ch.Size(h))
		}
	}

	var uSums, rSums, lSums [5]float64
	codr := e.attrTrees()
	for _, q := range e.queries {
		addChain(&uSums, core.ChainFromTree(e.tree, q.Node))
		t, err := codr.AttrTree(context.Background(), q.Attr)
		if err != nil {
			return nil, err
		}
		addChain(&rSums, core.ChainFromTree(t, q.Node))
		rec, err := e.lore(q)
		if err != nil {
			return nil, err
		}
		addChain(&lSums, core.MergedChain(e.g, e.tree, rec, q.Node))
	}
	n := float64(len(e.queries))
	var u, r, l [5]float64
	for i := 0; i < 5; i++ {
		u[i], r[i], l[i] = uSums[i]/n, rSums[i]/n, lSums[i]/n
	}
	res.AvgSize[MethodCODU] = u
	res.AvgSize[MethodCODR] = r
	res.AvgSize[MethodCODL] = l
	return res, nil
}

// HierarchyStats reports Table I's measured |H̄_ℓ(q)| plus basic shape.
type HierarchyStats struct {
	Dataset  string
	N, M, A  int
	AvgHLen  float64 // measured |H̄_ℓ(q)| over the query workload
	SumDepth int64   // Σ_v dep(v), the HIMOR balance measure
	Paper    dataset.PaperScale
}

// RunNetworkStats regenerates Table I for one dataset.
func RunNetworkStats(cfg Config) (*HierarchyStats, error) {
	cfg = cfg.withDefaults()
	e, err := newEnv(cfg, false)
	if err != nil {
		return nil, err
	}
	spec, err := dataset.SpecOf(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, q := range e.queries {
		rec, err := e.lore(q)
		if err != nil {
			return nil, err
		}
		merged := core.MergedChain(e.g, e.tree, rec, q.Node)
		sum += float64(merged.Len())
	}
	return &HierarchyStats{
		Dataset:  cfg.Dataset,
		N:        e.g.N(),
		M:        e.g.M(),
		A:        e.g.NumAttrs(),
		AvgHLen:  sum / float64(len(e.queries)),
		SumDepth: e.tree.SumLeafDepths(),
		Paper:    spec.Paper,
	}, nil
}
