package eval

import (
	"context"
	"time"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/influence"
)

// Fig9Row reports the average query latency of one method on one dataset
// (§V-D). Offline costs (clustering, HIMOR construction) are excluded, as
// in the paper; they are reported separately in Table II.
type Fig9Row struct {
	Dataset string
	Method  string // "CODL" | "CODL-" | "CODR"
	AvgTime time.Duration
	Queries int
	// TimedOut is set when the method hit the per-method time limit before
	// finishing the workload (the paper's "cannot process within the time
	// limit" on LiveJournal).
	TimedOut bool
}

// MethodCODLMinus labels the CODL⁻ rows of Fig. 9.
const MethodCODLMinus = "CODL-"

// RunRuntime regenerates Fig. 9 for one dataset: average per-query wall time
// of fully optimized CODL versus CODL⁻ (LORE without the HIMOR index) and
// CODR (global reclustering per query, no hierarchy cache). limit, when
// positive, bounds the total time per method.
func RunRuntime(cfg Config, k int, limit time.Duration) ([]Fig9Row, error) {
	cfg = cfg.withDefaults()
	if k <= 0 {
		k = 5
	}
	e, err := newEnv(cfg, true)
	if err != nil {
		return nil, err
	}
	// One engine runs all three methods. Its attribute-tree cache is off, so
	// CODR pays the global recluster on every query.
	eng := e.queryEngine()

	run := func(method string, v engine.Variant) Fig9Row {
		row := Fig9Row{Dataset: cfg.Dataset, Method: method}
		start := time.Now()
		for qi, q := range e.queries {
			if limit > 0 && time.Since(start) > limit {
				row.TimedOut = true
				break
			}
			rng := e.rng(uint64(qi)*31 + uint64(len(method)))
			pl := eng.CompileSpec(engine.Spec{Variant: v, Q: q.Node, Attr: q.Attr, K: k})
			if _, err := eng.Execute(context.Background(), pl, rng); err == nil {
				row.Queries++
			}
		}
		if row.Queries > 0 {
			row.AvgTime = time.Since(start) / time.Duration(row.Queries)
		}
		return row
	}

	return []Fig9Row{
		run(MethodCODL, engine.VariantCODL),
		run(MethodCODLMinus, engine.VariantCODLNoIndex),
		run(MethodCODR, engine.VariantCODR),
	}, nil
}

// TableIIRow reports the HIMOR construction overhead for one dataset.
type TableIIRow struct {
	Dataset   string
	BuildTime time.Duration
	IndexMB   float64
	InputMB   float64
	SumDepth  int64
}

// RunIndexOverhead regenerates Table II for one dataset: HIMOR build time,
// index memory, and the input size (graph + hierarchy) for comparison.
func RunIndexOverhead(cfg Config) (*TableIIRow, error) {
	cfg = cfg.withDefaults()
	e, err := newEnv(cfg, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx, err := core.BuildHimorWithSamplerCtx(context.Background(), e.g, e.tree,
		influence.NewSampler(e.g, e.model, e.rng(0x7777)), cfg.Theta)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)

	// Input size: CSR adjacency (2m int32 + n+1 offsets), attributes, plus
	// the dendrogram parent array (2n-1 int32).
	inputBytes := int64(4*(2*e.g.M()+e.g.N()+1)) + int64(4*e.tree.NumVertices())
	for v := 0; v < e.g.N(); v++ {
		inputBytes += int64(4 * len(e.g.Attrs(int32(v))))
	}
	return &TableIIRow{
		Dataset:   cfg.Dataset,
		BuildTime: build,
		IndexMB:   float64(idx.ApproxBytes()) / (1 << 20),
		InputMB:   float64(inputBytes) / (1 << 20),
		SumDepth:  e.tree.SumLeafDepths(),
	}, nil
}
