// Package engine is the pooled query-execution layer every COD pipeline
// routes through. It compiles a query into an explicit plan — weight →
// chain → sample → evaluate → extract — and executes the plan over shared
// offline state with sync.Pool-backed scratch arenas (RR sampling buffers,
// compressed-evaluation working sets, membership masks) plus an optional
// bounded per-attribute RR-sample cache, so a serving process answers many
// concurrent queries without per-sample allocation churn.
//
// Determinism (DESIGN.md §9, §12): with the sample cache disabled the engine
// consumes randomness in exactly the order the pre-engine pipelines did, so
// query answers are byte-identical to the historical CODU/CODR/CODL
// behavior for equal seeds. With the cache enabled, shared sample pools are
// generated from per-item seeds derived from (seed, attr, epoch), making a
// cache hit byte-identical to a cache miss and the whole system independent
// of query arrival order.
package engine

import (
	"context"
	"math/rand/v2"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
)

// Model selects the influence model driving RR-graph sampling. The COD
// machinery is model-agnostic as long as the model admits RR-set evaluation
// (§II); IC with weighted-cascade probabilities is the paper's default.
type Model int

const (
	// ICWeightedCascade is the independent cascade model with
	// p(u,v) = 1/|N(v)| (the paper's setting).
	ICWeightedCascade Model = iota
	// LTUniform is the linear threshold model with b(u,v) = 1/|N(v)|.
	LTUniform
)

// NewGraphSampler returns a sampler for the model over g driven by rng.
func NewGraphSampler(g *graph.Graph, m Model, rng *rand.Rand) influence.ArenaSampler {
	return newArenaSampler(g, m, rng)
}

// arenaSampler is the sampler contract the engine executes plans with: the
// arena-writing influence.ArenaSampler plus rng rebinding, so a pooled
// sampler (with its per-graph visited marks) serves successive queries that
// each carry their own deterministic stream.
type arenaSampler interface {
	influence.ArenaSampler
	SetRand(rng *rand.Rand)
}

func newArenaSampler(g *graph.Graph, m Model, rng *rand.Rand) arenaSampler {
	if m == LTUniform {
		return influence.NewLTSampler(g, influence.UniformLT{G: g}, rng)
	}
	return influence.NewSampler(g, influence.NewWeightedCascade(g), rng)
}

// Params bundles the knobs shared by all COD pipelines.
type Params struct {
	// K is the required influence rank: q must be top-K in C*(q). Default 5.
	K int
	// Theta is the per-node RR multiplier θ (Θ = θ·n samples). Default 10.
	Theta int
	// Beta is the extra weight on query-attributed edges in g_ℓ. Default 1.
	Beta float64
	// Linkage selects the agglomerative linkage. Default UnweightedAverage.
	Linkage hac.Linkage
	// Seed drives all sampling for reproducibility.
	Seed uint64
	// Model selects the influence model (default ICWeightedCascade).
	Model Model
	// Balanced rebalances the non-attributed hierarchy along heavy paths
	// (hier.Rebalance), bounding |H(q)| polylogarithmically on hub-skewed
	// graphs at the cost of exact agglomerative faithfulness.
	Balanced bool
	// Workers parallelizes offline RR sampling (HIMOR construction) across
	// goroutines; <= 1 means sequential. Purely a performance knob: each RR
	// graph draws from a stream seeded by its pool index, so the output is
	// identical for every Workers value. Only the IC model parallelizes
	// currently.
	Workers int
}

// clusterTree builds the non-attributed hierarchy per the params.
func clusterTree(ctx context.Context, g *graph.Graph, p Params) (*hier.Tree, error) {
	if p.Balanced {
		return hac.ClusterBalancedCtx(ctx, g, p.Linkage)
	}
	return hac.ClusterCtx(ctx, g, p.Linkage)
}

// WithDefaults returns p with zero-value tuning fields replaced by the
// paper's defaults. Persistence uses it to compare saved and requested
// parameters in canonical form.
func (p Params) WithDefaults() Params { return p.withDefaults() }

// withDefaults fills zero values with the paper's defaults.
func (p Params) withDefaults() Params {
	if p.K <= 0 {
		p.K = 5
	}
	if p.Theta <= 0 {
		p.Theta = 10
	}
	if p.Beta <= 0 {
		p.Beta = 1
	}
	return p
}

// Community is the answer to a COD query.
type Community struct {
	// Nodes of C*(q), ascending; nil when Found is false.
	Nodes []graph.NodeID
	// Found reports whether any community in the hierarchy had q top-k.
	Found bool
	// Level is the chain index of the chosen community (diagnostics).
	Level int
	// FromIndex is true when the HIMOR index answered without evaluation.
	FromIndex bool
	// Rank is q's influence rank within the chosen community (1 = most
	// influential); 0 when unknown (not found, or a legacy evaluation that
	// did not track ranks).
	Rank int
}

// Size returns |C*| (0 when not found).
func (c Community) Size() int { return len(c.Nodes) }
