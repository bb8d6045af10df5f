package cod

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/im"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// CanceledError is returned (wrapped) by the *Ctx query APIs when a context
// deadline or cancellation interrupts a query. It carries how many
// Monte-Carlo units completed before the stop; completed work is
// deterministic, only the tail is missing. It unwraps to the context error,
// so errors.Is(err, context.DeadlineExceeded) distinguishes timeouts from
// explicit cancellation.
type CanceledError = influence.CanceledError

// Linkage selects the agglomerative clustering linkage used to build the
// community hierarchy.
type Linkage = hac.Linkage

// Linkage values.
const (
	// UnweightedAverage (UPGMA) is the paper's default linkage.
	UnweightedAverage = hac.UnweightedAverage
	// WeightedAverage is WPGMA.
	WeightedAverage = hac.WeightedAverage
	// Single is single linkage.
	Single = hac.Single
)

// Model selects the influence model used for sampling.
type Model = engine.Model

// Model values.
const (
	// ModelIC is the independent cascade model with weighted-cascade
	// probabilities p(u,v) = 1/deg(v) — the paper's default.
	ModelIC = engine.ICWeightedCascade
	// ModelLT is the linear threshold model with b(u,v) = 1/deg(v).
	ModelLT = engine.LTUniform
)

// Options configures a Searcher. The zero value uses the paper's defaults:
// k = 5, θ = 10 RR graphs per node, β = 1, UPGMA linkage, IC model, seed 0.
type Options struct {
	// K is the required influence rank: the query node must be among the
	// top-K influential nodes of its characteristic community.
	K int
	// Theta is the per-node sampling multiplier θ (Θ = θ·N RR graphs).
	Theta int
	// Beta is the extra weight applied to query-attributed edges when LORE
	// derives the attribute-weighted graph g_ℓ.
	Beta float64
	// Linkage is the agglomerative linkage function.
	Linkage Linkage
	// Seed drives all randomness; equal seeds give identical results.
	Seed uint64
	// Model is the influence model (ModelIC or ModelLT).
	Model Model
	// Balanced rebalances the hierarchy along heavy paths, bounding every
	// node's community chain polylogarithmically on hub-skewed graphs (at
	// the cost of exact agglomerative faithfulness). It cuts HIMOR size and
	// build time dramatically on retweet-like topologies.
	Balanced bool
	// Workers parallelizes the offline sampling phase across goroutines
	// (<= 1 = sequential). Purely a performance knob: results are identical
	// for every Workers value under a fixed Seed.
	Workers int
	// SampleCache bounds the engine's per-attribute RR sample-pool cache
	// (number of resident pools); 0 disables it. With the cache off, every
	// query draws from its own seeded stream exactly as prior releases did.
	// With it on, whole-graph sample pools are generated from per-item seeds
	// derived from (Seed, attribute, epoch) and shared across queries: still
	// fully deterministic (a hit is byte-identical to a miss, independent of
	// arrival order), but a different stream than the cache-off mode.
	SampleCache int
	// CacheHierarchies keeps CODR per-attribute reclustered hierarchies
	// resident across variant=codr queries. Reclustering is deterministic,
	// so caching never changes answers — it trades memory for latency.
	CacheHierarchies bool
	// Adaptive enables bounded-error staged evaluation: queries grow their
	// RR sample pool in geometric stages and stop as soon as the rank-k
	// decision is certified at confidence 1−Delta (within an Eps margin
	// slack). Off by default; when off, behavior and results are
	// byte-identical to prior releases. A run that reaches the final stage
	// consumes the query stream in exactly the full-budget draw order, so
	// its answer equals the non-adaptive one.
	Adaptive AdaptiveOptions
}

// AdaptiveOptions configures bounded-error staged evaluation (see
// Options.Adaptive); the zero value is off, and an enabled zero value uses
// ε = δ = 0.05 with 4 geometric stages.
type AdaptiveOptions = engine.Adaptive

// Community is the result of a characteristic-community query.
type Community struct {
	// Nodes of C*(q) in ascending order; empty when Found is false.
	Nodes []NodeID
	// Found reports whether any hierarchy community had the query top-k.
	Found bool
	// FromIndex is true when the HIMOR index answered the query directly.
	FromIndex bool
	// Rank is the query node's influence rank within the community (1 = most
	// influential); 0 when not found.
	Rank int
}

// RangeError reports a query argument outside the graph's range. Its message
// keeps the historical "cod: <what> <value> out of range [0,<n>)" shape;
// when the graph has an attribute-name registry, an attribute error also
// lists the known names so callers can self-correct. HTTP front ends map it
// to a 400 with the structured fields.
type RangeError struct {
	// What names the argument: "query node" or "attribute".
	What string
	// Value is the rejected argument.
	Value int64
	// N is the exclusive upper bound of the valid range.
	N int
	// Known lists the registered attribute names (attribute errors on graphs
	// with a name registry only).
	Known []string
}

func (e *RangeError) Error() string {
	msg := fmt.Sprintf("cod: %s %d out of range [0,%d)", e.What, e.Value, e.N)
	if len(e.Known) > 0 {
		msg += fmt.Sprintf(" (known attributes: %s)", strings.Join(e.Known, ", "))
	}
	return msg
}

// Size returns |C*| (0 when not found).
func (c Community) Size() int { return len(c.Nodes) }

// Contains reports whether v belongs to the community.
func (c Community) Contains(v NodeID) bool {
	for _, u := range c.Nodes {
		if u == v {
			return true
		}
	}
	return false
}

// Searcher answers COD queries over one graph. Construction runs the
// offline phase: agglomerative hierarchical clustering of the graph and
// compressed HIMOR index construction; queries compile to engine plans and
// execute over pooled scratch arenas. A Searcher is safe for concurrent use:
// each query draws its own deterministic stream and per-query scratch.
type Searcher struct {
	queryCore
}

// engineConfig is the one mapping from Options to the engine's parameters
// and configuration: every searcher builds its engine from it, and the
// index header records its parameters. A NaN or infinite Beta is an error:
// it would turn every boosted edge weight into NaN or +Inf.
func (o Options) engineConfig() (engine.Params, engine.Config, error) {
	if math.IsNaN(o.Beta) || math.IsInf(o.Beta, 0) {
		return engine.Params{}, engine.Config{}, fmt.Errorf("cod: Options.Beta %g is not finite", o.Beta)
	}
	return engine.Params{K: o.K, Theta: o.Theta, Beta: o.Beta, Linkage: o.Linkage,
			Seed: o.Seed, Model: o.Model, Balanced: o.Balanced, Workers: o.Workers},
		engine.Config{SampleCache: o.SampleCache, CacheAttrTrees: o.CacheHierarchies,
			Adaptive: o.Adaptive}, nil
}

// NewSearcher builds the hierarchy and HIMOR index for g.
func NewSearcher(g *Graph, opts Options) (*Searcher, error) {
	return NewSearcherCtx(context.Background(), g, opts)
}

// NewSearcherCtx is NewSearcher with a cancellable offline phase: the
// clustering merge loop and HIMOR RR sampling poll ctx.Err() at bounded
// intervals, so a serving process can abandon warmup on shutdown. An
// uncancelled build is identical to NewSearcher for the same options.
func NewSearcherCtx(ctx context.Context, g *Graph, opts Options) (*Searcher, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("cod: empty graph")
	}
	params, cfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	eng, err := engine.Build(ctx, g.internalGraph(), params, cfg)
	if err != nil {
		return nil, err
	}
	return &Searcher{newQueryCore(g, eng)}, nil
}

// EstimateInfluence estimates σ_g(v), the expected IC spread of v over the
// whole graph, from θ·N shared RR sets.
func (s *Searcher) EstimateInfluence(v NodeID) (float64, error) {
	return s.EstimateInfluenceCtx(context.Background(), v)
}

// EstimateInfluenceCtx is EstimateInfluence with cancellation: the sampling
// loop polls ctx.Err() once per bounded interval and aborts with a
// *CanceledError carrying the completed sample count.
func (s *Searcher) EstimateInfluenceCtx(ctx context.Context, v NodeID) (float64, error) {
	if err := s.g.validate(v, 0); err != nil {
		return 0, err
	}
	p := s.eng.Params()
	sampler := engine.NewGraphSampler(s.g.internalGraph(), p.Model, graph.NewRand(s.nextSeed()))
	total := p.Theta * s.g.N()
	span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
	count := 0
	for i := 0; i < total; i++ {
		if i%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				span.EndItems(i)
				return 0, &CanceledError{Op: "cod: influence estimation", Done: i, Total: total, Cause: err}
			}
		}
		for _, u := range sampler.RRGraph().Nodes {
			if u == v {
				count++
				break
			}
		}
	}
	span.EndItems(total)
	return influence.InfluenceFromCount(count, total, s.g.N()), nil
}

// MaximizeInfluence runs RIS-based influence maximization: it returns up to
// k seed nodes greedily maximizing expected IC spread over the whole graph,
// plus the estimated spread of that seed set. This is the global
// counterpart to Discover: IM asks "who matters most overall", COD asks
// "where does this node matter". Selection stops early when additional
// seeds bring no marginal coverage.
func (s *Searcher) MaximizeInfluence(k int) ([]NodeID, float64, error) {
	return s.MaximizeInfluenceCtx(context.Background(), k)
}

// MaximizeInfluenceCtx is MaximizeInfluence with cancellation: the RR pool
// sampling polls ctx.Err() at a bounded interval (the greedy selection over
// the pool is comparatively cheap and runs to completion).
func (s *Searcher) MaximizeInfluenceCtx(ctx context.Context, k int) ([]NodeID, float64, error) {
	if k < 1 || k > s.g.N() {
		return nil, 0, fmt.Errorf("cod: k = %d out of range [1,%d]", k, s.g.N())
	}
	p := s.eng.Params()
	sampler := engine.NewGraphSampler(s.g.internalGraph(), p.Model, graph.NewRand(s.nextSeed()))
	pool, err := influence.BatchPoolCtx(ctx, sampler, p.Theta*s.g.N(), influence.NewArena())
	if err != nil {
		return nil, 0, err
	}
	res, err := im.Select(s.g.internalGraph(), pool, k)
	if err != nil {
		return nil, 0, err
	}
	return res.Seeds, res.Spread(s.g.N()), nil
}

// InfluenceRank returns the precomputed HIMOR rank of q inside its i-th
// enclosing community (0 = smallest), plus that community's size; it errors
// when i is out of range. This exposes the index for inspection.
func (s *Searcher) InfluenceRank(q NodeID, i int) (rank, size int, err error) {
	if err := s.g.validate(q, 0); err != nil {
		return 0, 0, err
	}
	t := s.eng.Tree()
	anc := t.Ancestors(t.LeafOf(q))
	if i < 0 || i >= len(anc) {
		return 0, 0, fmt.Errorf("cod: ancestor index %d out of range [0,%d)", i, len(anc))
	}
	return s.eng.Index().Rank(q, anc[i]), t.Size(anc[i]), nil
}

// HierarchyDepth returns |H(q)|: the number of communities containing q in
// the non-attributed hierarchy.
func (s *Searcher) HierarchyDepth(q NodeID) (int, error) {
	if err := s.g.validate(q, 0); err != nil {
		return 0, err
	}
	t := s.eng.Tree()
	return len(t.Ancestors(t.LeafOf(q))), nil
}

// IndexBytes reports the approximate HIMOR index memory footprint.
func (s *Searcher) IndexBytes() int64 { return s.eng.Index().ApproxBytes() }

// Engine exposes the underlying query engine (epoch, caches, plan API).
func (s *Searcher) Engine() *engine.Engine { return s.eng }

// Graph returns the attributed graph this Searcher queries. Index
// distribution serializes it alongside the index so a fetched snapshot is
// self-contained.
func (s *Searcher) Graph() *Graph { return s.g }
