package cod

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"

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
	// resident across DiscoverGlobal calls. Reclustering is deterministic,
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
	g    *Graph
	opts Options
	eng  *engine.Engine
	seq  atomic.Uint64
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
	params := engine.Params{K: opts.K, Theta: opts.Theta, Beta: opts.Beta, Linkage: opts.Linkage,
		Seed: opts.Seed, Model: opts.Model, Balanced: opts.Balanced, Workers: opts.Workers}
	cfg := engine.Config{SampleCache: opts.SampleCache, CacheAttrTrees: opts.CacheHierarchies,
		Adaptive: opts.Adaptive}
	eng, err := engine.Build(ctx, g.internalGraph(), params, cfg)
	if err != nil {
		return nil, err
	}
	return &Searcher{g: g, opts: opts, eng: eng}, nil
}

// Discover finds the characteristic community of q for the query attribute
// using the fully optimized CODL pipeline (LORE + HIMOR, Algorithm 3).
func (s *Searcher) Discover(q NodeID, attr AttrID) (Community, error) {
	return s.DiscoverCtx(context.Background(), q, attr)
}

// DiscoverCtx is Discover with cancellation: every long-running phase (LORE
// reclustering, restricted RR sampling, compressed evaluation) polls
// ctx.Err() at bounded intervals. A canceled query returns an error that
// wraps both a *CanceledError (partial progress) and the context error; the
// query consumes its deterministic seed either way, so a retried query on
// the same Searcher draws a fresh stream. Uncancelled results are
// byte-identical to Discover.
func (s *Searcher) DiscoverCtx(ctx context.Context, q NodeID, attr AttrID) (Community, error) {
	return s.discoverSpec(ctx, engine.Spec{Variant: engine.VariantCODL, Q: q, Attr: attr}, attr)
}

// discoverSpec runs one typed query through the engine, preserving the
// historical sequence exactly: validate (counting rejects), draw the
// per-query seed, stamp the trace ID, execute the compiled plan, count the
// outcome. Every Discover entrypoint — legacy and DSL — routes through it,
// so a single-attribute DSL query is byte-identical (trace IDs included) to
// its legacy counterpart.
func (s *Searcher) discoverSpec(ctx context.Context, sp engine.Spec, vattr AttrID) (Community, error) {
	rec := obs.FromContext(ctx)
	if err := s.g.validate(sp.Q, vattr); err != nil {
		rec.CountQuery(err)
		return Community{}, err
	}
	return s.discoverSeeded(ctx, sp, s.nextSeed())
}

// discoverSeeded executes a validated spec with an explicit per-query seed:
// the shared tail of the live path (which draws the seed from the sequence)
// and the replay path (which re-supplies a logged one).
func (s *Searcher) discoverSeeded(ctx context.Context, sp engine.Spec, seed uint64) (Community, error) {
	rec := obs.FromContext(ctx)
	rec.EnsureTraceID(seed)
	com, err := s.eng.Execute(ctx, s.eng.CompileSpec(sp), graph.NewRand(seed))
	rec.CountQuery(err)
	if err != nil {
		return Community{}, err
	}
	return communityOf(com), nil
}

// communityOf is the public form of an engine answer, shared by every
// searcher that executes engine plans.
func communityOf(com engine.Community) Community {
	return Community{Nodes: com.Nodes, Found: com.Found, FromIndex: com.FromIndex, Rank: com.Rank}
}

// ReplaySeededCtx re-runs a previously logged query: expr is the query's
// normalized expression (it must carry a node= knob — event logs record
// one), seed the logged per-query seed. The query executes outside the
// Searcher's seed sequence, so replays never perturb live traffic's
// deterministic streams, and a replay on an identically built Searcher is
// byte-identical to the original execution — community, rank, and
// seed-derived trace ID alike.
func (s *Searcher) ReplaySeededCtx(ctx context.Context, expr string, seed uint64) (Community, error) {
	pq, err := s.Prepare(expr)
	if err != nil {
		return Community{}, err
	}
	if !pq.hasNode {
		return Community{}, fmt.Errorf("cod: replay expression %q needs a node= knob", expr)
	}
	sp := pq.spec(pq.node)
	if err := s.g.validate(sp.Q, pq.attr); err != nil {
		return Community{}, err
	}
	return s.discoverSeeded(ctx, sp, seed)
}

// DiscoverUnattributed finds the characteristic community of q ignoring
// attributes (the paper's CODU variant).
func (s *Searcher) DiscoverUnattributed(q NodeID) (Community, error) {
	return s.DiscoverUnattributedCtx(context.Background(), q)
}

// DiscoverUnattributedCtx is DiscoverUnattributed with cancellation (see
// DiscoverCtx).
func (s *Searcher) DiscoverUnattributedCtx(ctx context.Context, q NodeID) (Community, error) {
	return s.discoverSpec(ctx, engine.Spec{Variant: engine.VariantCODU, Q: q}, 0)
}

// DiscoverGlobal finds the characteristic community of q by globally
// reclustering the attribute-weighted graph (the paper's CODR variant).
// It is substantially slower than Discover on large graphs.
func (s *Searcher) DiscoverGlobal(q NodeID, attr AttrID) (Community, error) {
	return s.DiscoverGlobalCtx(context.Background(), q, attr)
}

// DiscoverGlobalCtx is DiscoverGlobal with cancellation: the global
// recluster's merge loop, the sampling loop and the evaluation all poll
// ctx.Err() at bounded intervals (see DiscoverCtx).
func (s *Searcher) DiscoverGlobalCtx(ctx context.Context, q NodeID, attr AttrID) (Community, error) {
	return s.discoverSpec(ctx, engine.Spec{Variant: engine.VariantCODR, Q: q, Attr: attr}, attr)
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
	theta := s.opts.Theta
	if theta <= 0 {
		theta = 10
	}
	sampler := engine.NewGraphSampler(s.g.internalGraph(), s.opts.Model, s.nextRand())
	total := theta * s.g.N()
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
	theta := s.opts.Theta
	if theta <= 0 {
		theta = 10
	}
	sampler := engine.NewGraphSampler(s.g.internalGraph(), s.opts.Model, s.nextRand())
	pool, err := influence.BatchPoolCtx(ctx, sampler, theta*s.g.N(), influence.NewArena())
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

// Validate reports whether (q, attr) is a well-formed query against this
// Searcher's graph, using the same error shape as every query API: callers
// (e.g. HTTP front ends) can reject malformed input before spending any
// query work.
func (s *Searcher) Validate(q NodeID, attr AttrID) error { return s.g.validate(q, attr) }

// validate is the argument check of every query API of Searcher and
// DynamicSearcher, run before any query work or seed draw: q must be a node
// of g and attr one of its attributes (any non-negative attr on a graph
// without attributes).
func (g *Graph) validate(q NodeID, attr AttrID) error {
	if q < 0 || int(q) >= g.N() {
		return &RangeError{What: "query node", Value: int64(q), N: g.N()}
	}
	if attr < 0 || (g.NumAttrs() > 0 && int(attr) >= g.NumAttrs()) {
		return &RangeError{What: "attribute", Value: int64(attr), N: g.NumAttrs(),
			Known: g.AttrNames()}
	}
	return nil
}

// Engine exposes the underlying query engine (epoch, caches, plan API).
func (s *Searcher) Engine() *engine.Engine { return s.eng }

// Graph returns the attributed graph this Searcher queries. Index
// distribution serializes it alongside the index so a fetched snapshot is
// self-contained.
func (s *Searcher) Graph() *Graph { return s.g }

// nextSeed derives a fresh deterministic per-query seed. The sequence
// counter is atomic, so concurrent queries each get a distinct stream; the
// mapping from arrival order to stream is first-come-first-seeded. The seed
// doubles as the query's trace-ID source: it is drawn after validation and
// never conditionally on instrumentation, so instrumented runs consume the
// sequence identically to plain ones.
func (s *Searcher) nextSeed() uint64 {
	return graph.ItemSeed(s.opts.Seed, int(s.seq.Add(1)-1))
}

// nextRand derives a fresh deterministic stream per query (see nextSeed).
func (s *Searcher) nextRand() *rand.Rand {
	return graph.NewRand(s.nextSeed())
}
