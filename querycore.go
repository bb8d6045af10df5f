package cod

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

// queryCore is the one query path of every searcher: Searcher and
// DynamicSearcher embed it, and HeteroSearcher runs its queries through one
// built over its meta-path projection. A query is lowered to an engine spec
// and validated against g (a rejected query is counted and draws no seed),
// draws its per-query seed, stamps the trace ID derived from that seed,
// compiles, executes, and counts its outcome. Batch items and replays take
// the same path with seeds of their own.
type queryCore struct {
	g    *Graph // validates query arguments and resolves attribute names
	eng  *engine.Engine
	seed uint64 // Options.Seed, the root of every per-query seed
	seq  atomic.Uint64
}

// newQueryCore returns the query path over eng, validating against g.
func newQueryCore(g *Graph, eng *engine.Engine) queryCore {
	return queryCore{g: g, eng: eng, seed: eng.Params().Seed}
}

// Discover finds the characteristic community of q for the query attribute
// with the CODL pipeline (LORE + HIMOR, Algorithm 3). It is the shorthand of
// the single-attribute expression; the other variants, compound predicates,
// community filters and knobs are picked by expression (see Prepare).
func (c *queryCore) Discover(q NodeID, attr AttrID) (Community, error) {
	return c.DiscoverCtx(context.Background(), q, attr)
}

// DiscoverCtx is Discover with cancellation: every long-running phase (LORE
// reclustering, restricted RR sampling, compressed evaluation) polls
// ctx.Err() at bounded intervals. A canceled query returns an error that
// wraps both a *CanceledError (partial progress) and the context error; the
// query consumes its deterministic seed either way, so a retried query on
// the same searcher draws a fresh stream. Uncancelled results are
// byte-identical to Discover. A Recorder carried by ctx receives the query
// counters, step spans and the seed-derived trace ID; instrumented runs stay
// byte-identical too.
func (c *queryCore) DiscoverCtx(ctx context.Context, q NodeID, attr AttrID) (Community, error) {
	sp, err := c.lowerCODL(q, attr)
	return c.discover(ctx, sp, err)
}

// lowerCODL is the single-attribute CODL query (q, attr) as an engine spec,
// with its validation error.
func (c *queryCore) lowerCODL(q NodeID, attr AttrID) (engine.Spec, error) {
	return engine.Spec{Variant: engine.VariantCODL, Q: q, Attr: attr}, c.g.validate(q, attr)
}

// discover runs a lowered query on the live seed sequence. A query its
// lowering rejected is counted and draws no seed, so rejects never shift
// the streams of later queries.
func (c *queryCore) discover(ctx context.Context, sp engine.Spec, err error) (Community, error) {
	if err != nil {
		obs.FromContext(ctx).CountQuery(err)
		return Community{}, err
	}
	return c.run(ctx, sp, c.nextSeed())
}

// run executes a validated spec with an explicit per-query seed: the shared
// tail of the live path (which draws the seed from the sequence), the batch
// (which derives it from the item's position) and replay (which re-supplies
// a logged one).
func (c *queryCore) run(ctx context.Context, sp engine.Spec, seed uint64) (Community, error) {
	rec := obs.FromContext(ctx)
	rec.EnsureTraceID(seed)
	com, err := c.eng.Execute(ctx, c.eng.CompileSpec(sp), graph.NewRand(seed))
	rec.CountQuery(err)
	if err != nil {
		return Community{}, err
	}
	return Community{Nodes: com.Nodes, Found: com.Found, FromIndex: com.FromIndex, Rank: com.Rank}, nil
}

// ReplaySeededCtx re-runs a previously logged query: expr is the query's
// normalized expression (it must carry a node= knob — event logs record
// one), seed the logged per-query seed. The query executes outside the
// seed sequence, so replays never perturb live traffic's deterministic
// streams, and a replay on an identically built searcher is byte-identical
// to the original execution — community, rank, and seed-derived trace ID
// alike.
func (c *queryCore) ReplaySeededCtx(ctx context.Context, expr string, seed uint64) (Community, error) {
	pq, err := c.Prepare(expr)
	if err != nil {
		return Community{}, err
	}
	if !pq.hasNode {
		return Community{}, fmt.Errorf("cod: replay expression %q needs a node= knob", expr)
	}
	sp, err := pq.lower(pq.node)
	if err != nil {
		return Community{}, err
	}
	return c.run(ctx, sp, seed)
}

// Validate reports whether (q, attr) is a well-formed query against the
// searcher's graph, using the same error shape as every query API: callers
// (e.g. HTTP front ends) can reject malformed input before spending any
// query work.
func (c *queryCore) Validate(q NodeID, attr AttrID) error { return c.g.validate(q, attr) }

// validate is the argument check of every query, run before any query work
// or seed draw: q must be a node of g and attr one of its attributes (any
// non-negative attr on a graph without attributes).
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

// nextSeed derives a fresh deterministic per-query seed. The sequence
// counter is atomic, so concurrent queries each get a distinct stream; the
// mapping from arrival order to stream is first-come-first-seeded. The seed
// doubles as the query's trace-ID source: it is drawn after validation and
// never conditionally on instrumentation, so instrumented runs consume the
// sequence identically to plain ones.
func (c *queryCore) nextSeed() uint64 {
	return graph.ItemSeed(c.seed, int(c.seq.Add(1)-1))
}
