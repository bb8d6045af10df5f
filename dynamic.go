package cod

import (
	"context"

	"github.com/codsearch/cod/internal/dynamic"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

// FlushStrategy selects how DynamicSearcher.Flush rebuilds its state.
type FlushStrategy = dynamic.Strategy

// FlushStrategy values.
const (
	// FlushAuto reclusters locally when the updates are confined to a small
	// community, fully otherwise.
	FlushAuto = dynamic.Auto
	// FlushLocal forces the local subtree recluster.
	FlushLocal = dynamic.RebuildLocal
	// FlushFull forces a full recluster.
	FlushFull = dynamic.RebuildFull
)

// DynamicSearcher answers COD queries over a graph that receives edge
// insertions: updates are buffered with AddEdge and folded in with Flush,
// which reclusters either the affected subtree or the whole graph and
// rebuilds the influence index (see the paper's future-work discussion on
// dynamic graphs). Not safe for concurrent use.
type DynamicSearcher struct {
	u *dynamic.Updater
	// g validates query arguments: edge insertions keep its node and
	// attribute ranges.
	g    *Graph
	opts Options
	seq  uint64
}

// NewDynamicSearcher builds the initial state for g.
func NewDynamicSearcher(g *Graph, opts Options) (*DynamicSearcher, error) {
	u, err := dynamic.New(g.internalGraph(), engine.Params{
		K: opts.K, Theta: opts.Theta, Beta: opts.Beta,
		Linkage: opts.Linkage, Seed: opts.Seed, Model: opts.Model,
	})
	if err != nil {
		return nil, err
	}
	return &DynamicSearcher{u: u, g: g, opts: opts}, nil
}

// AddEdge buffers an undirected edge insertion; it becomes visible to
// queries after the next Flush.
func (d *DynamicSearcher) AddEdge(u, v NodeID) error { return d.u.AddEdge(u, v) }

// Pending returns the number of buffered insertions.
func (d *DynamicSearcher) Pending() int { return d.u.Pending() }

// Flush applies buffered insertions and rebuilds the hierarchy and index.
func (d *DynamicSearcher) Flush(s FlushStrategy) error { return d.u.Flush(s) }

// Discover answers a COD query over the current (flushed) state.
func (d *DynamicSearcher) Discover(q NodeID, attr AttrID) (Community, error) {
	return d.DiscoverCtx(context.Background(), q, attr)
}

// DiscoverCtx is Discover with cancellation and instrumentation: a Recorder
// carried by ctx receives the query counters, step spans, and a
// deterministic trace ID derived from the query's seed. The query consumes
// its seed whether or not a Recorder is attached, so instrumented runs stay
// byte-identical.
func (d *DynamicSearcher) DiscoverCtx(ctx context.Context, q NodeID, attr AttrID) (Community, error) {
	return d.query(ctx, q, attr, d.u.QueryCtx)
}

// DiscoverGlobal answers a CODR-variant query (global recluster of the
// attribute-weighted graph) over the current state, sharing the updater's
// engine — and therefore its epoch-keyed caches — with Discover.
func (d *DynamicSearcher) DiscoverGlobal(q NodeID, attr AttrID) (Community, error) {
	return d.DiscoverGlobalCtx(context.Background(), q, attr)
}

// DiscoverGlobalCtx is DiscoverGlobal with cancellation and instrumentation
// (see DiscoverCtx).
func (d *DynamicSearcher) DiscoverGlobalCtx(ctx context.Context, q NodeID, attr AttrID) (Community, error) {
	return d.query(ctx, q, attr, d.u.QueryGlobalCtx)
}

// query validates (q, attr) with Searcher's check before it draws the
// query's seed, so a rejected query consumes none, then runs it.
func (d *DynamicSearcher) query(ctx context.Context, q NodeID, attr AttrID,
	run func(context.Context, NodeID, AttrID, uint64) (engine.Community, error)) (Community, error) {
	rec := obs.FromContext(ctx)
	if err := d.g.validate(q, attr); err != nil {
		rec.CountQuery(err)
		return Community{}, err
	}
	seed := graph.ItemSeed(d.opts.Seed, int(d.seq))
	d.seq++
	com, err := run(ctx, q, attr, seed)
	rec.CountQuery(err)
	if err != nil {
		return Community{}, err
	}
	return communityOf(com), nil
}

// N returns the current node count; M the current edge count (excluding
// pending insertions).
func (d *DynamicSearcher) N() int { return d.u.Graph().N() }

// M returns the current number of edges, excluding pending insertions.
func (d *DynamicSearcher) M() int { return d.u.Graph().M() }
