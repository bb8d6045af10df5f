package cod

import (
	"context"
	"sync"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

// Query pairs a node with a query attribute for batch discovery. Expr, when
// non-empty, replaces Attr with a full query expression (predicate, filters,
// knobs — see PreparedQuery); Node still supplies the query node unless the
// expression carries a node= knob. Queries with an empty Expr run the legacy
// single-attribute CODL path byte-identically.
type Query struct {
	Node NodeID
	Attr AttrID
	Expr string
}

// BatchResult is one query's outcome within DiscoverBatch.
type BatchResult struct {
	Query     Query
	Community Community
	Err       error
}

// DiscoverBatch answers many COD queries concurrently over the shared
// offline state (the hierarchy and HIMOR index are read-only at query
// time). Results are returned in input order. workers <= 0 picks one
// worker per query up to 8. Each query gets a deterministic seed derived
// from Options.Seed and its position, so results are reproducible
// regardless of scheduling.
func (s *Searcher) DiscoverBatch(queries []Query, workers int) []BatchResult {
	return s.DiscoverBatchCtx(context.Background(), queries, workers)
}

// DiscoverBatchCtx is DiscoverBatch with cancellation. All queries are
// validated up front with the same error shape as Discover (out-of-range
// nodes and attributes are reported identically and consume no query work).
// Workers check the context before starting each query and inside each
// query's sampling loops; when the context ends, queries already completed
// keep their results — per-item seeding makes them identical to an
// uncancelled run — and every unstarted or interrupted query reports an
// error wrapping the context error.
func (s *Searcher) DiscoverBatchCtx(ctx context.Context, queries []Query, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	// Up-front validation: one error shape for node and attribute, applied
	// before any query work. Each query's engine spec is built here too —
	// expressions are prepared once per distinct expression — so workers
	// never parse and a malformed expression rejects before any query work.
	prepared := make(map[string]*PreparedQuery)
	specs := make([]engine.Spec, len(queries))
	for i, q := range queries {
		out[i].Query = q
		if q.Expr == "" {
			specs[i] = engine.Spec{Variant: engine.VariantCODL, Q: q.Node, Attr: q.Attr}
			out[i].Err = s.validate(q.Node, q.Attr)
			continue
		}
		pq, ok := prepared[q.Expr]
		if !ok {
			var err error
			if pq, err = s.Prepare(q.Expr); err != nil {
				out[i].Err = err
				continue
			}
			prepared[q.Expr] = pq
		}
		node := q.Node
		if pq.hasNode {
			node = pq.node
		}
		specs[i] = pq.spec(node)
		out[i].Err = s.validate(node, pq.attr)
	}
	if workers <= 0 {
		workers = len(queries)
		if workers > 8 {
			workers = 8
		}
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	// One Recorder shared by every worker: counters are atomic and the trace
	// serializes span appends, so concurrent workers record safely. The batch
	// gets one trace ID derived statelessly from (Seed, batch size) before any
	// worker starts; the trace keeps its first ID and seed, so the items'
	// own stamps in discoverSeeded leave it unchanged. The per-item streams
	// stay untouched and the Searcher's query sequence is not consumed, so
	// batch instrumentation stays byte-invisible.
	rec := obs.FromContext(ctx)
	rec.EnsureTraceID(graph.ItemSeed(s.opts.Seed^0xba7c4, len(queries)))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers share the Searcher's engine: offline state is read-only
			// at query time and per-query scratch comes from the engine's pool,
			// so concurrent workers reuse arenas instead of allocating.
			for i := range jobs {
				if out[i].Err != nil {
					rec.CountQuery(out[i].Err) // rejected by up-front validation
					continue
				}
				if err := ctx.Err(); err != nil {
					out[i].Err = &CanceledError{Op: "cod: batch query", Done: 0, Total: 1, Cause: err}
					rec.CountQuery(out[i].Err)
					continue
				}
				out[i].Community, out[i].Err = s.discoverSeeded(ctx, specs[i], graph.ItemSeed(s.opts.Seed, i))
			}
		}()
	}
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
