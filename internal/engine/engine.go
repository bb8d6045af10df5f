package engine

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/query"
)

// Config tunes a query engine beyond the paper parameters.
type Config struct {
	// SampleCache bounds the per-attribute RR sample-pool cache: the number
	// of (attribute, epoch) pools kept resident. 0 disables the cache, in
	// which case global sampling draws from the query's own rng exactly as
	// the pre-engine pipelines did. When enabled, pools are generated from
	// per-item seeds derived from (Params.Seed, attribute, epoch), so a
	// cache hit is byte-identical to a miss and results are independent of
	// query arrival order — but differ from the cache-disabled stream.
	SampleCache int
	// CacheAttrTrees keeps CODR's per-attribute reclustered hierarchies
	// resident. Reclustering is deterministic, so caching never changes
	// answers; it only trades memory for the per-query recluster.
	CacheAttrTrees bool
	// Adaptive enables bounded-error staged evaluation (DESIGN.md §16):
	// sample steps grow the RR pool in geometric stages and stop once the
	// rank-k decision is certified at confidence 1−Delta. It lives in Config
	// rather than Params because it changes how much of the budget a query
	// realizes, not the offline state or the full-budget answer — persisted
	// index manifests stay comparable across adaptive settings.
	Adaptive Adaptive
}

// Engine executes compiled query plans over one graph's offline state. All
// query-path methods (Compile, Execute, AttrTree) are safe for concurrent
// use: every execution draws its scratch from an internal sync.Pool and the
// attribute-tree and sample caches are internally locked. Rebind is not —
// it must be quiesced against in-flight queries (the dynamic updater, its
// only caller, is single-goroutine by contract).
type Engine struct {
	g     *graph.Graph
	tree  *hier.Tree // non-attributed hierarchy (nil for a CODR-only engine)
	index *core.Himor
	p     Params
	cfg   Config

	scratch sync.Pool // *queryScratch
	// scratchLive counts scratches currently checked out of the pool;
	// scratchAlloc counts scratches ever allocated (recycles excluded).
	// Both feed the cod_engine_scratch_* gauges.
	scratchLive  atomic.Int64
	scratchAlloc atomic.Int64

	attrMu    sync.Mutex
	attrTrees map[treeKey]*hier.Tree

	cache *sampleCache // nil when Config.SampleCache == 0

	// epoch versions the graph state for sample-cache keying; Rebind bumps
	// it so pools sampled before a dynamic update can never serve after it.
	epoch atomic.Uint64
}

// New wraps existing offline state (tree and index may be nil for variants
// that do not need them) without doing offline work.
func New(g *graph.Graph, tree *hier.Tree, index *core.Himor, p Params, cfg Config) *Engine {
	e := &Engine{g: g, tree: tree, index: index, p: p.withDefaults(), cfg: cfg,
		attrTrees: map[treeKey]*hier.Tree{}}
	warmLCA(tree)
	if cfg.SampleCache > 0 {
		e.cache = newSampleCache(cfg.SampleCache)
	}
	return e
}

// Build runs the full offline phase (clustering plus HIMOR) and returns an
// engine over the result. The build is byte-identical to the historical
// CODL offline phase for equal params: the index sampler is seeded with
// Seed^0x51ed and per-item seeding makes it Workers-invariant.
func Build(ctx context.Context, g *graph.Graph, p Params, cfg Config) (*Engine, error) {
	p = p.withDefaults()
	t, err := clusterTree(ctx, g, p)
	if err != nil {
		return nil, err
	}
	var idx *core.Himor
	if p.Model == ICWeightedCascade {
		// The pooled sampler seeds each RR graph from its index, so the index
		// (and every query answer) is identical for any Workers value.
		idx, err = core.BuildHimorParallelCtx(ctx, g, t, influence.NewWeightedCascade(g), p.Theta, p.Seed^0x51ed, p.Workers)
	} else {
		idx, err = core.BuildHimorWithSamplerCtx(ctx, g, t, NewGraphSampler(g, p.Model, graph.NewRand(p.Seed^0x51ed)), p.Theta)
	}
	if err != nil {
		return nil, err
	}
	return New(g, t, idx, p, cfg), nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Tree returns the non-attributed hierarchy (nil for a CODR-only engine).
func (e *Engine) Tree() *hier.Tree { return e.tree }

// Index returns the HIMOR index (nil when the engine was built without one).
func (e *Engine) Index() *core.Himor { return e.index }

// Params returns the engine's default-filled parameters.
func (e *Engine) Params() Params { return e.p }

// Epoch returns the current graph-state epoch (diagnostics and tests).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// Rebind swaps the engine onto new offline state after a dynamic update:
// the epoch is bumped (invalidating every cached sample pool by key), the
// attribute-tree cache is dropped, and the scratch pool is discarded so
// stale per-graph buffers (sized for the old node count) are rebuilt on
// demand. Rebind must not run concurrently with queries.
func (e *Engine) Rebind(g *graph.Graph, tree *hier.Tree, index *core.Himor) {
	e.g = g
	e.tree = tree
	e.index = index
	warmLCA(tree)
	e.epoch.Add(1)
	e.attrMu.Lock()
	clear(e.attrTrees)
	e.attrMu.Unlock()
	if e.cache != nil {
		e.cache.clearOld(e.epoch.Load())
	}
	e.scratch = sync.Pool{}
}

// warmLCA builds the hierarchy's LCA table, which every CODL query's
// scoring reads, up front: the first query after a build, load or hot swap
// then does not pay for it.
func warmLCA(t *hier.Tree) {
	if t != nil {
		t.WarmLCA()
	}
}

// treeKey identifies a cached reclustered hierarchy: (attr, 0) for a
// single-attribute weighting, (-1, predicate hash) for a compound predicate.
// Semantically equal predicates share a canonical hash, so they share a tree.
type treeKey struct {
	attr graph.AttrID
	hash uint64
}

// AttrTree returns the attribute-weighted hierarchy for attr, reclustering
// g_ℓ unless Config.CacheAttrTrees keeps it resident. Canceled builds are
// never cached.
func (e *Engine) AttrTree(ctx context.Context, attr graph.AttrID) (*hier.Tree, error) {
	return e.predTree(ctx, attr, nil, nil)
}

// predTree is AttrTree generalized to compound predicates: edges whose
// endpoints both satisfy the plan's predicate (attr when pred is nil) are
// boosted. sc (optional) lends its mask buffer to the predicate evaluation.
func (e *Engine) predTree(ctx context.Context, attr graph.AttrID, pred *query.DNF, sc *queryScratch) (*hier.Tree, error) {
	key := treeKey{attr: attr}
	if pred != nil {
		key = treeKey{attr: -1, hash: pred.Hash64()}
	}
	cached := e.cfg.CacheAttrTrees
	if cached {
		e.attrMu.Lock()
		t, ok := e.attrTrees[key]
		e.attrMu.Unlock()
		if ok {
			return t, nil
		}
	}
	lore := new(core.LoreScratch)
	if sc != nil {
		lore = &sc.lore
	}
	t, err := lore.PredTreeCtx(ctx, e.g, e.planMask(sc, attr, pred), e.p.Beta, e.p.Linkage)
	if err != nil {
		return nil, err
	}
	if cached {
		e.attrMu.Lock()
		// A concurrent builder may have won the race; keep the first tree so
		// repeated AttrTree calls observe one stable pointer.
		if prev, ok := e.attrTrees[key]; ok {
			t = prev
		} else {
			e.attrTrees[key] = t
		}
		e.attrMu.Unlock()
	}
	return t, nil
}

// queryScratch bundles every reusable per-query buffer: one arena for RR
// sample storage, one compressed-evaluation working set, the CODL member
// mask, LORE's clustering and chain-level buffers, and a sampler (whose
// per-graph visited marks are the expensive part). Scratches cycle through
// the engine's sync.Pool; the arena is Reset on acquisition, so a recycled
// scratch can never leak one query's samples into the next. Nothing a
// query returns aliases the LORE buffers. Pool-discipline: a scratch must
// not be touched after release — the poolret codvet check enforces this
// shape.
type queryScratch struct {
	n       int // g.N() the buffers were sized for
	sampler arenaSampler
	arena   *influence.Arena
	eval    *core.EvalScratch
	mask    []bool
	lore    core.LoreScratch
}

// acquire returns a scratch sized for the current graph with its sampler
// bound to rng.
func (e *Engine) acquire(rng *rand.Rand) *queryScratch {
	e.scratchLive.Add(1)
	sc, _ := e.scratch.Get().(*queryScratch)
	if sc == nil || sc.n != e.g.N() {
		e.scratchAlloc.Add(1)
		sc = &queryScratch{
			n:       e.g.N(),
			sampler: newArenaSampler(e.g, e.p.Model, rng),
			arena:   influence.NewArena(),
			eval:    core.NewEvalScratch(),
			mask:    make([]bool, e.g.N()),
		}
	}
	sc.sampler.SetRand(rng)
	sc.arena.Reset()
	return sc
}

// release returns the scratch to the pool. The caller must not retain any
// slice aliasing the scratch (communities copy their members out of the
// chain, never out of the arena).
func (e *Engine) release(sc *queryScratch) {
	sc.sampler.SetRand(nil)
	e.scratch.Put(sc)
	e.scratchLive.Add(-1)
}

// PoolStats reports the scratch pool's occupancy: scratches currently
// checked out by in-flight queries, and scratches ever allocated (an
// allocation count far above the peak concurrency indicates the pool is
// being defeated — e.g. by graph-size churn resizing every scratch).
func (e *Engine) PoolStats() (live, allocated int64) {
	return e.scratchLive.Load(), e.scratchAlloc.Load()
}

// SampleCacheStats reports the RR sample cache's resident occupancy:
// populated pools and the RR graphs they hold. Both are 0 when the cache
// is disabled; alongside the hit/miss/eviction counters this separates a
// cold cache (low occupancy, misses) from a thrashing one (full occupancy,
// misses and evictions).
func (e *Engine) SampleCacheStats() (pools, rrgraphs int64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// memberMask returns the cleared membership mask and marks members in it.
func (sc *queryScratch) memberMask(members []graph.NodeID) []bool {
	clear(sc.mask)
	for _, v := range members {
		sc.mask[v] = true
	}
	return sc.mask
}
