package engine

import (
	"context"
	"math/rand/v2"
	"sync"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// sampleCache is the bounded per-predicate RR sample-pool cache: queries
// that share a query predicate sample once and evaluate many times — the
// RIS-sketch reuse trick applied to the COD serving path.
//
// Keying and determinism: entries are keyed by (predicate key, epoch),
// where the predicate key is (attr, 0) for single-attribute queries — the
// legacy keying, so existing pools stay hot across the DSL migration — or
// (-1, normal-form hash) for compound predicates, and the epoch is bumped
// on every Rebind (dynamic update), so a pool sampled over a stale graph
// can never answer for the updated one. Pool content is a pure function of
// the key: sample i draws from a PCG seeded with
// ItemSeed(poolSeed(seed, key, epoch), i), never from a query's rng — so
// a cache hit is byte-identical to a miss, and answers are independent of
// query arrival order, worker count, and eviction history.
//
// Ownership: each entry owns its pool, one compact influence.Pool. populate
// samples through the populating query's scratch arena and keeps an
// exact-size Clone of it, whose arrays no other sampling ever writes, so a
// query still evaluating against an entry that was just evicted keeps a
// valid view — eviction only drops the cache's reference; the garbage
// collector reclaims the pool when the last reader finishes. A resident
// pool is four arrays with no per-sample header or pointer, so the
// collector has nothing inside it to scan.
type sampleCache struct {
	mu      sync.Mutex
	max     int
	tick    uint64
	entries map[cacheKey]*poolEntry

	// Resident-occupancy accounting (under mu): pools counts entries whose
	// population completed while still published, rrgraphs the RR graphs
	// those pools hold. Populating and withdrawn entries are not counted, so
	// the gauges report what the cache is actually serving.
	pools    int64
	rrgraphs int64
}

// predKey is the predicate identity of a shared sample pool: attr with hash
// 0 for single-attribute queries (preserving the legacy pool seeds exactly),
// attr -1 with the predicate's canonical normal-form hash for compound ones
// (semantically equal predicates share it, however spelled).
type predKey struct {
	attr graph.AttrID
	hash uint64
}

type cacheKey struct {
	pred  predKey
	epoch uint64
}

type poolEntry struct {
	// mu is held while populating. Lock order: cache.mu may be acquired
	// under entry.mu (the withdrawal path) but never the reverse — get()
	// releases cache.mu before touching entry.mu.
	mu        sync.Mutex
	ready     bool
	withdrawn bool // populate failed; entry is out of the map, never served
	pool      influence.Pool
	lastUse   uint64
	// counted is the RR-graph count this entry contributed to the cache's
	// occupancy gauges, 0 if never accounted (still populating, withdrawn,
	// or evicted mid-population). Guarded by cache.mu, not entry.mu.
	counted int64
}

func newSampleCache(max int) *sampleCache {
	return &sampleCache{max: max, entries: map[cacheKey]*poolEntry{}}
}

// poolSeed derives the sampling seed of one (predicate, epoch) pool. The +1
// keeps attribute 0 distinct from the base stream, and the constant keeps
// pool streams disjoint from the offline (seed^0x51ed) and per-query
// (ItemSeed(seed, i)) families. A zero hash (single-attribute pool)
// reproduces the pre-DSL seeds exactly; compound predicates fold their
// canonical hash in through a Weyl-constant multiply so distinct predicates
// get well-separated streams.
func poolSeed(seed uint64, pk predKey, epoch uint64) uint64 {
	base := seed ^ 0xcac4ed
	if pk.hash != 0 {
		base ^= pk.hash * 0x9e3779b97f4a7c15
	}
	return graph.ItemSeed(graph.ItemSeed(base, int(pk.attr)+1), int(epoch))
}

// get returns the pool for attr at the engine's current epoch, sampling it
// on first use through arena (the caller's scratch arena, which a miss
// Resets), and reports whether the request was a hit (served from an
// already-populated entry). Concurrent callers for one key block on the
// entry while a single populator samples; they then share the pool (a
// hit). A canceled population withdraws its entry from the cache before any
// waiter can see it, so no partial pool is ever served or built upon:
// waiters that were blocked on a withdrawn entry loop back to the map and
// converge on the single live replacement entry.
func (c *sampleCache) get(ctx context.Context, e *Engine, pk predKey, count int, arena *influence.Arena) (influence.Pool, bool, error) {
	rec := obs.FromContext(ctx)
	key := cacheKey{pred: pk, epoch: e.epoch.Load()}

	for {
		c.mu.Lock()
		c.tick++
		entry, ok := c.entries[key]
		if !ok {
			entry = &poolEntry{}
			c.entries[key] = entry
			for i := c.evictLocked(key); i > 0; i-- {
				rec.CountCacheEviction()
			}
		}
		entry.lastUse = c.tick
		c.mu.Unlock()

		entry.mu.Lock()
		if entry.ready {
			entry.mu.Unlock()
			rec.CountCacheHit()
			return entry.pool, true, nil
		}
		if entry.withdrawn {
			// The populator we were waiting on failed and pulled this entry
			// from the map. Repopulating it would build an orphan no later
			// query can share (and, worse, stack a second pool on top of its
			// partial samples) — retry from the map instead.
			entry.mu.Unlock()
			continue
		}
		rec.CountCacheMiss()
		err := c.populate(ctx, e, key, entry, count, arena)
		if err == nil {
			// Account occupancy while entry.mu pins ready=true: the entry
			// counts only if it is still the published one (an eviction racing
			// the population must not leave a phantom resident pool). Taking
			// c.mu under entry.mu follows the documented lock order.
			c.mu.Lock()
			if c.entries[key] == entry {
				entry.counted = int64(entry.pool.Len())
				c.pools++
				c.rrgraphs += entry.counted
			}
			c.mu.Unlock()
			entry.mu.Unlock()
			return entry.pool, false, nil
		}
		// Withdraw before releasing entry.mu: waiters must never observe a
		// failed entry that is both unpopulated and still published.
		c.mu.Lock()
		if c.entries[key] == entry {
			c.uncountLocked(entry)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		entry.withdrawn = true
		entry.mu.Unlock()
		return influence.Pool{}, false, err
	}
}

// populate samples the pool with per-item seeding into arena and stores
// an exact-size Clone of it: the arena's growth slack stays with the arena,
// which the caller's scratch reuses, so populating allocates the same few
// objects whatever the pool size once the arena is warm. A canceled attempt stores nothing. entry.mu
// is held by the caller.
func (c *sampleCache) populate(ctx context.Context, e *Engine, key cacheKey, entry *poolEntry, count int, arena *influence.Arena) error {
	arena.Reset()
	span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
	src := graph.NewPCG(0)
	smp := newArenaSampler(e.g, e.p.Model, rand.New(src))
	base := poolSeed(e.p.Seed, key.pred, key.epoch)
	for i := 0; i < count; i++ {
		if i%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				span.EndItems(i)
				return &influence.CanceledError{
					Op: "engine: cached rr sampling", Done: i, Total: count, Cause: err}
			}
		}
		graph.SeedPCG(src, graph.ItemSeed(base, i))
		smp.RRGraphInto(arena)
	}
	span.EndItems(count)
	entry.pool = arena.Pool().Clone()
	entry.ready = true
	return nil
}

// evictLocked drops least-recently-used entries until the cache is within
// bounds, never evicting keep (the entry just inserted), and returns how
// many entries were dropped. Callers hold c.mu.
func (c *sampleCache) evictLocked(keep cacheKey) int {
	evicted := 0
	for len(c.entries) > c.max {
		var victim cacheKey
		var oldest uint64
		found := false
		for k, en := range c.entries {
			if k == keep {
				continue
			}
			// lastUse ticks are unique under c.mu, but tie-break on the key
			// anyway so the victim never depends on map iteration order.
			if !found || en.lastUse < oldest ||
				(en.lastUse == oldest && cacheKeyLess(k, victim)) {
				//codvet:ignore maporder deterministic tie-break via cacheKeyLess in the guard
				victim, oldest, found = k, en.lastUse, true
			}
		}
		if !found {
			break
		}
		c.uncountLocked(c.entries[victim])
		delete(c.entries, victim)
		evicted++
	}
	return evicted
}

// cacheKeyLess is the deterministic eviction tie-break order over keys.
func cacheKeyLess(a, b cacheKey) bool {
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	if a.pred.attr != b.pred.attr {
		return a.pred.attr < b.pred.attr
	}
	return a.pred.hash < b.pred.hash
}

// uncountLocked reverses an entry's occupancy contribution (a no-op for
// entries never accounted). Callers hold c.mu.
func (c *sampleCache) uncountLocked(en *poolEntry) {
	if en == nil || en.counted == 0 {
		return
	}
	c.pools--
	c.rrgraphs -= en.counted
	en.counted = 0
}

// stats returns the resident pool and RR-graph counts.
func (c *sampleCache) stats() (pools, rrgraphs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pools, c.rrgraphs
}

// clearOld drops every entry whose epoch predates current; Rebind calls it
// so stale pools free their memory eagerly instead of aging out by LRU.
func (c *sampleCache) clearOld(current uint64) {
	c.mu.Lock()
	for k, en := range c.entries {
		if k.epoch < current {
			c.uncountLocked(en)
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
}
