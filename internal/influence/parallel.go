package influence

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

// ParallelBatch samples count RR graphs across workers goroutines. Each
// sample i draws from its own PRNG stream seeded by graph.ItemSeed(seed, i),
// so sample i depends only on (g, model, seed, i): the pool is byte-for-byte
// identical for any worker count or goroutine schedule. Each worker reuses
// one Sampler (its scratch arrays are O(|V|)), reseeds its source per
// sample, and writes a contiguous index range into an arena of its own; the
// arenas are joined in index order into one exact-size pool.
func ParallelBatch(g *graph.Graph, model Model, count int, seed uint64, workers int) Pool {
	out, _ := ParallelBatchCtx(context.Background(), g, model, count, seed, workers)
	return out
}

// ParallelBatchCtx is ParallelBatch with bounded-interval cancellation:
// every worker checks ctx.Err() once per PollEvery samples and stops early
// when the context is done. An uncancelled call returns the same pool as
// ParallelBatch for the same arguments; a canceled call returns a
// *CanceledError counting the samples that completed across all workers
// (the worker ranges have gaps, so no pool is returned). Every worker is
// joined before the call returns, on cancel too, and the fan-in always
// flushes the completed-sample total through the context Recorder — on
// early cancel the per-worker counts used to vanish with the discarded
// pool, which left metrics blind to how much sampling a shed query had
// already paid for.
func ParallelBatchCtx(ctx context.Context, g *graph.Graph, model Model, count int, seed uint64, workers int) (Pool, error) {
	workers = min(max(workers, 1), count)
	span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
	if count <= 0 {
		span.EndItems(0)
		return Pool{}, nil
	}
	per := count / workers
	extra := count % workers
	parts := make([]Pool, workers)
	var done atomic.Int64
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		wlo, whi := start, start+n
		start = whi
		wg.Add(1)
		go func(w, wlo, whi int) {
			defer wg.Done()
			a := NewArena()
			src := graph.NewPCG(0)
			s := NewSampler(g, model, rand.New(src))
			for j := wlo; j < whi; j++ {
				if (j-wlo)%PollEvery == 0 && ctx.Err() != nil {
					return
				}
				graph.SeedPCG(src, graph.ItemSeed(seed, j))
				s.RRGraphInto(a)
				done.Add(1)
			}
			parts[w] = a.Pool()
		}(w, wlo, whi)
	}
	wg.Wait()
	span.EndItems(int(done.Load()))
	if err := ctx.Err(); err != nil && int(done.Load()) < count {
		return Pool{}, &CanceledError{Op: "influence: parallel rr batch",
			Done: int(done.Load()), Total: count, Cause: err}
	}
	return joinPools(parts), nil
}
