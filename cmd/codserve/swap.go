package main

import (
	"context"
	"errors"
	"log"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// Swapper keeps a serving replica converged on a blob store's current index
// epoch: it polls the dataset's CURRENT pointer and, when a newer epoch
// appears, fetches it, verifies every byte (CRCs, sizes, params hash — see
// FetchSnapshotAt), and atomically installs it under live traffic. Every
// failure leaves the serving epoch untouched and flips the replica to the
// degraded "stale" state instead; epochs older than the serving one are
// rejected outright (rollbacks are republished as new epochs). One Swapper
// runs per process.
type Swapper struct {
	Store   blobstore.Store
	Dataset string
	// Interval is the poll cadence; <= 0 checks once and returns (fetch-
	// and-exit mode, used when -index-watch is 0).
	Interval time.Duration
	// Base supplies runtime-only searcher options (workers, caches); the
	// offline parameters always come from the fetched manifest.
	Base   cod.Options
	Policy blobstore.RetryPolicy
	H      *Handler

	// attempts numbers swap cycles for trace IDs: swap traces get
	// deterministic IDs derived from (epoch, attempt), never from the
	// clock.
	attempts atomic.Uint64
}

// Run polls until ctx is done (or once, with no Interval). The first
// convergence is what flips a store-fed replica from warming to serving.
func (sw *Swapper) Run(ctx context.Context) {
	pol := sw.Policy
	pol.OnRetry = func(op string, attempt int, err error) {
		sw.H.fetchRetries.Inc()
		log.Printf("codserve: index fetch retry %d: %s: %v", attempt, op, err)
	}
	sw.Policy = pol
	sw.tick(ctx)
	if sw.Interval <= 0 {
		return
	}
	t := time.NewTicker(sw.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			sw.tick(ctx)
		}
	}
}

// tick runs one convergence cycle. Outcomes:
//
//   - store has no epoch yet, or already serving it: no-op (not recorded —
//     at poll cadence this would drown the flight recorder)
//   - newer epoch: fetch+verify+swap, recorded in the flight recorder with
//     per-stage steps and counted in cod_index_swap_*_total
//   - older epoch, or any failure: rejected/stale, recorded likewise
func (sw *Swapper) tick(ctx context.Context) {
	served := sw.H.Epoch()
	cur, err := blobstore.FetchCurrent(ctx, sw.Store, sw.Dataset, sw.Policy)
	if err != nil {
		if errors.Is(err, blobstore.ErrNotExist) {
			// Nothing published yet: a warming replica keeps waiting, a
			// serving one keeps serving. Neither is degraded — there is no
			// newer epoch being missed.
			return
		}
		if ctx.Err() != nil {
			return
		}
		sw.H.swapFetch.Inc()
		sw.H.markStale(err)
		sw.record("fetch_current", served, 0, err)
		return
	}
	switch {
	case cur.Epoch == served:
		sw.H.clearStale()
		return
	case cur.Epoch < served:
		// Non-monotone CURRENT: refusing protects the replica from a
		// rolled-back or torn pointer; operators roll back by publishing
		// the old artifacts as a *new* epoch.
		sw.H.swapRejected.Inc()
		log.Printf("codserve: refusing swap to epoch %d (older than serving epoch %d)", cur.Epoch, served)
		sw.record("reject", served, cur.Epoch, errors.New("non-monotone epoch"))
		return
	}
	sw.swapTo(ctx, cur, served)
}

// swapTo fetches and installs the epoch cur names. The swap happens only
// after every verification has passed; any failure keeps the serving epoch
// and marks the replica stale.
func (sw *Swapper) swapTo(ctx context.Context, cur blobstore.Current, served uint64) {
	s, err := cod.FetchSnapshotAt(ctx, sw.Store, cur, sw.Base, sw.Policy)
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		var se *cod.SnapshotError
		stage := "fetch"
		if errors.As(err, &se) {
			stage = se.Stage
		}
		switch stage {
		case "verify":
			sw.H.swapVerify.Inc()
		case "load":
			sw.H.swapLoad.Inc()
		default:
			sw.H.swapFetch.Inc()
		}
		sw.H.markStale(err)
		log.Printf("codserve: swap to epoch %d failed (%s stage): %v; still serving epoch %d",
			cur.Epoch, stage, err, served)
		sw.record(stage, served, cur.Epoch, err)
		return
	}
	sw.H.SetServing(s, cur.Epoch, cur.ParamsHash)
	sw.H.swapOK.Inc()
	log.Printf("codserve: swapped to epoch %d (params %s, index %.2f MB), previously %d",
		cur.Epoch, cur.ParamsHash, float64(s.IndexBytes())/(1<<20), served)
	sw.record("ok", served, cur.Epoch, nil)
}

// record files one swap attempt with the flight recorder, so /debug/queries
// interleaves swaps with the queries that straddled them. The event's trace
// ID is a pure function of (target epoch, attempt number) — deterministic,
// no clock involved — its op is "index_swap", its epoch the target, and its
// one step names the stage that decided the attempt. Swap events go only to
// the flight recorder: they are not queries.
func (sw *Swapper) record(outcome string, from, to uint64, err error) {
	trace := obs.NewTrace()
	trace.EnsureID(obs.SeedTraceID(to<<20 ^ sw.attempts.Add(1)))
	rec := obs.NewRecorder(nil, trace)
	step := rec.StartStep("index_swap", strconv.FormatUint(from, 10)+"->"+strconv.FormatUint(to, 10))
	step.End(outcome)
	status := 200
	if err != nil {
		status = 500
	}
	ev := eventlog.New(trace, "index_swap", time.Now(), 0, status)
	ev.Epoch = to
	if err != nil {
		ev.Err = err.Error()
	}
	sw.H.flight.Record(ev)
}
