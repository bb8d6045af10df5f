package influence

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/obs"
)

// PollEvery is the bounded cancellation-check interval of the sampling
// loops: ctx.Err() is consulted once per PollEvery Monte-Carlo draws. One RR
// sample costs microseconds on realistic graphs, so cancellation latency is
// well under a millisecond while the check itself stays off the profile.
const PollEvery = 64

// CanceledError reports a Monte-Carlo computation stopped by context
// cancellation, carrying how much work completed. Completed units are
// deterministic — sample i depends only on (graph, model, seed, i) — so
// callers may keep or discard partial results freely; only the tail is
// missing. Unwrap yields the context error, so errors.Is(err,
// context.DeadlineExceeded) and errors.Is(err, context.Canceled) work.
type CanceledError struct {
	// Op names the canceled computation (e.g. "influence: rr batch").
	Op string
	// Done counts completed units (samples, queries) out of Total.
	Done, Total int
	// Cause is the context's error.
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("%s canceled after %d/%d units: %v", e.Op, e.Done, e.Total, e.Cause)
}

// Unwrap exposes the underlying context error.
func (e *CanceledError) Unwrap() error { return e.Cause }

// BatchPoolCtx samples count RR graphs from s into a, checking ctx.Err()
// every PollEvery samples; the polling consumes no randomness, so an
// uncancelled call holds exactly the samples of count RRGraphInto calls.
// The pool aliases the arena (see Arena's ownership contract). On
// cancellation the samples completed so far are returned with a
// *CanceledError.
func BatchPoolCtx(ctx context.Context, s ArenaSampler, count int, a *Arena) (Pool, error) {
	span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
	for i := 0; i < count; i++ {
		if i%PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				span.EndItems(i)
				return a.Pool(), &CanceledError{Op: "influence: rr batch", Done: i, Total: count, Cause: err}
			}
		}
		s.RRGraphInto(a)
	}
	span.EndItems(count)
	return a.Pool(), nil
}

// BatchIntoCtx is BatchPoolCtx returning the samples as Finalize headers,
// for callers that take []*RRGraph.
func BatchIntoCtx(ctx context.Context, s ArenaSampler, count int, a *Arena) ([]*RRGraph, error) {
	_, err := BatchPoolCtx(ctx, s, count, a)
	return a.Finalize(), err
}
