package engine

import (
	"context"
	"math"
	"math/rand/v2"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// This file is the bounded-error adaptive evaluation mode (DESIGN.md §16):
// the RR sample pool grows in geometric stages and after each stage a
// concentration bound on the estimated influence gap between q and the
// rank-k boundary decides whether the answer is already certified. The mode
// is off by default; when off, no code in this file runs and execution is
// byte-identical to the non-adaptive engine.

// Adaptive configures bounded-error staged evaluation. The zero value is
// off; an enabled zero value uses ε = δ = 0.05 with a 4-stage schedule
// (budget/8 → budget/4 → budget/2 → budget).
type Adaptive struct {
	// Enabled turns staged evaluation on.
	Enabled bool
	// Eps is the indifference width on normalized influence margins: a level
	// whose confidence radius has shrunk below Eps is accepted with its
	// empirical decision even if its margin is narrower — the PAC-style
	// slack that lets near-ties stop early. 0 and below default to 0.05.
	Eps float64
	// Delta is the total certification failure probability: a query that
	// stops early carries the full-budget rank-k decision with probability
	// at least 1−Delta. 0 and below default to 0.05.
	Delta float64
	// Stages is the number of geometric stages; stage i draws up to
	// ⌈budget/2^(Stages−1−i)⌉ cumulative samples. 0 defaults to 4.
	Stages int
}

// withDefaults fills zero tuning fields with the defaults above.
func (a Adaptive) withDefaults() Adaptive {
	if a.Eps <= 0 {
		a.Eps = 0.05
	}
	if a.Delta <= 0 {
		a.Delta = 0.05
	}
	if a.Stages <= 0 {
		a.Stages = 4
	}
	return a
}

// stageSchedule returns the cumulative sample counts of the geometric
// staging: ⌈total/2^(stages−1)⌉, …, ⌈total/2⌉, total — deduplicated,
// strictly increasing, always ending exactly at total.
func stageSchedule(total, stages int) []int {
	if total < 1 {
		total = 1
	}
	out := make([]int, 0, stages)
	for i := stages - 1; i >= 0; i-- {
		t := total
		if i > 0 && i < 63 {
			t = (total + 1<<i - 1) >> i
		}
		if len(out) > 0 && t <= out[len(out)-1] {
			continue
		}
		out = append(out, t)
	}
	return out
}

// certRadius is the 1−δ′ confidence half-width on a normalized count margin
// (qCnt − bCnt)/t after t samples: the minimum of the Hoeffding bound for
// the range-2 per-sample difference of indicators and an empirical-
// Bernstein bound (Maurer–Pontil rescaled to [−1,1]) whose variance proxy
// (qCnt + bCnt)/t dominates the empirical second moment of the difference
// — (X−Y)² ≤ X+Y for indicators — so it is valid wherever the empirical
// variance is, and much tighter in the sparse-count regime of whole-graph
// pools. logTerm is ln(2/δ′).
func certRadius(qCnt, bCnt int32, t int, logTerm float64) float64 {
	tf := float64(t)
	r := math.Sqrt(2 * logTerm / tf)
	if t > 1 {
		v := float64(qCnt+bCnt) / tf
		if eb := math.Sqrt(2*v*logTerm/tf) + 14*logTerm/(3*(tf-1)); eb < r {
			r = eb
		}
	}
	return r
}

// decisiveFrom returns the first level whose decision can change the
// answer: the empirical best level and everything above it (larger
// communities). Levels below the best are irrelevant — the answer is the
// largest in-top-k level — so they never gate certification. A best of −1
// (q nowhere top-k) makes every level decisive.
func decisiveFrom(best int) int {
	if best < 0 {
		return 0
	}
	return best
}

// certify applies the stopping rule after a stage of t cumulative samples:
// every decisive level must either have its normalized margin |m̂| clear the
// level's confidence radius, or have the radius itself shrink below Eps
// (the indifference rule). The per-test confidence is δ′ = Delta/(2·S·L),
// a union bound over both bound families, all S stages and all L levels,
// so a certified stop is wrong with probability at most Delta. It returns
// whether the answer is certified and the smallest decisive margin.
func (a Adaptive) certify(margins []core.LevelMargin, best, t, stages int) (bool, float64) {
	L := len(margins)
	if L == 0 {
		return true, 0
	}
	if t < 2 {
		return false, 0
	}
	logTerm := math.Log(2 * float64(2*stages*L) / a.Delta)
	gap := math.Inf(1)
	for h := decisiveFrom(best); h < L; h++ {
		m := margins[h]
		mhat := math.Abs(float64(m.QCount-m.Boundary)) / float64(t)
		r := certRadius(m.QCount, m.Boundary, t, logTerm)
		if mhat < r && r > a.Eps {
			return false, 0
		}
		if mhat < gap {
			gap = mhat
		}
	}
	return true, gap
}

// minGap returns the smallest decisive normalized margin (diagnostics for
// the exhausted outcome, where certify may not have succeeded).
func minGap(margins []core.LevelMargin, best, t int) float64 {
	L := len(margins)
	if L == 0 || t == 0 {
		return 0
	}
	gap := math.Inf(1)
	for h := decisiveFrom(best); h < L; h++ {
		m := margins[h]
		if mhat := math.Abs(float64(m.QCount-m.Boundary)) / float64(t); mhat < gap {
			gap = mhat
		}
	}
	return gap
}

// stagedDraw extends the RR pool to cum cumulative samples and returns the
// full pool so far; each stage's pool is a prefix of the next. Implementations
// must draw sample i identically to the non-staged path's i-th draw, so a
// run that reaches the final stage holds exactly the full-budget pool.
type stagedDraw func(ctx context.Context, cum int) (influence.Pool, error)

// runStaged is the fused sample+evaluate loop of an adaptive plan: it grows
// the pool per the stage schedule, folds each stage's new samples into a
// stage-resumable compressed evaluation, and stops as soon as certify
// accepts — or at the final stage, whose answer is byte-identical to the
// non-adaptive evaluation of the full pool. It stores the evaluation result
// in st and returns the sample step's outcome plus the realized stage count
// and certified gap for the step trace.
func (e *Engine) runStaged(ctx context.Context, pl *Plan, step Step, sc *queryScratch, rng *rand.Rand, st *execState, ad Adaptive) (outcome string, stages int, gap float64, err error) {
	ad = ad.withDefaults()
	rec := obs.FromContext(ctx)

	var total int
	var draw stagedDraw
	if step.Sample == SampleRestricted {
		total, draw = e.stagedRestricted(sc, st.rec, rng)
	} else {
		total, draw = e.stagedShared(sc, pl.predCacheKey())
	}

	se := core.NewStagedEval(st.ch, pl.K, sc.eval)
	sched := stageSchedule(total, ad.Stages)
	for si, cum := range sched {
		pool, err := draw(ctx, cum)
		if err != nil {
			return errOutcome(err), si, 0, err
		}
		if err := se.Fold(ctx, pool); err != nil {
			return errOutcome(err), si, 0, err
		}
		res, margins := se.Sweep(ctx)
		// Community filters may promote any in-top-k level to the answer, so
		// the empirical best no longer bounds which decisions matter: force
		// every level decisive before certifying.
		decisive := res.Level
		if len(pl.Filters) > 0 {
			decisive = -1
		}
		if si == len(sched)-1 {
			st.res = res
			rec.CountAdaptive(false, si+1, int64(cum), int64(total))
			return "exhausted", si + 1, minGap(margins, decisive, cum), nil
		}
		if ok, gap := ad.certify(margins, decisive, cum, len(sched)); ok {
			st.res = res
			rec.CountAdaptive(true, si+1, int64(cum), int64(total))
			return "early_stop", si + 1, gap, nil
		}
	}
	// Unreachable: the schedule is never empty and its last stage returns.
	return "exhausted", len(sched), 0, nil
}

// stagedRestricted returns the θ·|C_ℓ| budget and a draw that continues the
// historical restricted sampling loop across stages: the pause between
// stages does not touch the query rng, so the cumulative draw order is
// byte-identical to sampleRestricted's.
func (e *Engine) stagedRestricted(sc *queryScratch, rec *core.Reclustering, rng *rand.Rand) (int, stagedDraw) {
	members := rec.Sub.ToParent
	in := sc.memberMask(members)
	member := func(u graph.NodeID) bool { return in[u] }
	total := e.p.Theta * len(members)
	drawn := 0
	return total, func(ctx context.Context, cum int) (influence.Pool, error) {
		span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
		start := drawn
		for ; drawn < cum; drawn++ {
			if drawn%influence.PollEvery == 0 {
				if err := ctx.Err(); err != nil {
					span.EndItems(drawn - start)
					return influence.Pool{}, &influence.CanceledError{
						Op: "engine: restricted rr sampling", Done: drawn, Total: total, Cause: err}
				}
			}
			sc.sampler.RRGraphWithinInto(sc.arena, members[rng.IntN(len(members))], member)
		}
		span.EndItems(drawn - start)
		return sc.arena.Pool(), nil
	}
}

// stagedShared returns the θ·N budget and a draw over the shared pool. With
// the sample cache enabled the full (attr, epoch)-keyed pool is fetched once
// — its content is already a pure function of the key — and stages evaluate
// growing prefixes of it; without a cache, stages continue the query-rng
// sampling loop exactly where the previous stage paused, matching the
// influence.BatchPoolCtx draw order.
func (e *Engine) stagedShared(sc *queryScratch, pk predKey) (int, stagedDraw) {
	total := e.p.Theta * e.g.N()
	if e.cache != nil {
		var pool influence.Pool
		return total, func(ctx context.Context, cum int) (influence.Pool, error) {
			if pool.Len() == 0 {
				p, _, err := e.cache.get(ctx, e, pk, total, sc.arena)
				if err != nil {
					return influence.Pool{}, err
				}
				pool = p
			}
			return pool.Prefix(cum), nil
		}
	}
	drawn := 0
	return total, func(ctx context.Context, cum int) (influence.Pool, error) {
		span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
		start := drawn
		for ; drawn < cum; drawn++ {
			if drawn%influence.PollEvery == 0 {
				if err := ctx.Err(); err != nil {
					span.EndItems(drawn - start)
					return influence.Pool{}, &influence.CanceledError{
						Op: "influence: rr batch", Done: drawn, Total: total, Cause: err}
				}
			}
			sc.sampler.RRGraphInto(sc.arena)
		}
		span.EndItems(drawn - start)
		return sc.arena.Pool(), nil
	}
}
