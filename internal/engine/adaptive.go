package engine

import (
	"context"
	"fmt"
	"math"

	"github.com/codsearch/cod/internal/core"
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
	// slack that lets near-ties stop early. 0 defaults to 0.05; Validate
	// rejects anything else outside (0, 1).
	Eps float64
	// Delta is the total certification failure probability: a query that
	// stops early carries the full-budget rank-k decision with probability
	// at least 1−Delta. 0 defaults to 0.05; Validate rejects anything else
	// outside (0, 1).
	Delta float64
	// Stages is the number of geometric stages; stage i draws up to
	// ⌈budget/2^(Stages−1−i)⌉ cumulative samples. 0 defaults to 4;
	// Validate rejects anything else outside [1, maxStages].
	Stages int
}

// maxStages bounds Adaptive.Stages. With more stages the first would draw
// ⌈budget/2^63⌉ samples, one on any real budget, and every query allocates
// its schedule, so a huge value panics or exhausts memory.
const maxStages = 63

// Validate reports an Eps or Delta outside (0, 1), or Stages outside
// [1, maxStages]; zero means the default. A NaN, infinite, negative or ≥ 1
// Eps or Delta would turn the certifier's bound NaN or make its
// indifference test always pass, so every stage would count as certified;
// the query DSL's eps= and delta= knobs accept the same range.
func (a Adaptive) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Eps", a.Eps}, {"Delta", a.Delta}} {
		if !(f.v >= 0 && f.v < 1) {
			return fmt.Errorf("adaptive %s = %g, want a number in (0,1) or 0 for the default", f.name, f.v)
		}
	}
	if a.Stages < 0 || a.Stages > maxStages {
		return fmt.Errorf("adaptive Stages = %d, want 1 to %d or 0 for the default", a.Stages, maxStages)
	}
	return nil
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

// runStaged is the fused sample+evaluate loop of an adaptive plan: it draws
// the plan's sample source stage by stage per the schedule, folds each
// stage's new samples into a stage-resumable compressed evaluation, and
// stops as soon as certify accepts — or at the final stage, whose pool is
// the full-budget pool and whose answer is byte-identical to the
// non-adaptive evaluation. It stores the evaluation result in st and
// returns the sample step's outcome plus the realized stage count and
// certified gap for the step trace.
func runStaged(ctx context.Context, pl *Plan, src *sampleSource, sc *queryScratch, st *execState, ad Adaptive) (outcome string, stages int, gap float64, err error) {
	ad = ad.withDefaults()
	rec := obs.FromContext(ctx)
	total := src.total
	se := core.NewStagedEval(st.ch, pl.K, sc.eval)
	sched := stageSchedule(total, ad.Stages)
	for si, cum := range sched {
		pool, err := src.draw(ctx, sc, cum)
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
