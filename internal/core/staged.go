package core

import (
	"context"

	"github.com/codsearch/cod/internal/influence"
)

// This file is the stage-resumable form of Algorithm 1 used by the engine's
// bounded-error adaptive mode (DESIGN.md §16). The per-RR HFS fold is purely
// additive, so a StagedEval grows the shared sample pool across geometric
// stages and re-sweeps the accumulated occurrences after each stage; folding
// every sample exactly once keeps the total HFS cost equal to one
// non-staged evaluation, and a run that reaches the full pool returns
// exactly CompressedEvaluatePoolCtx's result.

// LevelMargin reports, for one chain level after a sweep, the raw counts the
// rank-k decision for q rests on. Normalized by the pool size they form the
// estimated influence gap the adaptive certifier bounds.
type LevelMargin struct {
	// QCount is q's accumulated RR occurrence count at this level.
	QCount int32
	// Boundary is the k-th largest occurrence count among nodes other than
	// q at this level (0 while fewer than k other nodes have appeared).
	Boundary int32
	// InTopK is the level's empirical rank-k decision, identical to the one
	// the non-staged sweep makes on the same pool.
	InTopK bool
}

// StagedEval accumulates a compressed COD evaluation across a growing RR
// sample pool. Fold appends the pool's new suffix to the scratch's flat
// occurrence buffer; Sweep regroups everything folded so far by level and
// runs the incremental top-k sweep over it, reporting the would-be answer
// plus per-level margins. A StagedEval is single-goroutine, like the
// scratch it borrows.
type StagedEval struct {
	ch      *Chain
	k       int
	sc      *EvalScratch
	folded  int
	margins []LevelMargin
}

// NewStagedEval prepares a staged evaluation of ch at rank k drawing its
// working buffers from sc (which may be nil for a private scratch). The
// scratch must not be used by another evaluation until the StagedEval is
// done.
func NewStagedEval(ch *Chain, k int, sc *EvalScratch) *StagedEval {
	if sc == nil {
		sc = NewEvalScratch()
	}
	sc.prepare(ch.Len())
	return &StagedEval{ch: ch, k: k, sc: sc, margins: make([]LevelMargin, ch.Len())}
}

// Folded returns the number of RR graphs folded so far.
func (se *StagedEval) Folded() int { return se.folded }

// Fold folds the samples of pool past Folded() — those added since the
// previous call — into the accumulated buckets. Passing the whole (grown)
// pool every stage is the intended calling convention: already-folded
// prefixes are skipped, so a stage that is a prefix of a resident pool
// folds only its new suffix. The fold polls ctx once per
// influence.PollEvery samples and stops with a *influence.CanceledError
// counting the samples folded in so far.
func (se *StagedEval) Fold(ctx context.Context, pool influence.Pool) error {
	var err error
	se.folded, err = se.sc.fold(ctx, se.ch, pool, se.folded)
	return err
}

// Sweep runs the incremental top-k sweep over the folded pool, returning
// the evaluation result as of this stage and the per-level margins (valid
// until the next Sweep). The decision at every level — and therefore the
// result — is identical to CompressedEvaluatePoolCtx over the same folded
// pool, since both run the same sweep.
func (se *StagedEval) Sweep(ctx context.Context) (EvalResult, []LevelMargin) {
	return se.sc.sweep(ctx, se.ch, se.k, se.margins), se.margins
}
