package cod

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/obs"
)

// The public *Ctx APIs must fail fast on a dead context, report typed
// partial-progress errors, and keep the validation error shape identical to
// the plain APIs.

func TestDiscoverCtxCancellation(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := determinismQueries(g)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	if _, err := s.DiscoverCtx(ctx, q.Node, q.Attr); !errors.Is(err, context.Canceled) {
		t.Errorf("DiscoverCtx error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("canceled DiscoverCtx took %v", elapsed)
	}
	for _, variant := range []string{"codu", "codr"} {
		if _, err := discoverVariant(ctx, s, variant, q.Node, q.Attr); !errors.Is(err, context.Canceled) {
			t.Errorf("variant=%s error = %v", variant, err)
		}
	}
	var ce *CanceledError
	if _, err := s.EstimateInfluenceCtx(ctx, q.Node); !errors.As(err, &ce) {
		t.Errorf("EstimateInfluenceCtx error %T carries no progress", err)
	} else if ce.Total == 0 || ce.Done != 0 {
		t.Errorf("unexpected progress %d/%d", ce.Done, ce.Total)
	}
	if _, _, err := s.MaximizeInfluenceCtx(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("MaximizeInfluenceCtx error = %v", err)
	}

	// Validation still runs before the context check, with the plain shape.
	_, errPlain := s.Discover(-1, 0)
	_, errCtx := s.DiscoverCtx(ctx, -1, 0)
	if errPlain == nil || errCtx == nil || errPlain.Error() != errCtx.Error() {
		t.Errorf("validation error shape differs: %v vs %v", errPlain, errCtx)
	}
}

// TestCanceledQueryFlushesPartialTrace locks the flush-on-cancel contract:
// a query stopped by cancellation still records the spans of the stages it
// entered, and the recorder classifies it as canceled. CODU is the probe
// because its pipeline reaches the sampling stage (which flushes a partial
// span) even when the context is already dead; CODL's up-front ctx check
// returns before any instrumented stage runs.
func TestCanceledQueryFlushesPartialTrace(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := determinismQueries(g)[0]

	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	tr := obs.NewTrace()
	ctx, cancel := context.WithCancel(
		obs.WithRecorder(context.Background(), obs.NewRecorder(m, tr)))
	cancel()

	if _, err := discoverVariant(ctx, s, "codu", q.Node, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("variant=codu error = %v, want context.Canceled", err)
	}
	if tr.Len() == 0 {
		t.Fatal("canceled query flushed no trace spans")
	}
	found := false
	for _, sp := range tr.Spans() {
		if sp.Stage == obs.StageRRSample {
			found = true
			if sp.Items != 0 {
				t.Errorf("immediately-canceled sampling span reports %d items, want 0", sp.Items)
			}
		}
	}
	if !found {
		t.Errorf("trace spans %+v have no rr_sample span", tr.Spans())
	}
	if got := m.QueriesCanceled.Value(); got != 1 {
		t.Errorf("cod_queries_canceled_total = %d, want 1", got)
	}
	if got := m.Queries.Value(); got != 1 {
		t.Errorf("cod_queries_total = %d, want 1", got)
	}
}

func TestDiscoverCtxDeadline(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := determinismQueries(g)[0]
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := s.DiscoverCtx(ctx, q.Node, q.Attr); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline error = %v, want DeadlineExceeded", err)
	}
}

func TestDiscoverBatchCtxCancellation(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := determinismQueries(g)
	queries = append(queries, Query{Node: -1, Attr: 0})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := s.DiscoverBatchCtx(ctx, queries, 4)
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("item %d: canceled batch item returned no error", i)
		}
		if i == len(results)-1 {
			// The invalid query must be rejected by validation, not the
			// context: validation is checked first.
			if errors.Is(r.Err, context.Canceled) {
				t.Errorf("invalid query reported context error: %v", r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d: error %v does not unwrap to context.Canceled", i, r.Err)
		}
	}
}

func TestDiscoverBatchValidationMatchesDiscover(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Node and attribute range errors must share one shape between the
	// scalar and batch APIs (and Validate).
	cases := []Query{{Node: NodeID(g.N()), Attr: 0}, {Node: 0, Attr: AttrID(g.NumAttrs())}}
	for _, q := range cases {
		_, scalarErr := s.Discover(q.Node, q.Attr)
		batch := s.DiscoverBatch([]Query{q}, 1)
		if scalarErr == nil || batch[0].Err == nil {
			t.Fatalf("invalid query %+v accepted", q)
		}
		if scalarErr.Error() != batch[0].Err.Error() {
			t.Errorf("error shapes differ for %+v:\n scalar: %v\n batch:  %v", q, scalarErr, batch[0].Err)
		}
		if vErr := s.Validate(q.Node, q.Attr); vErr == nil || vErr.Error() != scalarErr.Error() {
			t.Errorf("Validate shape differs for %+v: %v vs %v", q, vErr, scalarErr)
		}
	}
}

// errFlipCtx flips Err() to Canceled after a fixed number of calls, placing
// the cancellation at a deterministic point in the middle of a run.
type errFlipCtx struct {
	context.Context
	calls, nilFor int
}

func (c *errFlipCtx) Err() error {
	c.calls++
	if c.calls > c.nilFor {
		return context.Canceled
	}
	return nil
}

// TestAdaptiveCanceledMidStageFlushesPartialTrace extends the flush-on-
// cancel contract to staged sampling: a cancel landing in the middle of an
// adaptive query's stage schedule must surface a *CanceledError with the
// cumulative cross-stage progress, and every stage the query entered must
// have flushed its per-stage rr_sample span — the span item counts sum to
// exactly the samples the error reports paid for.
func TestAdaptiveCanceledMidStageFlushesPartialTrace(t *testing.T) {
	g := buildTestGraph(t)
	opts := Options{K: 3, Theta: 4, Seed: 5}
	// Uncertifiable thresholds force the full multi-stage schedule.
	opts.Adaptive = AdaptiveOptions{Enabled: true, Eps: 1e-300, Delta: 1e-300}
	s, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := determinismQueries(g)[0]

	// Walk the flip point forward until the cancel lands strictly inside the
	// sampling schedule. Each nilFor value replays deterministically, so the
	// first partial run found is a stable test case.
	for nilFor := 1; nilFor < 100; nilFor++ {
		tr := obs.NewTrace()
		base := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))
		fc := &errFlipCtx{Context: base, nilFor: nilFor}
		_, err := discoverVariant(fc, s, "codu", q.Node, 0)
		if err == nil {
			t.Fatalf("nilFor=%d: adaptive query completed before any cancel landed", nilFor)
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("nilFor=%d: error %T is not *CanceledError (err=%v)", nilFor, err, err)
		}
		if ce.Done == 0 || ce.Op != "influence: rr batch" {
			// Canceled before sampling started, or inside a non-sampling
			// stage (e.g. the fold, whose Done counts folded RR graphs, not
			// drawn samples); flip later until the cancel lands mid-draw.
			continue
		}
		if ce.Done >= ce.Total {
			t.Fatalf("nilFor=%d: progress %d/%d is not partial", nilFor, ce.Done, ce.Total)
		}
		var items int64
		spans := 0
		for _, sp := range tr.Spans() {
			if sp.Stage == obs.StageRRSample {
				items += sp.Items
				spans++
			}
		}
		if items != int64(ce.Done) {
			t.Errorf("nilFor=%d: rr_sample spans carry %d items across %d stages, want the %d samples the error reports",
				nilFor, items, spans, ce.Done)
		}
		if spans == 0 {
			t.Error("no rr_sample stage span flushed")
		}
		return
	}
	t.Fatal("no flip point produced a mid-sampling cancel")
}
