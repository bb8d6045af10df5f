package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageHACMerge:    "hac_merge",
		StageLoreScore:   "lore_score",
		StageRRSample:    "rr_sample",
		StageRRInduce:    "rr_induce",
		StageTopKSweep:   "topk_sweep",
		StageHimorLookup: "himor_lookup",
		StageHimorBuild:  "himor_build",
		Stage(-1):        "unknown",
		NumStages:        "unknown",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, name)
		}
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	tr := NewTrace()
	tr.add(SpanRecord{Stage: StageRRSample, Duration: 2 * time.Millisecond, Items: 40})
	tr.add(SpanRecord{Stage: StageTopKSweep, Duration: time.Millisecond, Items: 7})
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	spans := tr.Spans()
	if spans[0].Stage != StageRRSample || spans[0].Items != 40 {
		t.Errorf("span 0 = %+v", spans[0])
	}
}

func TestTraceConcurrentAdds(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.add(SpanRecord{Stage: StageRRSample, Items: 1})
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 4000 {
		t.Errorf("len = %d, want 4000", got)
	}
}

// TestNilRecorderIsSafe locks in the nil-safety contract: every Recorder
// method — and the Span a nil Recorder hands out — is a no-op, so
// uninstrumented pipeline calls need no nil checks of their own.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	span := r.StartSpan(StageRRSample)
	span.End()
	span.EndItems(10)
	r.AddItems(StageRRSample, 5)
	r.CountQuery(nil)
	r.CountQuery(errors.New("boom"))
	r.CountIndexHit()
	if r.Metrics() != nil || r.Trace() != nil {
		t.Error("nil recorder accessors must return nil")
	}
	if NewRecorder(nil, nil) != nil {
		t.Error("NewRecorder(nil, nil) must be nil to keep the fast path")
	}
}

func TestFromContextDefaultsNil(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("bare context must yield a nil recorder")
	}
	rec := NewRecorder(nil, NewTrace())
	ctx := WithRecorder(context.Background(), rec)
	if FromContext(ctx) != rec {
		t.Error("recorder did not round-trip through the context")
	}
	if got := WithRecorder(context.Background(), nil); got != context.Background() {
		t.Error("attaching a nil recorder must return the context unchanged")
	}
}

func TestSpanRecordsMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	m := NewQueryMetrics(reg)
	tr := NewTrace()
	rec := NewRecorder(m, tr)

	span := rec.StartSpan(StageTopKSweep)
	span.EndItems(12)
	if got := m.StageSeconds(StageTopKSweep).Count(); got != 1 {
		t.Errorf("stage histogram count = %d, want 1", got)
	}
	if got := m.StageItems(StageTopKSweep).Value(); got != 12 {
		t.Errorf("stage items = %d, want 12", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("trace len = %d, want 1", tr.Len())
	}
	if s := tr.Spans()[0]; s.Stage != StageTopKSweep || s.Items != 12 {
		t.Errorf("trace span = %+v", s)
	}

	rec.AddItems(StageRRSample, 30)
	if got := m.StageItems(StageRRSample).Value(); got != 30 {
		t.Errorf("AddItems = %d, want 30", got)
	}
}

func TestCountQueryClassification(t *testing.T) {
	reg := NewRegistry()
	m := NewQueryMetrics(reg)
	rec := NewRecorder(m, nil)

	rec.CountQuery(nil)
	rec.CountQuery(errors.New("bad attr"))
	rec.CountQuery(context.Canceled)
	rec.CountQuery(fmt.Errorf("wrapped: %w", context.DeadlineExceeded))

	if got := m.Queries.Value(); got != 4 {
		t.Errorf("queries = %d, want 4", got)
	}
	if got := m.QueryErrors.Value(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got := m.QueriesCanceled.Value(); got != 2 {
		t.Errorf("canceled = %d, want 2", got)
	}
}

// TestQueryMetricsStageNames asserts every stage gets both a latency
// histogram and an item counter with the documented label-free names.
func TestQueryMetricsStageNames(t *testing.T) {
	reg := NewRegistry()
	NewQueryMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for s := Stage(0); s < NumStages; s++ {
		for _, name := range []string{
			"cod_stage_" + s.String() + "_seconds_count",
			"cod_stage_" + s.String() + "_items_total",
		} {
			if !strings.Contains(out, name) {
				t.Errorf("exposition missing %s", name)
			}
		}
	}
	// Idempotent re-registration must not panic or duplicate.
	NewQueryMetrics(reg)
}

// TestNilRecorderNoAllocs locks the standing contract: the nil-Recorder
// fast path of every per-query hook costs one branch, never an allocation.
func TestNilRecorderNoAllocs(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(100, func() {
		sp := r.StartSpan(StageRRSample)
		sp.EndItems(3)
		st := r.StartStep("codl", "sample")
		st.End("sampled")
		r.EnsureTraceID(97)
		r.CountQuery(nil)
		r.CountIndexHit()
	}); n != 0 {
		t.Errorf("nil-Recorder instrumentation allocates %.1f times per query, want 0", n)
	}
	// A metrics-only recorder (no trace) must not allocate per step either:
	// StartStep is trace-only and returns the zero StepSpan.
	mr := NewRecorder(NewQueryMetrics(NewRegistry()), nil)
	if n := testing.AllocsPerRun(100, func() {
		st := mr.StartStep("codl", "sample")
		st.End("sampled")
	}); n != 0 {
		t.Errorf("metrics-only StartStep allocates %.1f times, want 0", n)
	}
}

// BenchmarkNilRecorderStep is the benchmark form of the contract above: the
// per-step overhead with no recorder attached. Run with -benchmem; the
// report must show 0 allocs/op.
func BenchmarkNilRecorderStep(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartStep("codl", "sample")
		sp.End("sampled")
	}
}
