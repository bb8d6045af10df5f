package eventlog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/obs"
)

// event builds a served-query event the way codserve does: Slow is set
// where the event is built, from the threshold.
func event(op string, d, slowAfter time.Duration) *Event {
	e := New(nil, op, time.Unix(0, 0), d, 200)
	e.Slow = d >= slowAfter
	return e
}

func TestFlightRecorderRetention(t *testing.T) {
	f := NewFlightRecorder(3, 2, 100*time.Millisecond)
	for i := 0; i < 5; i++ {
		f.Record(event(fmt.Sprintf("q%d", i), time.Millisecond, f.SlowAfter()))
	}
	recent := f.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent ring holds %d events, want 3", len(recent))
	}
	// Newest first, oldest overwritten.
	for i, wantOp := range []string{"q4", "q3", "q2"} {
		if recent[i].Op != wantOp {
			t.Errorf("recent[%d].Op = %q, want %q", i, recent[i].Op, wantOp)
		}
	}
	if slow := f.Slow(); len(slow) != 0 {
		t.Errorf("fast queries landed in the slow ring: %d events", len(slow))
	}
}

func TestFlightRecorderSlowClassification(t *testing.T) {
	f := NewFlightRecorder(8, 4, 100*time.Millisecond)
	f.Record(event("fast", time.Millisecond, f.SlowAfter()))
	f.Record(event("at-threshold", 100*time.Millisecond, f.SlowAfter()))
	f.Record(event("over", time.Second, f.SlowAfter()))
	errored := New(nil, "errored", time.Unix(0, 0), time.Millisecond, 400)
	errored.Err = "boom"
	f.Record(errored)
	f.Record(New(nil, "failed", time.Unix(0, 0), time.Millisecond, 500))
	f.Record(New(nil, "rejected", time.Unix(0, 0), time.Millisecond, 400))

	slow := f.Slow()
	ops := make([]string, len(slow))
	for i, e := range slow {
		ops[i] = e.Op
	}
	want := []string{"failed", "errored", "over", "at-threshold"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("slow ring = %v, want %v", ops, want)
	}
	if len(f.Recent()) != 6 {
		t.Errorf("recent ring holds %d events, want all 6", len(f.Recent()))
	}
	for _, e := range f.Recent() {
		if e.Slow != (e.Op == "over" || e.Op == "at-threshold") {
			t.Errorf("event %q: Slow = %t; the recorder must not rewrite the bit", e.Op, e.Slow)
		}
	}
}

// TestFlightRecorderSlowSurvivesFastBurst locks the reason the slow ring
// exists: a flood of fast queries must not flush a retained slow one.
func TestFlightRecorderSlowSurvivesFastBurst(t *testing.T) {
	f := NewFlightRecorder(4, 4, 100*time.Millisecond)
	f.Record(event("the-slow-one", time.Second, f.SlowAfter()))
	for i := 0; i < 100; i++ {
		f.Record(event("fast", time.Millisecond, f.SlowAfter()))
	}
	slow := f.Slow()
	if len(slow) != 1 || slow[0].Op != "the-slow-one" {
		t.Fatalf("slow query flushed by fast burst; slow ring = %+v", slow)
	}
	for _, e := range f.Recent() {
		if e.Op == "the-slow-one" {
			t.Error("slow query still in the recent ring after 100 overwrites")
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(event("q", time.Millisecond, DefaultSlowAfter)) // must not panic
	f2 := NewFlightRecorder(0, 0, 0)
	f2.Record(nil) // must not panic
	if f2.SlowAfter() != DefaultSlowAfter {
		t.Errorf("slowAfter <= 0 defaulted to %v, want %v", f2.SlowAfter(), DefaultSlowAfter)
	}
	f2.Record(event("q", time.Second, f2.SlowAfter()))
	if len(f2.Recent()) != 1 || len(f2.Slow()) != 1 {
		t.Errorf("rings sized below 1 hold %d recent / %d slow, want 1/1", len(f2.Recent()), len(f2.Slow()))
	}
}

// TestFlightRecorderConcurrent stress-tests the lock-free rings under -race:
// concurrent writers and readers must never tear an event or index out of
// bounds.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, 4, 50*time.Millisecond)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				d := time.Millisecond
				if i%7 == 0 {
					d = time.Second
				}
				f.Record(event(fmt.Sprintf("w%d-%d", w, i), d, f.SlowAfter()))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range f.Recent() {
					if e.Op == "" {
						t.Error("torn event: empty op")
						return
					}
				}
				_ = f.Slow()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := len(f.Recent()); got != 8 {
		t.Errorf("recent ring holds %d events after full stress, want 8", got)
	}
}

func TestNewNestsSpansUnderSteps(t *testing.T) {
	tr := obs.NewTrace()
	tr.EnsureID(obs.SeedTraceID(97))
	r := obs.NewRecorder(nil, tr)

	// Step 1 wraps one stage span; step 2 wraps none; one span is recorded
	// outside any step and must surface at the top level.
	st1 := r.StartStep("codl", "sample")
	r.StartSpan(obs.StageRRSample).EndItems(12)
	st1.End("sampled")
	st2 := r.StartStep("codl", "evaluate")
	st2.End("ok")
	r.StartSpan(obs.StageHimorBuild).End()

	e := New(tr, "/discover", time.Now(), time.Millisecond, 200)
	if e.TraceID != obs.SeedTraceID(97) {
		t.Errorf("TraceID = %q, want seed-derived %q", e.TraceID, obs.SeedTraceID(97))
	}
	if len(e.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(e.Steps))
	}
	if e.Steps[0].Kind != "sample" || e.Steps[0].Outcome != "sampled" {
		t.Errorf("step 0 = %+v, want kind=sample outcome=sampled", e.Steps[0])
	}
	if len(e.Steps[0].Spans) != 1 || e.Steps[0].Spans[0].Stage != obs.StageRRSample.String() {
		t.Errorf("step 0 spans = %+v, want one %s span", e.Steps[0].Spans, obs.StageRRSample)
	}
	if e.Steps[0].Spans[0].Items != 12 {
		t.Errorf("nested span items = %d, want 12", e.Steps[0].Spans[0].Items)
	}
	if len(e.Steps[1].Spans) != 0 {
		t.Errorf("step 1 claimed %d spans, want 0", len(e.Steps[1].Spans))
	}
	if len(e.Spans) != 1 || e.Spans[0].Stage != obs.StageHimorBuild.String() {
		t.Errorf("top-level spans = %+v, want one unclaimed %s span", e.Spans, obs.StageHimorBuild)
	}
}

func TestNewNilTrace(t *testing.T) {
	e := New(nil, "op", time.Now(), time.Millisecond, 0)
	if e.TraceID != "" || len(e.Steps) != 0 || len(e.Spans) != 0 || e.Seed != "" {
		t.Errorf("nil-trace event carries trace data: %+v", e)
	}
	if e.Node != -1 || e.Attr != -1 || e.Outcome != OutcomeOK {
		t.Errorf("nil-trace event = %+v, want node/attr -1 and outcome ok", e)
	}
}

func tracedEvent(t *testing.T, kind, outcome string) *Event {
	t.Helper()
	tr := obs.NewTrace()
	tr.EnsureID(obs.SeedTraceID(7))
	r := obs.NewRecorder(nil, tr)
	st := r.StartStep("codl", kind)
	r.StartSpan(obs.StageHimorLookup).EndItems(3)
	st.End(outcome)
	e := New(tr, "/discover", time.Now(), time.Second, 200)
	e.Slow = true
	return e
}

func TestFlightServeHTTPJSON(t *testing.T) {
	f := NewFlightRecorder(4, 2, 100*time.Millisecond)
	f.Record(tracedEvent(t, "extract", "found"))

	rw := httptest.NewRecorder()
	f.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/queries", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var body struct {
		SlowAfter string   `json:"slow_after"`
		Recent    []*Event `json:"recent"`
		Slow      []*Event `json:"slow"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rw.Body.String())
	}
	if body.SlowAfter != "100ms" {
		t.Errorf("slow_after = %q, want 100ms", body.SlowAfter)
	}
	if len(body.Recent) != 1 || len(body.Slow) != 1 {
		t.Fatalf("got %d recent / %d slow, want 1/1 (a slow event)", len(body.Recent), len(body.Slow))
	}
	got := body.Recent[0]
	if got.TraceID != obs.SeedTraceID(7) || !got.Slow || len(got.Steps) != 1 {
		t.Errorf("event = %+v, want trace %s, slow, one step", got, obs.SeedTraceID(7))
	}
	if got.Steps[0].Outcome != "found" {
		t.Errorf("step outcome = %q, want found", got.Steps[0].Outcome)
	}
	if sp := got.Steps[0].Spans; len(sp) != 1 || sp[0].Stage != "himor_lookup" || sp[0].Items != 3 {
		t.Errorf("step spans = %+v, want one himor_lookup span with 3 items", sp)
	}
}

func TestFlightServeHTTPText(t *testing.T) {
	f := NewFlightRecorder(4, 2, 100*time.Millisecond)
	e := tracedEvent(t, "weight", "lore")
	e.Epoch = 5
	e.Expr = "lang and node=3"
	f.Record(e)

	rw := httptest.NewRecorder()
	f.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/queries?format=text", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	out := rw.Body.String()
	for _, want := range []string{
		"slow threshold: 100ms",
		"trace=" + obs.SeedTraceID(7),
		"epoch=5",
		`expr="lang and node=3"`,
		"step codl/weight outcome=lore",
		"    span himor_lookup dur=",
		" SLOW",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestFlightServeHTTPMethodNotAllowed(t *testing.T) {
	f := NewFlightRecorder(2, 2, 0)
	rw := httptest.NewRecorder()
	f.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/debug/queries", nil))
	if rw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rw.Code)
	}
	if rw.Header().Get("Allow") != http.MethodGet {
		t.Errorf("Allow = %q, want GET", rw.Header().Get("Allow"))
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(128, 32, DefaultSlowAfter)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Record(&Event{Op: "/discover", DurNS: int64(time.Millisecond)})
	}
}
