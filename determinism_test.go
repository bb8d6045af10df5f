package cod

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// This file is the determinism-replay suite: the same seeded workload must
// produce byte-identical output regardless of the worker count, both for the
// offline phase (Options.Workers drives parallel RR sampling) and the online
// batch path (DiscoverBatch's worker pool). Run it under -race (`make race`):
// the replay exercises the concurrent paths, so the two gates compose.

// batchBytes serializes batch results exactly (order, membership, flags,
// errors), so two runs compare byte-for-byte.
func batchBytes(results []BatchResult) string {
	out := ""
	for i, r := range results {
		errText := "<nil>"
		if r.Err != nil {
			errText = r.Err.Error()
		}
		out += fmt.Sprintf("%d: q=%+v found=%t fromIndex=%t nodes=%v err=%s\n",
			i, r.Query, r.Community.Found, r.Community.FromIndex, r.Community.Nodes, errText)
	}
	return out
}

func determinismQueries(g *Graph) []Query {
	var queries []Query
	for v := NodeID(0); int(v) < g.N() && len(queries) < 16; v += 3 {
		if as := g.Attrs(v); len(as) > 0 {
			queries = append(queries, Query{Node: v, Attr: as[0]})
		}
	}
	return queries
}

func TestDiscoverBatchReplayByteIdentical(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	want := batchBytes(s.DiscoverBatch(queries, 1))
	for _, workers := range []int{2, 8} {
		got := batchBytes(s.DiscoverBatch(queries, workers))
		if got != want {
			t.Errorf("workers=%d batch differs from sequential run:\n--- sequential\n%s--- workers=%d\n%s",
				workers, want, workers, got)
		}
	}
}

// TestDiscoverCtxByteIdenticalToDiscover locks the context-plumbing
// contract: an uncancelled DiscoverCtx must answer byte-identically to
// Discover — the bounded-interval ctx polling consumes no randomness. Two
// independently built Searchers isolate the per-query seed sequence.
func TestDiscoverCtxByteIdenticalToDiscover(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	opts := Options{K: 3, Theta: 4, Seed: 97}
	s1, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcherCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err1 := s1.Discover(q.Node, q.Attr)
		got, err2 := s2.DiscoverCtx(context.Background(), q.Node, q.Attr)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %+v errored: %v / %v", q, err1, err2)
		}
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Errorf("query %+v: DiscoverCtx %+v differs from Discover %+v", q, got, want)
		}
	}
	// The unattributed and global variants share the same contract.
	q := queries[0]
	for _, expr := range []string{"variant=codu", fmt.Sprintf("%d and variant=codr", q.Attr)} {
		pq1, err1 := s1.Prepare(expr)
		pq2, err2 := s2.Prepare(expr)
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: %v / %v", expr, err1, err2)
		}
		want, _ := pq1.Discover(q.Node)
		got, _ := pq2.DiscoverCtx(context.Background(), q.Node)
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Errorf("%q: DiscoverCtx %+v differs from Discover %+v", expr, got, want)
		}
	}
}

// TestDiscoverBatchCtxByteIdentical extends the replay suite to the ctx
// batch path: uncancelled DiscoverBatchCtx must equal DiscoverBatch for
// every worker count.
func TestDiscoverBatchCtxByteIdentical(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	queries := determinismQueries(g)
	// Include invalid entries: up-front validation must report them the same
	// way on both paths.
	queries = append(queries, Query{Node: -1, Attr: 0}, Query{Node: 0, Attr: 9999})
	want := batchBytes(s.DiscoverBatch(queries, 1))
	for _, workers := range []int{1, 2, 8} {
		got := batchBytes(s.DiscoverBatchCtx(context.Background(), queries, workers))
		if got != want {
			t.Errorf("ctx batch workers=%d differs:\n--- plain\n%s--- ctx\n%s", workers, want, got)
		}
	}
}

// TestDiscoverWithRecorderByteIdentical locks the observability contract of
// DESIGN.md §11: a live Recorder (metrics + trace) attached to the context
// must not change a single byte of any result. Instrumentation reads clocks
// and counts but never draws randomness or branches on measured values.
func TestDiscoverWithRecorderByteIdentical(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	opts := Options{K: 3, Theta: 4, Seed: 97}

	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, obs.NewTrace()))

	// Two independently built Searchers isolate the per-query seed sequence;
	// the second one is built AND queried with the recorder attached, so the
	// offline phase is instrumented too.
	s1, err := NewSearcherCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcherCtx(rctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err1 := s1.DiscoverCtx(context.Background(), q.Node, q.Attr)
		got, err2 := s2.DiscoverCtx(rctx, q.Node, q.Attr)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %+v errored: %v / %v", q, err1, err2)
		}
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Errorf("query %+v: instrumented %+v differs from plain %+v", q, got, want)
		}
	}
	for _, variant := range []string{"codu", "codr"} {
		q := queries[0]
		want, _ := discoverVariant(context.Background(), s1, variant, q.Node, q.Attr)
		got, _ := discoverVariant(rctx, s2, variant, q.Node, q.Attr)
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Errorf("instrumented %s %+v differs from plain %+v", variant, got, want)
		}
	}

	// The recorder must have actually observed the work — a vacuous pass
	// (instrumentation silently detached) would prove nothing.
	if got := m.Queries.Value(); got == 0 {
		t.Error("recorder saw no queries; instrumentation is not wired")
	}
	var spans int64
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		spans += m.StageSeconds(s).Count()
	}
	if spans == 0 {
		t.Error("recorder saw no stage spans; pipeline instrumentation is not wired")
	}
}

// TestDiscoverBatchWithRecorderByteIdentical extends the lock to the batch
// path, where one Recorder is shared across workers.
func TestDiscoverBatchWithRecorderByteIdentical(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	queries := determinismQueries(g)
	want := batchBytes(s.DiscoverBatchCtx(context.Background(), queries, 4))

	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, obs.NewTrace()))
	got := batchBytes(s.DiscoverBatchCtx(rctx, queries, 4))
	if got != want {
		t.Errorf("instrumented batch differs:\n--- plain\n%s--- instrumented\n%s", want, got)
	}
	if int(m.Queries.Value()) != len(queries) {
		t.Errorf("recorder counted %d queries, want %d", m.Queries.Value(), len(queries))
	}
}

// TestDiscoverWithFlightRecorderByteIdentical extends the §11 lock to the
// flight recorder: per-query traces (trace IDs, step spans) built into
// events and fed to a FlightRecorder after every query must not change a
// single byte of any result. Trace IDs are pure functions of the per-query seed, and the
// seed sequence advances identically with or without instrumentation.
func TestDiscoverWithFlightRecorderByteIdentical(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	opts := Options{K: 3, Theta: 4, Seed: 97}
	s1, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	flight := eventlog.NewFlightRecorder(len(queries), 4, eventlog.DefaultSlowAfter)
	var traceIDs []string
	for _, q := range queries {
		want, err1 := s1.Discover(q.Node, q.Attr)

		// Fresh trace per query, exactly as codserve's middleware does.
		tr := obs.NewTrace()
		rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))
		got, err2 := s2.DiscoverCtx(rctx, q.Node, q.Attr)
		flight.Record(eventlog.New(tr, "discover", time.Now(), 0, 0))

		if err1 != nil || err2 != nil {
			t.Fatalf("query %+v errored: %v / %v", q, err1, err2)
		}
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Errorf("query %+v: flight-instrumented %+v differs from plain %+v", q, got, want)
		}
		traceIDs = append(traceIDs, tr.ID())
	}

	// The flight recorder must have retained real traces — and the trace IDs,
	// being seed-derived, must replay identically on a rebuilt searcher.
	recent := flight.Recent()
	if len(recent) != len(queries) {
		t.Fatalf("flight recorder retained %d events, want %d", len(recent), len(queries))
	}
	for _, ev := range recent {
		if len(ev.TraceID) != 32 {
			t.Errorf("event of seed %s has malformed trace ID %q", ev.Seed, ev.TraceID)
		}
		if len(ev.Steps) == 0 {
			t.Errorf("event with trace %s carries no step spans", ev.TraceID)
		}
	}
	s3, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		tr := obs.NewTrace()
		rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))
		if _, err := s3.DiscoverCtx(rctx, q.Node, q.Attr); err != nil {
			t.Fatal(err)
		}
		if tr.ID() != traceIDs[i] {
			t.Errorf("query %d: trace ID %s does not replay (got %s): IDs must be pure functions of the seed sequence",
				i, traceIDs[i], tr.ID())
		}
	}
}

// TestAdaptiveExhaustedByteIdentical locks the PR-8 staged-sampling
// determinism contract at the public API: an adaptive Searcher whose
// thresholds can never certify (subnormal ε and δ survive the >0 default
// checks) runs every stage to exhaustion, and must then be byte-identical
// to the non-adaptive Searcher — same communities on every path and worker
// count, and the same replayed trace IDs, because the staged draws consume
// the per-query PCG stream in exactly the full-budget order.
func TestAdaptiveExhaustedByteIdentical(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	base := Options{K: 3, Theta: 4, Seed: 97}
	exhaustive := base
	exhaustive.Adaptive = AdaptiveOptions{Enabled: true, Eps: 1e-300, Delta: 1e-300}

	s1, err := NewSearcher(g, base)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcher(g, exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		want := batchBytes(s1.DiscoverBatch(queries, workers))
		got := batchBytes(s2.DiscoverBatch(queries, workers))
		if got != want {
			t.Errorf("workers=%d: exhausted adaptive batch differs from non-adaptive:\n--- plain\n%s--- adaptive\n%s",
				workers, want, got)
		}
	}

	// Trace IDs are seed-derived; the adaptive searcher must replay the
	// plain searcher's IDs, with only the step outcomes differing.
	s3, err := NewSearcher(g, base)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := NewSearcher(g, exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		tr1, tr2 := obs.NewTrace(), obs.NewTrace()
		ctx1 := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr1))
		ctx2 := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr2))
		if _, err := s3.DiscoverCtx(ctx1, q.Node, q.Attr); err != nil {
			t.Fatal(err)
		}
		if _, err := s4.DiscoverCtx(ctx2, q.Node, q.Attr); err != nil {
			t.Fatal(err)
		}
		if tr1.ID() != tr2.ID() {
			t.Errorf("query %+v: adaptive trace ID %s differs from plain %s", q, tr2.ID(), tr1.ID())
		}
		for _, st := range tr2.Steps() {
			if st.Kind == "sample" {
				if st.Outcome != "exhausted" {
					t.Errorf("query %+v: exhaustive adaptive sample outcome %q, want exhausted", q, st.Outcome)
				}
				if st.Stages < 1 {
					t.Errorf("query %+v: sample step records %d stages", q, st.Stages)
				}
			}
		}
	}
}

// TestAdaptiveEarlyStopInFlightRecorder checks the /debug/queries surface:
// a query that certifies early must show up in the flight recorder with the
// early_stop outcome and its realized stage count on the sample step. An ε
// just below 1, the widest Options accept, makes the indifference rule fire
// at the first certification check, so the early stop is guaranteed even on
// the tiny test graph.
func TestAdaptiveEarlyStopInFlightRecorder(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	opts := Options{K: 3, Theta: 4, Seed: 97}
	opts.Adaptive = AdaptiveOptions{Enabled: true, Eps: 0.99, Delta: 0.05}
	s, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	flight := eventlog.NewFlightRecorder(len(queries), 4, eventlog.DefaultSlowAfter)
	for _, q := range queries {
		tr := obs.NewTrace()
		rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))
		if _, err := s.DiscoverCtx(rctx, q.Node, q.Attr); err != nil {
			t.Fatal(err)
		}
		flight.Record(eventlog.New(tr, "discover", time.Now(), 0, 0))
	}
	stops := 0
	for _, ev := range flight.Recent() {
		for _, st := range ev.Steps {
			if st.Kind == "sample" && st.Outcome == "early_stop" {
				stops++
				if st.Stages < 1 {
					t.Errorf("trace %s: early_stop sample step records %d stages", ev.TraceID, st.Stages)
				}
			}
		}
	}
	if stops == 0 {
		t.Error("no early_stop outcome reached the flight recorder at ε=0.99")
	}
}

func TestSearcherReplayAcrossOfflineWorkerCounts(t *testing.T) {
	// Two Searchers built independently with the same seed but different
	// offline sampling parallelism must answer identically: construction
	// re-runs clustering and HIMOR indexing from scratch, so this also
	// catches any map-iteration-order leak in the offline phase.
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	var want string
	for i, workers := range []int{1, 8} {
		s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := batchBytes(s.DiscoverBatch(queries, 4))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("offline workers=%d produces different answers:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, want, workers, got)
		}
	}
}
