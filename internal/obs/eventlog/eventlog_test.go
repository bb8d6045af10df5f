package eventlog

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/faultfs"
	"github.com/codsearch/cod/internal/obs"
)

// mkEvent builds a deterministic OK event; the trace ID is seed-derived so
// sampling decisions replay across test runs.
func mkEvent(i int) *Event {
	return &Event{
		TraceID: obs.SeedTraceID(uint64(i) + 1),
		Time:    time.Unix(1700000000, int64(i)).UTC(),
		Op:      "/discover",
		Variant: "CODL",
		Pred:    "attr:0",
		Node:    int64(i),
		Attr:    0,
		Seed:    fmt.Sprintf("%d", i+1),
		Status:  200,
		Outcome: OutcomeOK,
		DurNS:   int64(i+1) * int64(time.Millisecond),
		Steps: []Step{
			{Variant: "CODL", Kind: "weight", Outcome: "lore", DurNS: 1000},
			{Variant: "CODL", Kind: "sample", Outcome: "cache_miss", DurNS: 2000},
		},
	}
}

func scanAll(t *testing.T, dir string) ([]*Event, ScanStats) {
	t.Helper()
	var got []*Event
	st, err := Scan(dir, func(e *Event) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return got, st
}

func TestSinkRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxFileBytes: 512, SampleRate: 1, QueueSize: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		s.Record(mkEvent(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.Stats(); got.Written != n || got.Dropped != 0 || got.SampledOut != 0 {
		t.Fatalf("Stats = %+v, want Written=%d Dropped=0 SampledOut=0", got, n)
	}
	if s.Stats().Rotations == 0 {
		t.Fatalf("expected at least one rotation with MaxFileBytes=512")
	}
	files, err := Files(dir)
	if err != nil {
		t.Fatalf("Files: %v", err)
	}
	if len(files) < 2 {
		t.Fatalf("expected rotation to produce >= 2 files, got %v", files)
	}
	got, st := scanAll(t, dir)
	if st.Torn != 0 || st.Corrupt != 0 || len(got) != n {
		t.Fatalf("scan: %d events, stats %+v, want %d clean", len(got), st, n)
	}
	for i, e := range got {
		want := mkEvent(i)
		if e.TraceID != want.TraceID || e.Node != want.Node || e.Seed != want.Seed {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
		if len(e.Steps) != 2 || e.Steps[1].Outcome != "cache_miss" {
			t.Fatalf("event %d steps = %+v", i, e.Steps)
		}
	}
}

// A Record after Close drops its event and counts it; it must not panic
// on the stopped writer, and a second Close is a no-op.
func TestSinkRecordAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Record(mkEvent(0))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 1; i <= 3; i++ {
		s.Record(mkEvent(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := s.Stats(); got.Written != 1 || got.Dropped != 3 {
		t.Fatalf("Stats = %+v, want Written=1 Dropped=3", got)
	}
	if got, _ := scanAll(t, dir); len(got) != 1 {
		t.Fatalf("log holds %d events, want 1", len(got))
	}
}

// Records racing Close never panic, and every event is accounted for:
// written to the log or counted as dropped, never both and never lost.
func TestSinkRecordRacingClose(t *testing.T) {
	const writers, each = 4, 200
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SampleRate: 1, QueueSize: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				s.Record(mkEvent(w*each + i))
			}
		}(w)
	}
	close(start)
	closeErr := s.Close()
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}
	got, st := scanAll(t, dir)
	if st.Torn != 0 || st.Corrupt != 0 {
		t.Fatalf("scan stats %+v, want a clean log", st)
	}
	stats := s.Stats()
	if stats.Written != int64(len(got)) {
		t.Fatalf("Written = %d, log holds %d events", stats.Written, len(got))
	}
	if total := stats.Written + stats.Dropped; total != writers*each {
		t.Fatalf("Written %d + Dropped %d = %d, want %d", stats.Written, stats.Dropped, total, writers*each)
	}
}

// TestSinkFreshFilePerOpen: a reopened sink continues the file sequence
// instead of appending to a predecessor's (possibly torn) tail.
func TestSinkFreshFilePerOpen(t *testing.T) {
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		s, err := Open(Options{Dir: dir, SampleRate: 1})
		if err != nil {
			t.Fatalf("Open run %d: %v", run, err)
		}
		s.Record(mkEvent(run))
		if err := s.Close(); err != nil {
			t.Fatalf("Close run %d: %v", run, err)
		}
	}
	files, _ := Files(dir)
	if len(files) != 2 {
		t.Fatalf("want one file per run, got %v", files)
	}
	got, st := scanAll(t, dir)
	if len(got) != 2 || st.Torn != 0 {
		t.Fatalf("scan after two runs: %d events, %+v", len(got), st)
	}
}

func TestKeepTraceDeterministic(t *testing.T) {
	const rate = 0.5
	kept := map[string]bool{}
	for i := 0; i < 2000; i++ {
		id := obs.SeedTraceID(uint64(i))
		kept[id] = KeepTrace(id, rate)
	}
	keptN := 0
	for i := 0; i < 2000; i++ {
		id := obs.SeedTraceID(uint64(i))
		if KeepTrace(id, rate) != kept[id] {
			t.Fatalf("KeepTrace(%s, %v) changed between calls", id, rate)
		}
		if kept[id] {
			keptN++
		}
	}
	// The kept fraction should be near the rate (hash uniformity).
	if keptN < 800 || keptN > 1200 {
		t.Fatalf("kept %d of 2000 at rate 0.5; hash badly skewed", keptN)
	}
	if !KeepTrace("anything", 1) || KeepTrace("anything", 0) {
		t.Fatalf("rate bounds: 1 must keep, 0 must drop")
	}
}

func TestKeepHeadTailRule(t *testing.T) {
	errEvent := mkEvent(0)
	errEvent.Outcome = OutcomeError
	if !Keep(errEvent, 0) {
		t.Fatalf("error events must always be kept")
	}
	slowEvent := mkEvent(1)
	slowEvent.Slow = true
	if !Keep(slowEvent, 0) {
		t.Fatalf("slow events must always be kept")
	}
	fastOK := mkEvent(2)
	fastOK.DurNS = int64(time.Second)
	if Keep(fastOK, 0) {
		t.Fatalf("OK events not marked slow must pass through the sampling gate, whatever their duration")
	}
	if !Keep(fastOK, 1) {
		t.Fatalf("rate 1 keeps everything")
	}
}

// TestSampledCaptureDeterminism: two sinks capturing the same event stream
// at the same rate keep exactly the same set.
func TestSampledCaptureDeterminism(t *testing.T) {
	const rate = 0.4
	capture := func() []string {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, SampleRate: rate, QueueSize: 256})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < 100; i++ {
			s.Record(mkEvent(i))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		got, _ := scanAll(t, dir)
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.TraceID
		}
		return ids
	}
	a, b := capture(), capture()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("rate %v kept %d of 100; expected a strict subset", rate, len(a))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same stream, same rate, different kept sets:\n%v\n%v", a, b)
	}
}

// tornFile adapts faultfs.TornWriter over an os.File to the FileWriter
// seam: writes tear silently after Keep bytes while Sync/Close stay honest,
// modeling power loss with a lying disk cache.
type tornFile struct {
	f *os.File
	w *faultfs.TornWriter
}

func (t *tornFile) Write(p []byte) (int, error) { return t.w.Write(p) }
func (t *tornFile) Sync() error                 { return t.f.Sync() }
func (t *tornFile) Close() error                { return t.f.Close() }

// TestCrashRecoveryTornWriter: a torn final line (the classic crash) is
// skipped on replay and no event before it is lost.
func TestCrashRecoveryTornWriter(t *testing.T) {
	const n = 10
	const intact = 6 // events whose lines fully precede the tear
	var healthy int64
	for i := 0; i < intact; i++ {
		line, err := json.Marshal(mkEvent(i))
		if err != nil {
			t.Fatal(err)
		}
		healthy += int64(len(line)) + 1
	}
	dir := t.TempDir()
	s, err := Open(Options{
		Dir:        dir,
		SampleRate: 1,
		OpenFile: func(path string) (FileWriter, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			// Tear 10 bytes into event `intact`'s line.
			return &tornFile{f: f, w: &faultfs.TornWriter{W: f, Keep: healthy + 10}}, nil
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		s.Record(mkEvent(i))
	}
	// The writing process observes total success — the tear is invisible
	// until replay, exactly like a real torn write.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, st := scanAll(t, dir)
	if st.Torn != 1 {
		t.Fatalf("scan stats %+v, want exactly one torn tail", st)
	}
	if len(got) != intact {
		t.Fatalf("recovered %d events, want %d (everything before the tear)", len(got), intact)
	}
	for i, e := range got {
		if e.TraceID != obs.SeedTraceID(uint64(i)+1) {
			t.Fatalf("event %d has trace %s; pre-tear events must survive intact", i, e.TraceID)
		}
	}
}

func TestScanCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	good, _ := json.Marshal(mkEvent(0))
	content := string(good) + "\n" + "{not json}\n" + string(good) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "events-00000001.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, st := scanAll(t, dir)
	if len(got) != 2 || st.Corrupt != 1 || st.Torn != 0 {
		t.Fatalf("got %d events, stats %+v; want 2 events, 1 corrupt", len(got), st)
	}
}

func TestScanErrStop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Record(mkEvent(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err = Scan(dir, func(*Event) error {
		seen++
		return ErrStop
	})
	if err != nil || seen != 1 {
		t.Fatalf("ErrStop: err=%v seen=%d, want nil err after 1 event", err, seen)
	}
}

func TestFollowDeliversAppendedEvents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Record(mkEvent(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan string, 8)
	done := make(chan error, 1)
	go func() {
		done <- Follow(ctx, dir, 5*time.Millisecond, func(e *Event) error {
			got <- e.TraceID
			return nil
		})
	}()
	want := func(id string) {
		t.Helper()
		select {
		case g := <-got:
			if g != id {
				t.Fatalf("followed %s, want %s", g, id)
			}
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", id)
		}
	}
	want(mkEvent(0).TraceID)

	// Append a complete line plus a dangling partial one: Follow must
	// deliver the complete line and hold the partial until it completes.
	files, _ := Files(dir)
	f, err := os.OpenFile(files[len(files)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line1, _ := json.Marshal(mkEvent(1))
	line2, _ := json.Marshal(mkEvent(2))
	if _, err := f.Write(append(line1, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line2[:10]); err != nil {
		t.Fatal(err)
	}
	want(mkEvent(1).TraceID)
	if _, err := f.Write(append(line2[10:], '\n')); err != nil {
		t.Fatal(err)
	}
	want(mkEvent(2).TraceID)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
}

func TestAggregatorSnapshotAndMetrics(t *testing.T) {
	a := NewAggregator()
	for i := 0; i < 10; i++ {
		a.Observe(mkEvent(i))
	}
	slow := mkEvent(99)
	slow.Outcome = OutcomeCanceled
	slow.DurNS = int64(2 * time.Second)
	a.Observe(slow)

	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot groups = %d, want 2 (ok + canceled)", len(snap))
	}
	ok := snap[0]
	if ok.Outcome == OutcomeCanceled {
		ok = snap[1]
	}
	if ok.Variant != "CODL" || ok.Pred != "attr:0" || ok.Count != 10 {
		t.Fatalf("ok group = %+v", ok)
	}
	if ok.P50MS <= 0 || ok.P99MS < ok.P50MS || ok.MaxMS < ok.P99MS {
		t.Fatalf("percentiles not monotone: %+v", ok)
	}
	if len(ok.Steps) != 2 || ok.Steps[0].Kind != "sample" && ok.Steps[0].Kind != "weight" {
		t.Fatalf("step stats = %+v", ok.Steps)
	}
	if len(ok.Exemplars) == 0 {
		t.Fatalf("ok group has no exemplars")
	}

	var b strings.Builder
	if err := a.WriteMetrics(&b); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cod_query_event_seconds histogram",
		`cod_query_event_seconds_bucket{variant="CODL",pred="attr:0",outcome="ok",le=`,
		`# {trace_id="` + mkEvent(0).TraceID + `"}`,
		`cod_query_event_seconds_count{variant="CODL",pred="attr:0",outcome="ok"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}

	// The collector hook renders the family through the shared registry.
	reg := obs.NewRegistry()
	reg.Collector(MetricName, a.WriteMetrics)
	var pb strings.Builder
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(pb.String(), "# {trace_id=") {
		t.Fatalf("registry output lost the exemplar comments:\n%s", pb.String())
	}
}

func TestEventFromTrace(t *testing.T) {
	tr := obs.NewTrace()
	rec := obs.NewRecorder(nil, tr)
	rec.EnsureTraceID(42)
	sp := rec.StartStep("CODL", "sample")
	sp.EndStaged("early_stop", 3, 0.25)
	sp2 := rec.StartStep("CODL", "evaluate")
	sp2.End("ok")

	e := New(tr, "/discover", time.Unix(1700000000, 0), 5*time.Millisecond, 200)
	if e.TraceID != obs.SeedTraceID(42) {
		t.Fatalf("trace ID = %s", e.TraceID)
	}
	if e.Seed != "42" {
		t.Fatalf("seed = %q, want 42", e.Seed)
	}
	if e.Outcome != OutcomeOK || e.Variant != "CODL" || len(e.Steps) != 2 {
		t.Fatalf("event = %+v", e)
	}
	if e.Adaptive == nil || e.Adaptive.Stages != 3 || !e.Adaptive.EarlyStop || e.Adaptive.Gap != 0.25 {
		t.Fatalf("adaptive = %+v", e.Adaptive)
	}
	if OutcomeForStatus(504) != OutcomeCanceled || OutcomeForStatus(400) != OutcomeError {
		t.Fatalf("OutcomeForStatus vocabulary drifted")
	}
}

func TestNodesSum(t *testing.T) {
	a := NodesSum([]int32{1, 2, 3})
	b := NodesSum([]int32{1, 2, 3})
	c := NodesSum([]int32{1, 2, 4})
	if a != b || a == c || len(a) != 16 {
		t.Fatalf("NodesSum: a=%s b=%s c=%s", a, b, c)
	}
	if NodesSum(nil) == "" {
		t.Fatalf("empty list must still fingerprint")
	}
}
