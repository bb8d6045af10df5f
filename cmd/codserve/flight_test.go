package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// attributedQuery returns the first attributed node and its first attribute
// as URL query values.
func attributedQuery(t *testing.T, g *cod.Graph) (q, attr string) {
	t.Helper()
	for v := cod.NodeID(0); int(v) < g.N(); v++ {
		if as := g.Attrs(v); len(as) > 0 {
			return strconv.Itoa(int(v)), strconv.Itoa(int(as[0]))
		}
	}
	t.Fatal("no attributed node in test graph")
	return "", ""
}

type debugQueriesResponse struct {
	SlowAfter string            `json:"slow_after"`
	Recent    []*eventlog.Event `json:"recent"`
	Slow      []*eventlog.Event `json:"slow"`
}

func TestDebugQueriesRecordsTrace(t *testing.T) {
	srv, g := testServer(t)
	q, attr := attributedQuery(t, g)

	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Recent) == 0 {
		t.Fatal("no recent queries recorded after a served /discover")
	}
	rec := body.Recent[0]
	if rec.Op != "/discover" {
		t.Errorf("most recent record op = %q, want /discover", rec.Op)
	}
	if len(rec.TraceID) != 32 {
		t.Errorf("trace ID %q is not 32 hex chars", rec.TraceID)
	}
	if rec.Status != http.StatusOK {
		t.Errorf("record status = %d, want 200", rec.Status)
	}
	if len(rec.Steps) == 0 {
		t.Fatal("record carries no plan-step spans")
	}
	// Every executed plan step must carry its labels and outcome.
	for i, st := range rec.Steps {
		if st.Variant == "" || st.Kind == "" || st.Outcome == "" {
			t.Errorf("step %d = %+v missing variant/kind/outcome", i, st)
		}
	}
}

func TestDebugQueriesHonorsTraceparent(t *testing.T) {
	srv, g := testServer(t)
	q, attr := attributedQuery(t, g)
	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/discover?q="+q+"&attr="+attr, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+wantID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("discover status %d", resp.StatusCode)
	}

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Recent) == 0 {
		t.Fatal("no recent queries recorded")
	}
	if got := body.Recent[0].TraceID; got != wantID {
		t.Errorf("trace ID = %q, want the propagated traceparent %q", got, wantID)
	}
}

func TestDebugQueriesSlowRetention(t *testing.T) {
	// A 1ns threshold classifies every query slow: the slow ring must retain
	// them alongside the recent ring.
	h, g := testHandler(t, Config{SlowQuery: time.Nanosecond})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	q, attr := attributedQuery(t, g)

	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)

	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if body.SlowAfter != time.Nanosecond.String() {
		t.Errorf("slow_after = %q, want 1ns", body.SlowAfter)
	}
	if len(body.Slow) == 0 {
		t.Fatal("1ns-threshold query not retained in the slow ring")
	}
	if !body.Slow[0].Slow {
		t.Error("slow-ring record not flagged slow")
	}
	if body.Slow[0].TraceID == "" {
		t.Error("slow-ring record lost its trace ID")
	}
}

func TestDebugQueriesTextFormat(t *testing.T) {
	srv, g := testServer(t)
	q, attr := attributedQuery(t, g)
	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)

	resp, err := http.Get(srv.URL + "/debug/queries?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{"slow threshold:", "/discover", "trace=", "epoch=", "step "} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestDebugQueriesMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/debug/queries", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/queries status %d, want 405", resp.StatusCode)
	}
}

func TestDebugQueriesEmptyIsValidJSON(t *testing.T) {
	srv, _ := testServer(t)
	var body debugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", http.StatusOK, &body)
	if len(body.Recent) != 0 || len(body.Slow) != 0 {
		t.Errorf("fresh handler reports %d recent / %d slow, want 0/0",
			len(body.Recent), len(body.Slow))
	}
}

// TestQueryEventSharedAcrossReaders serves /discover while /debug/queries
// (JSON and text) and /debug/querystats read the rings and the aggregator,
// with the -query-log sink encoding the same events on its writer
// goroutine. Every event has three readers on other goroutines, so under
// -race this checks that nothing writes an event after it is handed off.
func TestQueryEventSharedAcrossReaders(t *testing.T) {
	prevLogger := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prevLogger) })
	dir := t.TempDir()
	sink, err := eventlog.Open(eventlog.Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A 1ns threshold marks every query slow, so each event sits in both
	// rings as well as in the sink's queue.
	h, g := testHandler(t, Config{Events: sink, SlowQuery: time.Nanosecond})
	q, attr := attributedQuery(t, g)

	const workers, perWorker = 2, 20
	var queries, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < perWorker; i++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/discover?q="+q+"&attr="+attr, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("discover status %d: %s", rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	for _, path := range []string{"/debug/queries", "/debug/queries?format=text", "/debug/querystats"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("GET %s status %d", path, rr.Code)
					return
				}
			}
		}(path)
	}
	queries.Wait()
	close(done)
	readers.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var body debugQueriesResponse
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/queries", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Recent) != workers*perWorker || len(body.Slow) != flightSlowN {
		t.Errorf("rings hold %d recent / %d slow, want %d / %d",
			len(body.Recent), len(body.Slow), workers*perWorker, flightSlowN)
	}
	logged := 0
	if _, err := eventlog.Scan(dir, func(e *eventlog.Event) error {
		logged++
		if !e.Slow || len(e.Steps) == 0 {
			t.Errorf("logged event %s: slow=%t with %d steps, want slow with steps", e.TraceID, e.Slow, len(e.Steps))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if logged != workers*perWorker {
		t.Errorf("event log holds %d events, want %d", logged, workers*perWorker)
	}
}
