package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"github.com/codsearch/cod/internal/obs/eventlog"
)

// TestQueryEventPipeline walks the full event path: a served query becomes
// one durable wide event, feeds the /debug/querystats aggregator, and shows
// up as an exemplar on the /metrics latency histogram.
func TestQueryEventPipeline(t *testing.T) {
	dir := t.TempDir()
	sink, err := eventlog.Open(eventlog.Options{Dir: dir, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, g := testHandler(t, Config{Events: sink})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	q, attr := attributedQuery(t, g)

	// One attributed expression query and one CODU expression query.
	expr := attr + " and node=" + q
	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+url.QueryEscape(expr), http.StatusOK, &disc)
	getJSON(t, srv.URL+exprPath("node="+q+" and variant=codu"), http.StatusOK, &disc)

	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var events []*eventlog.Event
	st, err := eventlog.Scan(dir, func(e *eventlog.Event) error {
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn != 0 || st.Corrupt != 0 || len(events) != 2 {
		t.Fatalf("scan: %d events (%d torn, %d corrupt), want 2 clean", len(events), st.Torn, st.Corrupt)
	}

	ev := events[0]
	if ev.TraceID == "" || ev.Seed == "" {
		t.Errorf("event lost its identity: trace=%q seed=%q", ev.TraceID, ev.Seed)
	}
	if ev.Op != "/discover" || ev.Status != 200 || ev.Outcome != eventlog.OutcomeOK {
		t.Errorf("event envelope = %s/%d/%s, want /discover/200/ok", ev.Op, ev.Status, ev.Outcome)
	}
	if ev.Variant != "CODL" && ev.Variant != "CODL-" {
		t.Errorf("expression query variant = %q, want CODL or CODL-", ev.Variant)
	}
	if !strings.Contains(ev.Expr, "node="+q) {
		t.Errorf("expression query event expr = %q, want the normalized expression", ev.Expr)
	}
	if ev.Pred != "attr:"+attr {
		t.Errorf("pred key = %q, want attr:%s", ev.Pred, attr)
	}
	if node, _ := strconv.Atoi(q); ev.Node != int64(node) {
		t.Errorf("event node = %d, want %s", ev.Node, q)
	}
	if len(ev.Steps) == 0 {
		t.Error("event carries no plan steps")
	}
	if ev.Result == nil || len(ev.Result.NodesFNV) != 16 {
		t.Errorf("event result = %+v, want a 16-hex community fingerprint", ev.Result)
	}
	if events[1].Variant != "CODU" || events[1].Pred != "none" {
		t.Errorf("codu event = variant %q pred %q, want CODU/none", events[1].Variant, events[1].Pred)
	}

	// The streaming aggregator digests the same events.
	var stats struct {
		Groups []eventlog.GroupStats `json:"groups"`
	}
	getJSON(t, srv.URL+"/debug/querystats", http.StatusOK, &stats)
	if len(stats.Groups) != 2 {
		t.Fatalf("querystats groups = %d, want 2 (CODL + CODU)", len(stats.Groups))
	}
	for _, grp := range stats.Groups {
		if grp.Count != 1 || len(grp.Exemplars) == 0 {
			t.Errorf("group %+v missing counts or exemplars", grp)
		}
	}

	// /metrics renders the histogram with OpenMetrics-style exemplar
	// comments plus the sink's own gauges.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"# TYPE cod_query_event_seconds histogram",
		`cod_query_event_seconds_bucket{variant="` + ev.Variant + `"`,
		`# {trace_id="` + ev.TraceID + `"}`,
		"cod_query_events_written 2",
		"cod_query_events_dropped 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestQueryEventSamplingInHandler proves -query-log-sample drops OK events
// deterministically while the aggregator still sees everything.
func TestQueryEventSamplingInHandler(t *testing.T) {
	dir := t.TempDir()
	sink, err := eventlog.Open(eventlog.Options{Dir: dir, SampleRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	h, g := testHandler(t, Config{Events: sink})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	q, attr := attributedQuery(t, g)

	var disc discoverResponse
	getJSON(t, srv.URL+"/discover?q="+q+"&attr="+attr, http.StatusOK, &disc)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := eventlog.Scan(dir, func(e *eventlog.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 {
		t.Errorf("rate-0 sink persisted %d events, want 0", st.Events)
	}
	if s := sink.Stats(); s.SampledOut != 1 || s.Written != 0 {
		t.Errorf("sink stats = %+v, want 1 sampled out, 0 written", s)
	}

	var stats struct {
		Groups []eventlog.GroupStats `json:"groups"`
	}
	getJSON(t, srv.URL+"/debug/querystats", http.StatusOK, &stats)
	if len(stats.Groups) != 1 || stats.Groups[0].Count != 1 {
		t.Errorf("aggregator should observe sampled-out events too: %+v", stats.Groups)
	}
}
