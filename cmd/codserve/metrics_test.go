package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/codsearch/cod"
)

// scrapeMetrics fetches /metrics and parses the unlabeled sample lines into
// name -> value (bucket lines with labels are skipped; _sum/_count appear as
// plain names).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	srv, g := testServer(t)
	var q cod.NodeID
	for v := cod.NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	qs := strconv.Itoa(int(q))

	before := scrapeMetrics(t, srv.URL)
	if before["cod_ready"] != 1 {
		t.Errorf("cod_ready = %v, want 1", before["cod_ready"])
	}
	if before["cod_index_bytes"] <= 0 {
		t.Errorf("cod_index_bytes = %v, want > 0", before["cod_index_bytes"])
	}

	getJSON(t, srv.URL+"/discover?q="+qs, http.StatusOK, nil)
	after1 := scrapeMetrics(t, srv.URL)
	if got := after1["cod_queries_total"] - before["cod_queries_total"]; got != 1 {
		t.Errorf("one query moved cod_queries_total by %v, want 1", got)
	}
	if after1["cod_http_requests_total"] <= before["cod_http_requests_total"] {
		t.Error("cod_http_requests_total did not increase")
	}
	if after1["cod_query_seconds_count"] != before["cod_query_seconds_count"]+1 {
		t.Errorf("cod_query_seconds_count = %v after one query (was %v)",
			after1["cod_query_seconds_count"], before["cod_query_seconds_count"])
	}

	// Monotonicity across a second query.
	getJSON(t, srv.URL+exprPath("0 and node="+qs+" and variant=codr"), http.StatusOK, nil)
	getJSON(t, srv.URL+exprPath("node="+qs+" and variant=codu"), http.StatusOK, nil)
	after2 := scrapeMetrics(t, srv.URL)
	if got := after2["cod_queries_total"] - after1["cod_queries_total"]; got != 2 {
		t.Errorf("two more queries moved cod_queries_total by %v, want 2", got)
	}
	if after2["cod_http_responses_2xx_total"] <= after1["cod_http_responses_2xx_total"] {
		t.Error("cod_http_responses_2xx_total did not increase")
	}

	// Every stage histogram is exposed, and after codl+codr+codu queries at
	// least five distinct stages have recorded real spans.
	exposed, active := 0, 0
	for name, v := range after2 {
		if strings.HasPrefix(name, "cod_stage_") && strings.HasSuffix(name, "_seconds_count") {
			exposed++
			if v > 0 {
				active++
			}
		}
	}
	if exposed < 5 {
		t.Errorf("only %d stage histograms exposed, want >= 5", exposed)
	}
	if active < 5 {
		t.Errorf("only %d stage histograms recorded spans, want >= 5 (metrics: %v)", active, after2)
	}

	// The catch-all contract survives the new route: unknown paths stay 404,
	// wrong method on /metrics stays 405.
	getJSON(t, srv.URL+"/nope", http.StatusNotFound, nil)
	resp, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsCountsErrorsAndSheds(t *testing.T) {
	h, _ := testHandler(t, Config{MaxInFlight: 1})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	before := scrapeMetrics(t, srv.URL)
	getJSON(t, srv.URL+"/discover?q=999999", http.StatusBadRequest, nil)
	h.inflight <- struct{}{}
	getJSON(t, srv.URL+"/discover?q=0", http.StatusTooManyRequests, nil)
	<-h.inflight
	after := scrapeMetrics(t, srv.URL)

	if got := after["cod_query_errors_total"] - before["cod_query_errors_total"]; got != 1 {
		t.Errorf("cod_query_errors_total moved by %v, want 1", got)
	}
	if got := after["cod_http_shed_total"] - before["cod_http_shed_total"]; got != 1 {
		t.Errorf("cod_http_shed_total moved by %v, want 1", got)
	}
	if after["cod_http_responses_4xx_total"] <= before["cod_http_responses_4xx_total"] {
		t.Error("cod_http_responses_4xx_total did not increase")
	}
}
