package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/codsearch/cod"
)

func testHandler(t *testing.T, cfg Config) (*Handler, *cod.Graph) {
	t.Helper()
	g, err := cod.GenerateDataset("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cod.NewSearcher(g, cod.Options{K: 5, Theta: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return NewHandler(s, cfg), g
}

func testServer(t *testing.T) (*httptest.Server, *cod.Graph) {
	t.Helper()
	h, g := testHandler(t, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, g
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct == "" {
		t.Errorf("GET %s: missing Content-Type", url)
	}
	// Every non-2xx body is a JSON error object per the serving contract
	// (typed errors add structured fields next to "error").
	if wantStatus >= 400 {
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: non-JSON error body: %v", url, err)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("GET %s: error body without message", url)
		}
		return
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	srv, g := testServer(t)
	var st statsResponse
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Nodes != g.N() || st.Edges != g.M() || st.Attrs != g.NumAttrs() {
		t.Errorf("stats %+v mismatch graph %d/%d/%d", st, g.N(), g.M(), g.NumAttrs())
	}
	if st.IndexMB <= 0 {
		t.Error("index size missing")
	}
}

func TestDiscoverEndpoint(t *testing.T) {
	srv, g := testServer(t)
	var q cod.NodeID = -1
	for v := cod.NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	attr := g.Attrs(q)[0]
	var dr discoverResponse
	url := srv.URL + "/discover?q=" + strconv.Itoa(int(q)) + "&attr=" + strconv.Itoa(int(attr))
	getJSON(t, url, http.StatusOK, &dr)
	if dr.Method != "codl" || dr.Query != int(q) {
		t.Errorf("response %+v", dr)
	}
	if dr.Found {
		if dr.Size == 0 || dr.Density < 0 || dr.Density > 1 {
			t.Errorf("bad measures: %+v", dr)
		}
		seen := false
		for _, v := range dr.Nodes {
			if v == q {
				seen = true
			}
		}
		if !seen {
			t.Error("community missing query node")
		}
	}
	// other methods
	for _, m := range []string{"codu", "codr"} {
		getJSON(t, url+"&method="+m, http.StatusOK, &dr)
		if dr.Method != m {
			t.Errorf("method echo = %q", dr.Method)
		}
	}
}

// TestDiscoverExpression locks /discover's expression mode: a URL-escaped
// query expression in ?q= answers with the canonical form, the influence
// rank, and — repeated — a byte-identical body (the serving determinism
// contract extends to compound queries).
func TestDiscoverExpression(t *testing.T) {
	srv, _ := testServer(t)
	expr := url.QueryEscape("(ML or DB) and size>=1 and node=5")
	var dr discoverResponse
	getJSON(t, srv.URL+"/discover?q="+expr, http.StatusOK, &dr)
	if dr.Query != 5 || dr.Method != "codl" {
		t.Errorf("response %+v", dr)
	}
	if dr.Expr != "(0|1) and size>=1 and node=5" {
		t.Errorf("expr echo = %q, want canonical form", dr.Expr)
	}
	if dr.AttrDensity != nil {
		t.Error("compound predicate answered with attribute_density")
	}
	if dr.Found && dr.Rank < 1 {
		t.Errorf("found community with rank %d", dr.Rank)
	}
	// Same expression, different spelling, same position in the query
	// sequence (each server's first query): byte-identical bodies. Two
	// independent servers isolate the per-searcher deterministic seed
	// sequence — consecutive queries on one server draw different seeds by
	// design.
	srvA, _ := testServer(t)
	srvB, _ := testServer(t)
	body1 := getBody(t, srvA.URL+"/discover?q="+expr)
	body2 := getBody(t, srvB.URL+"/discover?q="+url.QueryEscape("size>=1 and (db | ml) and node=5"))
	if body1 != body2 {
		t.Errorf("equal queries answered differently:\n%s\n%s", body1, body2)
	}

	// Name-based single-attribute expressions lower to the legacy attr.
	getJSON(t, srv.URL+"/discover?q="+url.QueryEscape("ML and node=5"), http.StatusOK, &dr)
	if dr.Expr != "0 and node=5" {
		t.Errorf("lowered expr = %q", dr.Expr)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDiscoverExpressionErrors locks the typed 400 contract: parse errors
// answer with the byte offset and caret rendering, range errors with the
// field, bounds, and known attribute names.
func TestDiscoverExpressionErrors(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/discover?q=" + url.QueryEscape("ML AND and node=0"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error: status %d, want 400", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if msg, _ := body["error"].(string); msg == "" || body["caret"] == nil || body["pos"] == nil {
		t.Errorf("parse-error body missing error/pos/caret: %v", body)
	}

	// Expression without node= is rejected with a hint.
	getJSON(t, srv.URL+"/discover?q="+url.QueryEscape("ML and size>=2"), http.StatusBadRequest, nil)

	// Out-of-range attribute: structured RangeError body with the attribute
	// registry, not a bare 500.
	resp2, err := http.Get(srv.URL + "/discover?q=5&attr=99")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("range error: status %d, want 400", resp2.StatusCode)
	}
	var rbody map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&rbody); err != nil {
		t.Fatal(err)
	}
	if rbody["what"] != "attribute" || rbody["value"] != float64(99) {
		t.Errorf("range-error body = %v", rbody)
	}
	if known, ok := rbody["known"].([]any); !ok || len(known) == 0 || known[0] != "ML" {
		t.Errorf("range-error body missing known attributes: %v", rbody["known"])
	}
}

func TestDiscoverErrors(t *testing.T) {
	srv, _ := testServer(t)
	getJSON(t, srv.URL+"/discover", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/discover?q=abc", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/discover?q=999999", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/discover?q=0&attr=zz", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/discover?q=0&method=warp", http.StatusBadRequest, nil)
}

func TestInfluenceEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var ir influenceResponse
	getJSON(t, srv.URL+"/influence?q=0", http.StatusOK, &ir)
	if ir.Influence < 1 {
		t.Errorf("influence = %f", ir.Influence)
	}
	getJSON(t, srv.URL+"/influence?q=-3", http.StatusBadRequest, nil)
}

// Concurrent requests must serialize safely on the handler's mutex.
func TestConcurrentRequests(t *testing.T) {
	srv, _ := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/discover?q=" + strconv.Itoa(i))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
}

func TestBatchEndpoint(t *testing.T) {
	srv, g := testServer(t)
	var q cod.NodeID
	for v := cod.NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	body := `{"queries":[{"q":` + strconv.Itoa(int(q)) + `,"attr":` + strconv.Itoa(int(g.Attrs(q)[0])) + `},{"q":-4,"attr":0}],"workers":2}`
	resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var items []batchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Error != "" {
		t.Errorf("valid query errored: %s", items[0].Error)
	}
	if items[1].Error == "" {
		t.Error("invalid query did not error")
	}
	// malformed and oversized bodies rejected
	for _, bad := range []string{"{", `{"queries":[]}`} {
		resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", bad, resp.StatusCode)
		}
	}
}

// TestBatchExpr locks the batch route's expression items: an "expr" field
// replaces q/attr (the node= knob supplies the node), the item echoes the
// expression, and a malformed expression errors per item without failing
// the batch.
func TestBatchExpr(t *testing.T) {
	srv, _ := testServer(t)
	body := `{"queries":[{"expr":"(ML or DB) and node=5"},{"q":5,"expr":"ML"},{"expr":"ML AND"}],"workers":2}`
	resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var items []batchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Error != "" || items[0].Expr != "(ML or DB) and node=5" {
		t.Errorf("expr item 0: %+v", items[0])
	}
	if items[1].Error != "" {
		t.Errorf("expr item with q node errored: %s", items[1].Error)
	}
	if items[2].Error == "" || !strings.Contains(items[2].Error, "parse") && !strings.Contains(items[2].Error, "expect") {
		t.Errorf("malformed expr item did not report a parse error: %+v", items[2])
	}
	if items[0].Found && items[0].Rank < 1 {
		t.Errorf("found item with rank %d", items[0].Rank)
	}
}

func TestBatchValidationMatchesDiscoverShape(t *testing.T) {
	// The /batch route must reject an out-of-range node with the same error
	// text /discover produces for it: one validation shape across routes.
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[{"q":999999,"attr":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []batchItem
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	discResp, err := http.Get(srv.URL + "/discover?q=999999")
	if err != nil {
		t.Fatal(err)
	}
	defer discResp.Body.Close()
	var discBody map[string]any
	if err := json.NewDecoder(discResp.Body).Decode(&discBody); err != nil {
		t.Fatal(err)
	}
	if items[0].Error == "" || items[0].Error != discBody["error"] {
		t.Errorf("validation shapes differ:\n batch:    %q\n discover: %v", items[0].Error, discBody["error"])
	}
}

func TestNotReadyUntilSearcherAttached(t *testing.T) {
	g, err := cod.GenerateDataset("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(nil, Config{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Live but not ready: probes split.
	getJSON(t, srv.URL+"/healthz", http.StatusOK, nil)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 without Retry-After")
	}
	getJSON(t, srv.URL+"/discover?q=0", http.StatusServiceUnavailable, nil)
	getJSON(t, srv.URL+"/stats", http.StatusServiceUnavailable, nil)

	s, err := cod.NewSearcher(g, cod.Options{K: 5, Theta: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h.SetSearcher(s)
	getJSON(t, srv.URL+"/readyz", http.StatusOK, nil)
	getJSON(t, srv.URL+"/discover?q=0", http.StatusOK, nil)
}

func TestQueryTimeoutReturns504(t *testing.T) {
	h, g := testHandler(t, Config{QueryTimeout: time.Nanosecond})
	srv := httptest.NewServer(h)
	defer srv.Close()
	var q cod.NodeID
	for v := cod.NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	start := time.Now()
	url := srv.URL + "/discover?q=" + strconv.Itoa(int(q)) + "&method=codr"
	getJSON(t, url, http.StatusGatewayTimeout, nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("504 took %v", elapsed)
	}
	// Batch requests share the deadline and must not 200 with missing
	// answers.
	resp, err := http.Post(srv.URL+"/batch", "application/json",
		strings.NewReader(`{"queries":[{"q":`+strconv.Itoa(int(q))+`,"attr":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out batch: status %d, want 504", resp.StatusCode)
	}
}

func TestLoadShedReturns429(t *testing.T) {
	h, _ := testHandler(t, Config{MaxInFlight: 1})
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Occupy the only admission slot, then probe: deterministic shedding
	// without racing a slow request.
	h.inflight <- struct{}{}
	resp, err := http.Get(srv.URL + "/discover?q=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("non-JSON 429 body: %v", err)
	}
	<-h.inflight
	// Slot freed: queries admitted again, and the slot is returned after
	// each request (a second probe still succeeds).
	getJSON(t, srv.URL+"/influence?q=0", http.StatusOK, nil)
	getJSON(t, srv.URL+"/influence?q=0", http.StatusOK, nil)
}

func TestPanicRecoveryReturns500(t *testing.T) {
	h, _ := testHandler(t, Config{})
	// A route that panics exercises the recovery middleware without
	// depending on any real handler misbehaving.
	h.mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	getJSON(t, srv.URL+"/panic", http.StatusInternalServerError, nil)
	// The server survives the panic.
	getJSON(t, srv.URL+"/healthz", http.StatusOK, nil)
}

func TestUnknownRouteAndMethodAreJSON(t *testing.T) {
	srv, _ := testServer(t)
	getJSON(t, srv.URL+"/nope", http.StatusNotFound, nil)
	// Wrong method on a known path: 405 with Allow.
	resp, err := http.Post(srv.URL+"/discover", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /discover: status %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") == "" {
		t.Error("405 without Allow header")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("non-JSON 405 body: %v", err)
	}
}
