package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
)

func swapPolicy() blobstore.RetryPolicy {
	return blobstore.RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Jitter:      func(int, time.Duration) time.Duration { return 0 },
	}
}

// publishEpochSeed builds a searcher over the tiny dataset with the given
// seed and publishes it as the given epoch.
func publishEpochSeed(t *testing.T, store blobstore.Store, epoch, seed uint64) {
	t.Helper()
	g, err := cod.GenerateDataset("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cod.NewSearcher(g, cod.Options{K: 4, Theta: 4, Seed: seed, SampleCache: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cod.PublishSnapshot(context.Background(), store, "tiny", epoch, s, swapPolicy()); err != nil {
		t.Fatalf("publish epoch %d: %v", epoch, err)
	}
}

func storeSwapper(t *testing.T, store blobstore.Store) (*Swapper, *Handler) {
	t.Helper()
	h := NewHandler(nil, Config{})
	sw := &Swapper{Store: store, Dataset: "tiny", Base: cod.Options{SampleCache: 8}, Policy: swapPolicy(), H: h}
	sw.Policy.OnRetry = func(string, int, error) { h.fetchRetries.Inc() }
	return sw, h
}

func readyzState(t *testing.T, h *Handler) readyzResponse {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var resp readyzResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	return resp
}

func TestSwapperConvergesAndReportsReadyz(t *testing.T) {
	store, err := blobstore.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, h := storeSwapper(t, store)
	ctx := context.Background()

	// Nothing published: warming, 503, state field says so.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while warming: %d", rr.Code)
	}
	if st := readyzState(t, h); st.State != "warming" {
		t.Fatalf("state %q, want warming", st.State)
	}
	sw.tick(ctx) // no epoch in the store: stays warming, no failure counted
	if h.Epoch() != 0 || h.swapFetch.Value() != 0 {
		t.Fatalf("tick on empty store: epoch %d, fetch failures %d", h.Epoch(), h.swapFetch.Value())
	}

	publishEpochSeed(t, store, 1, 100)
	sw.tick(ctx)
	if h.Epoch() != 1 {
		t.Fatalf("epoch %d after first converge, want 1", h.Epoch())
	}
	st := readyzState(t, h)
	if st.State != "serving" || st.Epoch != 1 || st.ParamsHash == "" || st.StaleForMS != 0 {
		t.Fatalf("readyz after converge: %+v", st)
	}
	if got := h.swapOK.Value(); got != 1 {
		t.Fatalf("swap ok counter %d", got)
	}

	// Same epoch again: no-op, no extra swap counted.
	sw.tick(ctx)
	if got := h.swapOK.Value(); got != 1 {
		t.Fatalf("noop tick bumped swaps to %d", got)
	}

	// A newer epoch swaps in; the X-Cod-Epoch header follows.
	publishEpochSeed(t, store, 2, 200)
	sw.tick(ctx)
	if h.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", h.Epoch())
	}
	qr := httptest.NewRecorder()
	h.ServeHTTP(qr, httptest.NewRequest(http.MethodGet, exprPath("node=0 and variant=codu"), nil))
	if qr.Code != http.StatusOK || qr.Header().Get("X-Cod-Epoch") != "2" {
		t.Fatalf("query after swap: status %d epoch header %q", qr.Code, qr.Header().Get("X-Cod-Epoch"))
	}
}

func TestSwapperRejectsNonMonotoneEpoch(t *testing.T) {
	dir := t.TempDir()
	store, err := blobstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw, h := storeSwapper(t, store)
	ctx := context.Background()
	publishEpochSeed(t, store, 5, 100)
	sw.tick(ctx)
	if h.Epoch() != 5 {
		t.Fatalf("epoch %d", h.Epoch())
	}
	// CURRENT regresses to an older epoch (publish epoch 3 after 5: Publish
	// rewrites CURRENT unconditionally — the *replica* is the monotonicity
	// gate).
	publishEpochSeed(t, store, 3, 300)
	sw.tick(ctx)
	if h.Epoch() != 5 {
		t.Fatalf("swapped backward to %d", h.Epoch())
	}
	if got := h.swapRejected.Value(); got != 1 {
		t.Fatalf("rejected counter %d", got)
	}
	// The rejection is visible in the flight recorder.
	found := false
	for _, rec := range h.flight.Recent() {
		if rec.Op == "index_swap" && rec.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("non-monotone rejection not recorded in flight recorder")
	}
}

func TestSwapperStaleOnFailureThenRecovers(t *testing.T) {
	dir := t.TempDir()
	clean, err := blobstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	fail := errors.New("transport down")
	deny := false
	faulty, err := blobstore.NewFSWithHooks(dir, blobstore.Hooks{
		BeforeOp: func(op, key string) error {
			if deny {
				return fail
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, h := storeSwapper(t, faulty)
	ctx := context.Background()
	publishEpochSeed(t, clean, 1, 100)
	sw.tick(ctx)
	if h.Epoch() != 1 {
		t.Fatalf("epoch %d", h.Epoch())
	}

	// Store goes dark with a newer epoch published: replica keeps serving
	// epoch 1 and reports stale with a growing lag and the last error.
	publishEpochSeed(t, clean, 2, 200)
	deny = true
	sw.tick(ctx)
	if h.Epoch() != 1 {
		t.Fatalf("swapped during outage to %d", h.Epoch())
	}
	st := readyzState(t, h)
	if st.State != "stale" || st.StaleForMS < 0 || st.LastError == "" {
		t.Fatalf("readyz during outage: %+v", st)
	}
	if !strings.Contains(st.LastError, "transport down") {
		t.Fatalf("last_error %q", st.LastError)
	}
	// Queries still answer from the serving epoch.
	qr := httptest.NewRecorder()
	h.ServeHTTP(qr, httptest.NewRequest(http.MethodGet, exprPath("node=0 and variant=codu"), nil))
	if qr.Code != http.StatusOK || qr.Header().Get("X-Cod-Epoch") != "1" {
		t.Fatalf("query during outage: %d epoch %q", qr.Code, qr.Header().Get("X-Cod-Epoch"))
	}

	// Store heals: next tick converges and clears stale.
	deny = false
	sw.tick(ctx)
	if h.Epoch() != 2 {
		t.Fatalf("epoch %d after heal", h.Epoch())
	}
	if st := readyzState(t, h); st.State != "serving" || st.StaleForMS != 0 || st.LastError != "" {
		t.Fatalf("readyz after heal: %+v", st)
	}
}

func TestSwapperNeverInstallsCorruptEpoch(t *testing.T) {
	dir := t.TempDir()
	clean, err := blobstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	publishEpochSeed(t, clean, 1, 100)
	// Corrupt the index artifact in place (flip one byte inside a section).
	cur, err := blobstore.FetchCurrent(context.Background(), clean, "tiny", swapPolicy())
	if err != nil {
		t.Fatal(err)
	}
	key := blobstore.ArtifactKey("tiny", cur.Epoch, cur.ParamsHash, cod.ArtifactIndex)
	rc, err := clean.Open(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 0, 1<<16)
	buf := make([]byte, 4096)
	for {
		n, err := rc.Read(buf)
		b = append(b, buf[:n]...)
		if err != nil {
			break
		}
	}
	rc.Close()
	b[len(b)/2] ^= 1
	if err := clean.Put(context.Background(), key, strings.NewReader(string(b))); err != nil {
		t.Fatal(err)
	}

	sw, h := storeSwapper(t, clean)
	sw.tick(context.Background())
	if h.Epoch() != 0 {
		t.Fatalf("installed a corrupt epoch: %d", h.Epoch())
	}
	if got := h.swapVerify.Value(); got == 0 {
		t.Fatal("verify-failure counter untouched")
	}
	if st := readyzState(t, h); st.State != "warming" {
		// Never served anything, so still warming (stale requires a served
		// epoch to be stale *relative to*... it reports warming because no
		// state is installed; staleness shows once something serves).
		t.Fatalf("state %q", st.State)
	}
}

func TestStraddlingQueryGetsSwapStep(t *testing.T) {
	store, err := blobstore.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, h := storeSwapper(t, store)
	ctx := context.Background()
	publishEpochSeed(t, store, 1, 100)
	sw.tick(ctx)

	// Admit a query on epoch 1, install epoch 2 mid-flight, finish the
	// query: its flight record must carry the index_swap straddle step.
	blocked := make(chan struct{})
	release := make(chan struct{})
	inner := func(w http.ResponseWriter, r *http.Request, st *servingState) {
		close(blocked)
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"ok": "1"})
	}
	wrapped := h.guard(h.instrument(inner))
	done := make(chan struct{})
	go func() {
		defer close(done)
		rr := httptest.NewRecorder()
		wrapped(rr, httptest.NewRequest(http.MethodGet, "/discover?q=0", nil))
	}()
	<-blocked
	publishEpochSeed(t, store, 2, 200)
	sw.tick(ctx)
	if h.Epoch() != 2 {
		t.Fatalf("epoch %d", h.Epoch())
	}
	close(release)
	<-done

	found := false
	for _, rec := range h.flight.Recent() {
		for _, step := range rec.Steps {
			if step.Variant == "index_swap" && step.Kind == "1->2" && step.Outcome == "straddled" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("straddling query carries no index_swap step")
	}
}
