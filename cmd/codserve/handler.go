package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

// Config tunes the Handler's serving guards.
type Config struct {
	// QueryTimeout bounds each query request's context; 0 means no
	// per-request deadline. Expired queries return 504 with the partial
	// progress recorded in the error body.
	QueryTimeout time.Duration
	// MaxInFlight caps concurrently admitted query requests; excess load is
	// shed with 429 + Retry-After instead of queueing without bound.
	// <= 0 selects the default of 64.
	MaxInFlight int
	// Metrics is the registry /metrics renders; nil creates a fresh one
	// (exposed again via Handler.Metrics so main can mount it on the debug
	// listener too).
	Metrics *obs.Registry
	// SlowQuery is the latency at or above which a query's event is marked
	// slow: the flight recorder's slow ring retains it (errored and 5xx
	// queries are retained regardless) and the event log keeps it whatever
	// the sample rate; <= 0 selects eventlog.DefaultSlowAfter.
	SlowQuery time.Duration
	// Events is the durable query-event sink (-query-log); nil disables
	// persistence. The in-process aggregator behind /debug/querystats and
	// the cod_query_event_seconds series runs either way.
	Events *eventlog.Sink
}

const defaultMaxInFlight = 64

// Flight-recorder ring sizes: enough recent traffic to see a pattern,
// enough slow retention that a burst of fast queries can't flush the
// interesting ones. Memory stays bounded: both rings hold immutable events
// detached from query scratch.
const (
	flightRecentN = 128
	flightSlowN   = 32
)

// servingState is everything one epoch serves with: the Searcher, the graph
// it queries (snapshots carry their own graph, so it swaps with the index),
// and the epoch identity /readyz and the X-Cod-Epoch header report. States
// are immutable once installed; a hot swap is one atomic pointer flip, and
// every request resolves all of its per-epoch state from a single Load — a
// query admitted on epoch N computes densities against epoch N's graph even
// while epoch N+1 swaps in underneath it.
type servingState struct {
	s          *cod.Searcher
	g          *cod.Graph
	epoch      uint64
	epochStr   string
	paramsHash string
	since      time.Time
}

// Handler serves COD queries over one Searcher. The Searcher executes
// queries through the engine's pooled scratch and internally locked caches,
// so admitted requests run concurrently up to the in-flight cap — admission
// control sheds excess load instead of queueing unboundedly. The serving
// state may be attached after the Handler starts serving (SetSearcher or a
// blob-store swapper): until then the process is live (/healthz) but not
// ready (/readyz and all query routes answer 503), which lets the offline
// phase or the first fetch run while probes see progress.
type Handler struct {
	state    atomic.Pointer[servingState]
	mux      *http.ServeMux
	inflight chan struct{}
	timeout  time.Duration

	// Degraded-mode state: staleSince is the UnixNano time the replica
	// first failed to converge on the store's current epoch (0 = in sync),
	// staleErr the latest failure. /readyz stays 200 while stale — the
	// replica still answers queries from the epoch it has — but reports the
	// lag so operators and orchestration can see divergence.
	staleSince atomic.Int64
	staleErr   atomic.Pointer[string]

	// Observability state: the registry backs /metrics, qm is the
	// pre-resolved pipeline bundle shared by every query, and the HTTP-level
	// counters follow the label-free naming convention of DESIGN.md §11.
	reg          *obs.Registry
	qm           *obs.QueryMetrics
	httpRequests *obs.Counter
	http2xx      *obs.Counter
	http4xx      *obs.Counter
	http5xx      *obs.Counter
	httpShed     *obs.Counter
	httpInFlight *obs.Gauge
	querySecs    *obs.Histogram
	ready        *obs.Gauge
	indexBytes   *obs.Gauge

	// Index-distribution metrics: swap outcomes follow the label-free
	// naming convention (one counter per outcome), retries count every
	// blobstore attempt that had to be repeated.
	swapOK       *obs.Counter
	swapFetch    *obs.Counter
	swapVerify   *obs.Counter
	swapLoad     *obs.Counter
	swapRejected *obs.Counter
	fetchRetries *obs.Counter

	// Every query event goes to three readers: flight retains recent and
	// slow events for /debug/queries, agg digests them for
	// /debug/querystats and the exemplar-carrying cod_query_event_seconds
	// family, and events persists them to the durable log (nil when
	// -query-log is off). traceSeq feeds fallback trace IDs for requests
	// that never reached a seed draw (e.g. rejected by validation).
	flight   *eventlog.FlightRecorder
	agg      *eventlog.Aggregator
	events   *eventlog.Sink
	traceSeq atomic.Uint64
}

// routeMethods drives the JSON 404/405 catch-all in ServeHTTP.
var routeMethods = map[string][]string{
	"/healthz":          {http.MethodGet},
	"/readyz":           {http.MethodGet},
	"/metrics":          {http.MethodGet},
	"/stats":            {http.MethodGet},
	"/discover":         {http.MethodGet},
	"/influence":        {http.MethodGet},
	"/batch":            {http.MethodPost},
	"/debug/queries":    {http.MethodGet},
	"/debug/querystats": {http.MethodGet},
}

// NewHandler wires the endpoints. s may be nil; the Handler then reports
// not-ready until SetSearcher (local offline build) or a swapper (blob-store
// distribution) delivers serving state. Each installed serving state carries
// its own graph.
func NewHandler(s *cod.Searcher, cfg Config) *Handler {
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = defaultMaxInFlight
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h := &Handler{
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, maxInFlight),
		timeout:  cfg.QueryTimeout,

		reg:          reg,
		qm:           obs.NewQueryMetrics(reg),
		httpRequests: reg.Counter("cod_http_requests_total", "HTTP requests received (all routes)."),
		http2xx:      reg.Counter("cod_http_responses_2xx_total", "HTTP responses with a 2xx status."),
		http4xx:      reg.Counter("cod_http_responses_4xx_total", "HTTP responses with a 4xx status."),
		http5xx:      reg.Counter("cod_http_responses_5xx_total", "HTTP responses with a 5xx status."),
		httpShed:     reg.Counter("cod_http_shed_total", "Requests shed with 429 at the admission gate."),
		httpInFlight: reg.Gauge("cod_http_in_flight", "HTTP requests currently being served."),
		querySecs: reg.Histogram("cod_query_seconds",
			"End-to-end latency of query routes (discover, influence, batch).", obs.DefaultLatencyBuckets),
		ready:      reg.Gauge("cod_ready", "1 once the offline phase is done and queries are served."),
		indexBytes: reg.Gauge("cod_index_bytes", "Approximate HIMOR index footprint in bytes."),

		swapOK:       reg.Counter("cod_index_swap_ok_total", "Index epochs fetched, verified, and atomically swapped in."),
		swapFetch:    reg.Counter("cod_index_swap_fetch_failed_total", "Swap attempts abandoned because the store could not deliver the bytes."),
		swapVerify:   reg.Counter("cod_index_swap_verify_failed_total", "Swap attempts rejected by CRC, size, or params-hash verification."),
		swapLoad:     reg.Counter("cod_index_swap_load_failed_total", "Swap attempts whose verified bytes failed to reconstruct a Searcher."),
		swapRejected: reg.Counter("cod_index_swap_rejected_total", "Swap attempts rejected for naming a non-monotone (older) epoch."),
		fetchRetries: reg.Counter("cod_index_fetch_retries_total", "Blobstore operations retried while fetching index artifacts."),

		flight: eventlog.NewFlightRecorder(flightRecentN, flightSlowN, cfg.SlowQuery),
		agg:    eventlog.NewAggregator(),
		events: cfg.Events,
	}
	// The aggregator renders its labeled, exemplar-annotated histogram
	// family through the registry's collector hook, so /metrics stays one
	// endpoint with one sorted document.
	reg.Collector(eventlog.MetricName, h.agg.WriteMetrics)
	if h.events != nil {
		reg.GaugeFunc("cod_query_events_written",
			"Query events durably appended to the -query-log.",
			func() int64 { return h.events.Stats().Written })
		reg.GaugeFunc("cod_query_events_dropped",
			"Query events lost to a full event-log queue.",
			func() int64 { return h.events.Stats().Dropped })
		reg.GaugeFunc("cod_query_events_sampled_out",
			"OK query events skipped by deterministic sampling.",
			func() int64 { return h.events.Stats().SampledOut })
	}
	// Runtime and occupancy gauges, sampled at scrape time. The engine-backed
	// closures tolerate the not-ready window: they report 0 until SetSearcher
	// delivers the offline state.
	obs.RegisterRuntimeMetrics(reg)
	reg.GaugeFunc("cod_rr_cache_pools",
		"RR sample pools currently resident in the engine's per-attribute cache.",
		func() int64 {
			if st := h.state.Load(); st != nil {
				pools, _ := st.s.Engine().SampleCacheStats()
				return pools
			}
			return 0
		})
	reg.GaugeFunc("cod_rr_cache_rrgraphs",
		"RR graphs held by the resident sample pools.",
		func() int64 {
			if st := h.state.Load(); st != nil {
				_, rrs := st.s.Engine().SampleCacheStats()
				return rrs
			}
			return 0
		})
	reg.GaugeFunc("cod_engine_scratch_live",
		"Query scratch buffers currently checked out of the engine pool.",
		func() int64 {
			if st := h.state.Load(); st != nil {
				live, _ := st.s.Engine().PoolStats()
				return live
			}
			return 0
		})
	reg.GaugeFunc("cod_engine_scratch_allocated",
		"Query scratch buffers ever allocated by the engine pool.",
		func() int64 {
			if st := h.state.Load(); st != nil {
				_, alloc := st.s.Engine().PoolStats()
				return alloc
			}
			return 0
		})
	reg.GaugeFunc("cod_index_epoch",
		"Index epoch currently serving (0 for a locally built index).",
		func() int64 {
			if st := h.state.Load(); st != nil {
				return int64(st.epoch)
			}
			return 0
		})
	reg.GaugeFunc("cod_index_stale_ms",
		"Milliseconds this replica has failed to converge on the store's current epoch (0 = in sync).",
		h.staleForMS)
	if s != nil {
		h.SetSearcher(s)
	}
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /readyz", h.readyz)
	h.mux.Handle("GET /metrics", h.reg)
	h.mux.Handle("GET /debug/queries", h.flight)
	h.mux.Handle("GET /debug/querystats", h.agg)
	h.mux.HandleFunc("GET /stats", h.guard(h.stats))
	h.mux.HandleFunc("GET /discover", h.guard(h.instrument(h.discover)))
	h.mux.HandleFunc("GET /influence", h.guard(h.instrument(h.influence)))
	h.mux.HandleFunc("POST /batch", h.guard(h.instrument(h.batch)))
	return h
}

// SetSearcher attaches a locally built Searcher, flipping the Handler to
// ready. Local builds serve as epoch 0; store-fed replicas install real
// epochs through SetServing.
func (h *Handler) SetSearcher(s *cod.Searcher) {
	if s == nil {
		return
	}
	h.SetServing(s, 0, s.IndexParams().Hash())
}

// SetServing atomically installs a fully verified Searcher as the serving
// state — the hot-swap point. In-flight queries keep the state they loaded
// at admission; new requests observe the new epoch immediately.
func (h *Handler) SetServing(s *cod.Searcher, epoch uint64, paramsHash string) {
	h.state.Store(&servingState{
		s:          s,
		g:          s.Graph(),
		epoch:      epoch,
		epochStr:   strconv.FormatUint(epoch, 10),
		paramsHash: paramsHash,
		since:      time.Now(),
	})
	h.ready.Set(1)
	h.indexBytes.Set(s.IndexBytes())
	h.clearStale()
}

// Serving returns the current serving state (nil while warming).
func (h *Handler) Serving() *servingState { return h.state.Load() }

// Epoch returns the serving epoch, or 0 while warming or for local builds.
func (h *Handler) Epoch() uint64 {
	if st := h.state.Load(); st != nil {
		return st.epoch
	}
	return 0
}

// markStale records a failed convergence attempt: the replica keeps serving
// its current epoch, and /readyz reports the divergence and its duration.
func (h *Handler) markStale(err error) {
	msg := err.Error()
	h.staleErr.Store(&msg)
	h.staleSince.CompareAndSwap(0, time.Now().UnixNano())
}

// clearStale records convergence with the store's current epoch.
func (h *Handler) clearStale() {
	h.staleSince.Store(0)
	h.staleErr.Store(nil)
}

// staleForMS reports how long the replica has been stale (0 = in sync).
func (h *Handler) staleForMS() int64 {
	since := h.staleSince.Load()
	if since == 0 {
		return 0
	}
	return (time.Now().UnixNano() - since) / int64(time.Millisecond)
}

// Metrics exposes the registry backing /metrics so main can mount the same
// state on the debug listener.
func (h *Handler) Metrics() *obs.Registry { return h.reg }

// Flight exposes the flight recorder backing /debug/queries so main can
// mount the same state on the debug listener.
func (h *Handler) Flight() *eventlog.FlightRecorder { return h.flight }

// QueryStats exposes the event aggregator backing /debug/querystats so main
// can mount the same state on the debug listener.
func (h *Handler) QueryStats() *eventlog.Aggregator { return h.agg }

// statusWriter captures the response status for metrics and logs; handlers
// that never call WriteHeader implicitly answer 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ServeHTTP implements http.Handler: panic recovery around every route,
// request/response counters, and JSON bodies for unknown paths (404) and
// wrong methods (405) so every response the server emits is
// machine-readable.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.httpRequests.Inc()
	h.httpInFlight.Add(1)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("codserve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			httpError(sw, http.StatusInternalServerError, "internal error")
		}
		switch {
		case sw.status < 300:
			h.http2xx.Inc()
		case sw.status < 500:
			h.http4xx.Inc()
		default:
			h.http5xx.Inc()
		}
		h.httpInFlight.Add(-1)
	}()
	if _, pattern := h.mux.Handler(r); pattern == "" {
		if allowed, known := routeMethods[r.URL.Path]; known {
			sw.Header().Set("Allow", strings.Join(allowed, ", "))
			httpError(sw, http.StatusMethodNotAllowed, "method %s not allowed for %s", r.Method, r.URL.Path)
			return
		}
		httpError(sw, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
		return
	}
	h.mux.ServeHTTP(sw, r)
}

// guard is the admission pipeline for query routes: readiness check, then
// load shedding, then the per-request deadline. Only admitted requests
// reach next, with a context the query pipelines poll. The serving state is
// loaded exactly once and rides along, so a request's searcher, graph, and
// the X-Cod-Epoch header it reports are always one consistent epoch, even
// when a hot swap lands mid-request.
func (h *Handler) guard(next func(http.ResponseWriter, *http.Request, *servingState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := h.state.Load()
		if st == nil {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "offline phase in progress; not ready")
			return
		}
		w.Header().Set("X-Cod-Epoch", st.epochStr)
		select {
		case h.inflight <- struct{}{}:
			defer func() { <-h.inflight }()
		default:
			h.httpShed.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "server at capacity (%d requests in flight)", cap(h.inflight))
			return
		}
		if h.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), h.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next(w, r, st)
	}
}

// instrument runs inside guard on every query route: it attaches a fresh
// per-query Trace plus the shared pipeline metrics to the request context,
// times the request into cod_query_seconds, and builds the query's one wide
// event, which the aggregator digests, the durable log appends (when
// -query-log is on), the flight recorder retains, and the per-query log
// line renders. The Trace is always flushed — a canceled or timed-out
// query's event still carries the spans it finished.
//
// Trace-ID precedence: a well-formed W3C traceparent header wins (the trace
// joins the caller's distributed trace); otherwise the library installs the
// query's seed-derived ID; requests that never reach a seed draw (rejected
// input) get a server-local fallback so every event is addressable.
func (h *Handler) instrument(next func(http.ResponseWriter, *http.Request, *servingState)) func(http.ResponseWriter, *http.Request, *servingState) {
	return func(w http.ResponseWriter, r *http.Request, st *servingState) {
		trace := obs.NewTrace()
		if id, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			trace.EnsureID(id)
		}
		rec := obs.NewRecorder(h.qm, trace)
		note := &queryNote{node: -1, attr: -1}
		r = r.WithContext(context.WithValue(obs.WithRecorder(r.Context(), rec), queryNoteKey{}, note))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next(sw, r, st)
		d := time.Since(start)
		// A query that straddles a hot swap — admitted on one epoch while a
		// newer one was installed underneath — gets an index_swap step in its
		// trace, so /debug/queries shows exactly which queries bridged the
		// flip (and that they completed on their admission epoch).
		if cur := h.state.Load(); cur != nil && cur.epoch != st.epoch {
			step := rec.StartStep("index_swap", st.epochStr+"->"+cur.epochStr)
			step.End("straddled")
		}
		trace.EnsureID(obs.SeedTraceID(uint64(start.UnixNano()) ^ h.traceSeq.Add(1)<<32))
		h.querySecs.Observe(d.Seconds())

		// The wide event: everything the trace knows plus the serving
		// context only this layer has. Expression queries carry their
		// normalized form — one spelling per semantic query — rather than
		// whatever URL-escaped variant the caller sent; the raw query string
		// rides along only when the query failed. The event is complete
		// before it is handed off: its readers run on other goroutines.
		ev := eventlog.New(trace, r.URL.Path, start, d, sw.status)
		ev.Epoch = st.epoch
		ev.Expr = note.expr
		ev.Pred = note.pred
		if note.variant != "" {
			ev.Variant = note.variant
		}
		ev.Node, ev.Attr = note.node, note.attr
		ev.Result = note.result
		ev.Slow = d >= h.flight.SlowAfter()
		if ev.Outcome != eventlog.OutcomeOK {
			ev.Query = r.URL.RawQuery
		}
		h.agg.Observe(ev)
		h.events.Record(ev)
		h.flight.Record(ev)
		slog.Info("query", "trace_id", ev.TraceID, "event", ev.Summary())
	}
}

// queryNote carries query facts from the route handler back up to the
// instrumentation wrapper (same goroutine, so plain fields suffice): the
// normalized expression, the predicate aggregation key, the plan variant,
// the query arguments, and the result fingerprint. The wrapper installs it
// in the request context; handlers publish through noteFromContext.
type queryNote struct {
	expr    string
	pred    string
	variant string
	node    int64
	attr    int64
	result  *eventlog.Result
}

type queryNoteKey struct{}

// noteFromContext returns the request's queryNote; outside instrument (unit
// tests driving handlers directly) it returns a writable discard note so
// handlers never branch.
func noteFromContext(ctx context.Context) *queryNote {
	if note, ok := ctx.Value(queryNoteKey{}).(*queryNote); ok {
		return note
	}
	return &queryNote{}
}

// noteResult fingerprints a successful discover answer into the note.
func (n *queryNote) noteResult(com cod.Community) {
	n.result = &eventlog.Result{
		Found:    com.Found,
		Rank:     com.Rank,
		Size:     com.Size(),
		NodesFNV: eventlog.NodesSum(com.Nodes),
	}
}

func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok"))
}

// readyzResponse is the machine-readable readiness contract. States:
// "warming" (503: no index yet), "serving" (200: in sync with the source of
// truth), "stale" (200: still answering queries, but the last attempt to
// converge on the store's current epoch failed StaleForMS ago).
type readyzResponse struct {
	State      string `json:"state"`
	Epoch      uint64 `json:"epoch"`
	ParamsHash string `json:"params_hash,omitempty"`
	StaleForMS int64  `json:"stale_for_ms"`
	LastError  string `json:"last_error,omitempty"`
}

func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	st := h.state.Load()
	if st == nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{State: "warming"})
		return
	}
	resp := readyzResponse{
		State:      "serving",
		Epoch:      st.epoch,
		ParamsHash: st.paramsHash,
	}
	if h.staleSince.Load() != 0 {
		resp.State = "stale"
		resp.StaleForMS = h.staleForMS()
		if msg := h.staleErr.Load(); msg != nil {
			resp.LastError = *msg
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

type statsResponse struct {
	Nodes    int     `json:"nodes"`
	Edges    int     `json:"edges"`
	Attrs    int     `json:"attrs"`
	IndexMB  float64 `json:"index_mb"`
	Weighted bool    `json:"weighted"`
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request, st *servingState) {
	writeJSON(w, http.StatusOK, statsResponse{
		Nodes:   st.g.N(),
		Edges:   st.g.M(),
		Attrs:   st.g.NumAttrs(),
		IndexMB: float64(st.s.IndexBytes()) / (1 << 20),
	})
}

type discoverResponse struct {
	Query       int      `json:"query"`
	Attr        int      `json:"attr"`
	Expr        string   `json:"expr,omitempty"`
	Method      string   `json:"method"`
	Found       bool     `json:"found"`
	FromIndex   bool     `json:"from_index,omitempty"`
	Rank        int      `json:"rank,omitempty"`
	Size        int      `json:"size"`
	Density     float64  `json:"topology_density"`
	AttrDensity *float64 `json:"attribute_density,omitempty"`
	Conductance float64  `json:"conductance"`
	Nodes       []int32  `json:"nodes,omitempty"`
}

// discover answers GET /discover. The q parameter is dual-mode: an integer
// runs the single-attribute CODL query (with an optional attr=), anything
// else is a URL-escaped query expression (predicate over attribute names or
// ids, community filters, node=/k=/variant= knobs) prepared against the
// serving epoch's graph. The expression mode echoes the normalized
// expression, so semantically equal spellings answer with one canonical
// form. The retired method= parameter is a 400 naming the expression that
// replaces it, so no caller silently gets CODL where it asked for another
// variant.
func (h *Handler) discover(w http.ResponseWriter, r *http.Request, st *servingState) {
	rawQ := r.URL.Query().Get("q")
	if rawQ == "" {
		httpError(w, http.StatusBadRequest, "missing parameter %q", "q")
		return
	}
	if r.URL.Query().Has("method") {
		httpError(w, http.StatusBadRequest,
			"parameter \"method\" is retired; name the variant in a query expression instead, e.g. q=ATTR and node=N and variant=codr")
		return
	}
	q, err := strconv.Atoi(rawQ)
	if err != nil {
		h.discoverExpr(w, r, st, rawQ)
		return
	}
	attr, ok := intParamDefault(w, r, "attr", 0)
	if !ok {
		return
	}
	note := noteFromContext(r.Context())
	note.variant, note.pred = "CODL", "attr:"+strconv.Itoa(attr)
	note.node, note.attr = int64(q), int64(attr)
	com, err := st.s.DiscoverCtx(r.Context(), cod.NodeID(q), cod.AttrID(attr))
	if err != nil {
		queryError(w, err)
		return
	}
	note.noteResult(com)
	resp := discoverResponse{Query: q, Attr: attr, Method: "codl",
		Found: com.Found, FromIndex: com.FromIndex, Rank: com.Rank}
	if com.Found {
		resp.Size = com.Size()
		resp.Density = st.g.TopologyDensity(com.Nodes)
		ad := st.g.AttributeDensity(com.Nodes, cod.AttrID(attr))
		resp.AttrDensity = &ad
		resp.Conductance = st.g.Conductance(com.Nodes)
		if resp.Size <= 1000 {
			resp.Nodes = com.Nodes
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// discoverExpr is /discover's expression mode: prepare once against the
// serving epoch, require a node= knob (the q parameter holds the
// expression), and answer with the canonical form, the community, and its
// influence rank. Attribute density is omitted — a compound predicate has no
// single attribute to measure against.
func (h *Handler) discoverExpr(w http.ResponseWriter, r *http.Request, st *servingState, expr string) {
	pq, err := st.s.Prepare(expr)
	if err != nil {
		queryError(w, err)
		return
	}
	node, ok := pq.Node()
	if !ok {
		httpError(w, http.StatusBadRequest, "query expression needs a node= knob (e.g. %q)", expr+" and node=0")
		return
	}
	note := noteFromContext(r.Context())
	note.expr = pq.Expr()
	note.pred = pq.PredKey()
	note.variant = pq.Variant()
	note.node = int64(node)
	com, err := pq.DiscoverCtx(r.Context(), node)
	if err != nil {
		queryError(w, err)
		return
	}
	note.noteResult(com)
	resp := discoverResponse{Query: int(node), Attr: -1, Expr: pq.Expr(),
		Method: toLowerASCII(pq.Variant()), Found: com.Found,
		FromIndex: com.FromIndex, Rank: com.Rank}
	if com.Found {
		resp.Size = com.Size()
		resp.Density = st.g.TopologyDensity(com.Nodes)
		resp.Conductance = st.g.Conductance(com.Nodes)
		if resp.Size <= 1000 {
			resp.Nodes = com.Nodes
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func toLowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

type influenceResponse struct {
	Query     int     `json:"query"`
	Influence float64 `json:"influence"`
}

func (h *Handler) influence(w http.ResponseWriter, r *http.Request, st *servingState) {
	q, ok := intParam(w, r, "q")
	if !ok {
		return
	}
	noteFromContext(r.Context()).node = int64(q)
	infl, err := st.s.EstimateInfluenceCtx(r.Context(), cod.NodeID(q))
	if err != nil {
		queryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, influenceResponse{Query: q, Influence: infl})
}

type batchRequest struct {
	Queries []struct {
		Q    int32  `json:"q"`
		Attr int32  `json:"attr"`
		Expr string `json:"expr,omitempty"`
	} `json:"queries"`
	Workers int `json:"workers,omitempty"`
}

type batchItem struct {
	Query int32  `json:"query"`
	Attr  int32  `json:"attr"`
	Expr  string `json:"expr,omitempty"`
	Found bool   `json:"found"`
	Rank  int    `json:"rank,omitempty"`
	Size  int    `json:"size"`
	Error string `json:"error,omitempty"`
}

// batch answers many queries in one request via the Searcher's concurrent
// DiscoverBatchCtx (bounded body, capped batch size). Invalid items are
// rejected by the same up-front validation Discover applies — one error
// shape across the scalar and batch routes — without consuming query work.
func (h *Handler) batch(w http.ResponseWriter, r *http.Request, st *servingState) {
	s := st.s
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if len(req.Queries) == 0 || len(req.Queries) > 1024 {
		httpError(w, http.StatusBadRequest, "batch size %d out of range [1,1024]", len(req.Queries))
		return
	}
	noteFromContext(r.Context()).variant = "batch"
	queries := make([]cod.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = cod.Query{Node: q.Q, Attr: q.Attr, Expr: q.Expr}
	}
	results := s.DiscoverBatchCtx(r.Context(), queries, req.Workers)
	// A deadline that fires mid-batch leaves every unfinished item carrying
	// the context error; report the whole request as timed out rather than
	// a 200 with silently missing answers.
	for _, res := range results {
		if res.Err != nil && errors.Is(res.Err, context.DeadlineExceeded) {
			queryError(w, res.Err)
			return
		}
	}
	out := make([]batchItem, len(results))
	for i, res := range results {
		out[i] = batchItem{Query: res.Query.Node, Attr: res.Query.Attr, Expr: res.Query.Expr}
		if res.Err != nil {
			out[i].Error = res.Err.Error()
			continue
		}
		out[i].Found = res.Community.Found
		out[i].Rank = res.Community.Rank
		out[i].Size = res.Community.Size()
	}
	writeJSON(w, http.StatusOK, out)
}

// queryError maps a query failure onto the serving contract: deadline
// expiry is 504, cancellation (shutdown) is 503, anything else is caller
// error. Partial-progress detail from cod.CanceledError rides along in the
// JSON body. Typed caller errors keep their structure: a *cod.ParseError
// answers with the byte offset and a caret rendering, and a *cod.RangeError
// with the out-of-range field, its bounds, and the known attribute names —
// machine-actionable 400s rather than opaque strings.
func queryError(w http.ResponseWriter, err error) {
	var pe *cod.ParseError
	var re *cod.RangeError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "query timed out: %v", err)
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, "query canceled: %v", err)
	case errors.As(err, &pe):
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": pe.Error(), "pos": pe.Pos, "caret": pe.Caret(),
		})
	case errors.As(err, &re):
		body := map[string]any{
			"error": re.Error(), "what": re.What, "value": re.Value, "n": re.N,
		}
		if len(re.Known) > 0 {
			body["known"] = re.Known
		}
		writeJSON(w, http.StatusBadRequest, body)
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

func intParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		httpError(w, http.StatusBadRequest, "missing parameter %q", name)
		return 0, false
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parameter %q: %v", name, err)
		return 0, false
	}
	return v, true
}

func intParamDefault(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parameter %q: %v", name, err)
		return 0, false
	}
	return v, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
