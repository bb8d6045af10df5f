// Command codserve exposes a COD Searcher over HTTP. The offline phase
// (clustering + HIMOR) runs in the background after the listener is up:
// the process is immediately live for probes, and flips ready when the
// index is built. Queries are served as JSON with per-request deadlines,
// bounded concurrency, and graceful drain on SIGINT/SIGTERM.
//
//	codserve -dataset cora -addr :8080
//	codserve -graph data/mygraph.txt -k 3 -query-timeout 5s
//
// Endpoints:
//
//	GET  /healthz                        -> 200 while the process lives
//	GET  /readyz                         -> 200 once the offline phase is done, else 503
//	GET  /metrics                        -> Prometheus text metrics
//	GET  /stats                          -> graph/index statistics
//	GET  /discover?q=42&attr=1           -> CODL; other variants take an expression:
//	GET  /discover?q=1%20and%20node%3D42%20and%20variant%3Dcodr
//	GET  /influence?q=42
//	POST /batch                          -> {"queries":[{"q":42,"attr":1},...]}
//	GET  /debug/queries[?format=text]    -> recent + slow query events (flight recorder)
//	GET  /debug/querystats               -> streaming per-(variant, predicate, outcome) latency digests
//
// -query-log DIR appends one wide JSONL event per query to a size-rotated,
// crash-tolerant log (analyzed offline with codlog); -query-log-sample sets
// the deterministic keep rate for OK events (slow and errored events are
// always kept).
//
// Serving contract: malformed input is 400, not-ready is 503, shed load is
// 429 with Retry-After, an expired -query-timeout is 504, and every
// response carries a Content-Type (JSON error bodies everywhere but the
// probe endpoints).
//
// -debug-addr starts a second listener carrying net/http/pprof under
// /debug/pprof/ plus a /metrics mirror. It is off by default: profiling
// endpoints stay off the serving port so they are never reachable from
// query traffic.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

func main() {
	var (
		graphFile     = flag.String("graph", "", "graph file in cod text format (overrides -dataset)")
		datasetN      = flag.String("dataset", "cora", "built-in dataset name")
		addr          = flag.String("addr", ":8080", "listen address")
		addrFile      = flag.String("addr-file", "", "write the bound address to this file once listening")
		k             = flag.Int("k", 5, "required influence rank k")
		theta         = flag.Int("theta", 10, "RR graphs per node (θ)")
		seed          = flag.Uint64("seed", 42, "random seed")
		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "per-request query deadline (0 = none)")
		maxInFlight   = flag.Int("max-inflight", 64, "concurrent query cap before shedding with 429")
		grace         = flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight queries on shutdown")
		debugAddr     = flag.String("debug-addr", "", "optional listen address for pprof + /metrics (off when empty)")
		sampleCache   = flag.Int("sample-cache", 0, "per-attribute RR sample pools kept resident (0 = off); hits/misses on /metrics")
		slowQuery     = flag.Duration("slow-query", eventlog.DefaultSlowAfter, "latency at which a query is marked slow: kept in the /debug/queries slow ring and past -query-log-sample")
		indexStore    = flag.String("index-store", "", "blob store root directory to serve published index epochs from (skips the local offline build)")
		indexWatch    = flag.Duration("index-watch", 10*time.Second, "poll cadence for new index epochs in the store (0 = fetch once at startup)")
		indexDataset  = flag.String("index-dataset", "", "dataset namespace within -index-store (defaults to -dataset)")
		adaptiveEps   = flag.Float64("adaptive-eps", 0.05, "indifference width ε for bounded-error adaptive sampling (used when -adaptive-delta > 0)")
		adaptiveDelta = flag.Float64("adaptive-delta", 0, "certification failure probability δ; > 0 enables bounded-error adaptive sampling")
		queryLog      = flag.String("query-log", "", "directory for the durable query-event log (JSONL, size-rotated; off when empty)")
		queryLogRate  = flag.Float64("query-log-sample", 1.0, "deterministic keep rate for OK events in -query-log (slow/error events are always kept)")
		queryLogBytes = flag.Int64("query-log-max-bytes", 64<<20, "rotate -query-log files at this size (fsync on rotate)")
	)
	flag.Parse()

	// δ > 0 opts into bounded-error staged sampling; ε alone changes nothing,
	// so the default answers stay byte-identical to earlier releases.
	adaptive := cod.AdaptiveOptions{Enabled: *adaptiveDelta > 0, Eps: *adaptiveEps, Delta: *adaptiveDelta}
	// Every searcher refuses a bad value, so with -index-store the swapper
	// would poll a store it can never load; refuse it here instead.
	if err := adaptive.Validate(); err != nil {
		log.Fatalf("codserve: -adaptive-eps/-adaptive-delta: %v", err)
	}
	if adaptive.Enabled {
		log.Printf("adaptive sampling on: eps=%g delta=%g", *adaptiveEps, *adaptiveDelta)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -index-store the graph and index both arrive inside published
	// snapshots; nothing is built locally.
	var g *cod.Graph
	if *indexStore == "" {
		var err error
		g, err = loadGraph(*graphFile, *datasetN, *seed)
		if err != nil {
			log.Fatal("codserve: ", err)
		}
		log.Printf("graph loaded: n=%d m=%d attrs=%d", g.N(), g.M(), g.NumAttrs())
	}

	// The event sink opens before the handler so the very first admitted
	// query is captured; it closes after the drain so the log's tail is the
	// last query served.
	var events *eventlog.Sink
	if *queryLog != "" {
		var err error
		events, err = eventlog.Open(eventlog.Options{
			Dir:          *queryLog,
			MaxFileBytes: *queryLogBytes,
			SampleRate:   *queryLogRate,
		})
		if err != nil {
			log.Fatal("codserve: ", err)
		}
		log.Printf("query-event log on %s (sample %.3g, rotate at %d bytes)", *queryLog, *queryLogRate, *queryLogBytes)
	}

	reg := obs.NewRegistry()
	h := NewHandler(nil, Config{QueryTimeout: *queryTimeout, MaxInFlight: *maxInFlight, Metrics: reg,
		SlowQuery: *slowQuery, Events: events})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("codserve: ", err)
	}

	// The debug listener carries pprof and a /metrics mirror, kept off the
	// serving address so profiling is opt-in and never exposed to query
	// traffic. It shares the registry, so both listeners report one truth.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", reg)
		dmux.Handle("/debug/queries", h.Flight())
		dmux.Handle("/debug/querystats", h.QueryStats())
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal("codserve: debug listener: ", err)
		}
		debugSrv = &http.Server{Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("codserve: debug server: %v", err)
			}
		}()
		log.Printf("debug server (pprof + /metrics) on %s", dln.Addr())
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal("codserve: writing addr file: ", err)
		}
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      writeTimeoutFor(*queryTimeout),
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("listening on %s (queries answer 503 until the offline phase completes)", ln.Addr())

	// The offline phase polls ctx, so a shutdown signal during warmup
	// abandons the build instead of blocking the drain. In -index-store
	// mode no local build runs; the swapper goroutine fetches published
	// epochs instead and keeps converging on the store for the process
	// lifetime (buildDone then stays silent).
	buildDone := make(chan error, 1)
	if *indexStore != "" {
		dataset := *indexDataset
		if dataset == "" {
			dataset = *datasetN
		}
		store, err := blobstore.NewFS(*indexStore)
		if err != nil {
			log.Fatal("codserve: ", err)
		}
		sw := &Swapper{
			Store:    store,
			Dataset:  dataset,
			Interval: *indexWatch,
			Base: cod.Options{SampleCache: *sampleCache,
				CacheHierarchies: *sampleCache > 0, Adaptive: adaptive},
			H: h,
		}
		log.Printf("serving index epochs for dataset %q from %s (watch %v)", dataset, *indexStore, *indexWatch)
		go sw.Run(ctx)
	} else {
		go func() {
			// Metrics-only recorder: the offline phase reports its stage timings
			// (rr_sample, hac_merge, himor_build) on /metrics before the first
			// query ever arrives.
			bctx := obs.WithRecorder(ctx, obs.NewRecorder(h.qm, nil))
			s, err := cod.NewSearcherCtx(bctx, g, cod.Options{K: *k, Theta: *theta, Seed: *seed,
				SampleCache: *sampleCache, CacheHierarchies: *sampleCache > 0, Adaptive: adaptive})
			if err != nil {
				buildDone <- err
				return
			}
			h.SetSearcher(s)
			log.Printf("offline phase done; index %.2f MB; ready", float64(s.IndexBytes())/(1<<20))
			buildDone <- nil
		}()
	}

	select {
	case err := <-serveErr:
		log.Fatal("codserve: ", err)
	case <-ctx.Done():
	case err := <-buildDone:
		if err != nil {
			if ctx.Err() == nil {
				log.Fatal("codserve: offline phase: ", err)
			}
			log.Printf("offline phase abandoned on shutdown: %v", err)
		}
		if ctx.Err() == nil {
			select {
			case err := <-serveErr:
				log.Fatal("codserve: ", err)
			case <-ctx.Done():
			}
		}
	}

	stop() // a second signal now kills the process immediately
	log.Printf("shutdown signal received; draining in-flight queries (grace %v)", *grace)
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// Flush what the log holds before exiting; queries still running
		// record after Close, which counts their events as dropped.
		if cerr := events.Close(); cerr != nil {
			log.Printf("codserve: query-event log: %v", cerr)
		}
		log.Fatal("codserve: drain incomplete: ", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(sctx)
	}
	// Every in-flight query has finished recording; flush and fsync the
	// event log last so the final line on disk is the final query served.
	if err := events.Close(); err != nil {
		log.Printf("codserve: query-event log: %v", err)
	}
	log.Printf("drained cleanly; exiting")
}

// writeTimeoutFor keeps the server-side write deadline safely above the
// per-query deadline so 504 bodies are written by the handler, not cut off
// by the connection.
func writeTimeoutFor(queryTimeout time.Duration) time.Duration {
	if queryTimeout <= 0 {
		return 0 // no bound: match the unbounded query deadline
	}
	return queryTimeout + 15*time.Second
}

func loadGraph(graphFile, datasetN string, seed uint64) (*cod.Graph, error) {
	if graphFile == "" {
		return cod.GenerateDataset(datasetN, seed)
	}
	f, err := os.Open(graphFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := cod.LoadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", graphFile, err)
	}
	return g, nil
}
