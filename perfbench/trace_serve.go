package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
	"github.com/codsearch/cod/internal/graph"
)

// Sizes of serve-cora's traced run.
const (
	traceServeSample = 200 // requests sent one at a time to a fresh server and a fresh Searcher
	traceServeOpen   = 300 // open-loop requests for the generator's lateness
)

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// traceServe is serve-cora's traced run. It times each serving layer from
// outside: publish, fetch and load of the snapshot; the server's readiness;
// the same requests sent one at a time over HTTP to a fresh server and
// through a fresh in-process Searcher (both draw the same per-query seeds,
// so their answers must agree); the event log's growth; the hot swap; and a
// step-by-step replay of the CODL requests on the in-process Searcher.
func traceServe(ctx context.Context, cfg *config, t *tally) (metrics, []string, error) {
	if cfg.codserve == "" {
		return nil, nil, errors.New("serve-cora needs -codserve")
	}
	gen, err := newGenerator(ctx, cfg.def, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	sample, err := gen.blocks(traceServeSample/serveBlock, serveBlock)
	if err != nil {
		return nil, nil, err
	}
	openStream, err := gen.blocks(traceServeOpen/serveBlock, serveBlock)
	if err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workdir, "serve-cora-trace-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	m := metrics{}
	g, err := offlineLayers(ctx, cfg, m)
	if err != nil {
		return nil, nil, err
	}
	s, err := cod.NewSearcherCtx(ctx, g, searcherOptions(cfg))
	if err != nil {
		return nil, nil, err
	}
	pub, err := newPublisher(filepath.Join(runDir, "store"), s)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	man, err := pub.publish(ctx, 1)
	if err != nil {
		return nil, nil, err
	}
	m["blobstore.publish_s"] = time.Since(t0).Seconds()
	var snapBytes int64
	for _, a := range man.Artifacts {
		snapBytes += a.Bytes
	}
	m["cod.snapshot_kb"] = float64(snapBytes) / 1024

	base := cod.Options{} // the runtime knobs codserve uses by default
	t0 = time.Now()
	local, _, err := cod.FetchSnapshot(ctx, pub.store, serveDataset, base, blobstore.RetryPolicy{})
	if err != nil {
		return nil, nil, err
	}
	m["blobstore.fetch_s"] = time.Since(t0).Seconds()
	if err := timeLoad(s, m); err != nil {
		return nil, nil, err
	}

	t0 = time.Now()
	srv, err := startServer(ctx, cfg, pub.dir, filepath.Join(runDir, "server"))
	if err != nil {
		return nil, nil, err
	}
	defer srv.stop()
	c := newConn()
	defer c.close()
	if err := srv.waitReady(ctx, c, 1); err != nil {
		return nil, nil, err
	}
	m["codserve.ready_s"] = time.Since(t0).Seconds()
	memBefore, err := srv.memStats(ctx, c)
	if err != nil {
		return nil, nil, err
	}

	// The same requests, in the same order, over HTTP and in-process.
	var (
		httpMs, localMs []float64
		bodyBytes       int64
		sent            int
	)
	want := make([]answer, len(sample))
	pqs, err := prepareAll(local, sample)
	if err != nil {
		return nil, nil, err
	}
	ig := local.Engine().Graph()
	for i, q := range sample {
		t0 := time.Now()
		r := c.get(ctx, discoverURL(srv.base, q))
		httpMs = append(httpMs, float64(time.Since(t0).Nanoseconds())/1e6)
		sent++
		bodyBytes += int64(len(r.body))
		ha, bad := replyAnswer(r)
		if bad == "" {
			bad = checkAnswer(ig, q, ha, rankBound)
		}

		t0 = time.Now()
		com, err := pqs[i].DiscoverCtx(ctx, q.Node)
		localMs = append(localMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			t.fail(fmt.Sprintf("in-process query %d: %v", i, err))
			continue
		}
		want[i] = fromCommunity(com)
		if bad == "" && !sameServed(ha, want[i]) {
			bad = fmt.Sprintf("request %d: the server's answer differs from the in-process Searcher's for the same seed", i)
		}
		t.check(bad)
	}
	m["codserve.overhead_ms"] = median(httpMs) - median(localMs)
	m["codserve.resp_kb"] = float64(bodyBytes) / float64(len(sample)) / 1024

	memAfter, err := srv.memStats(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	m["runtime.alloc_kb_per_query"] = float64(memAfter.totalAlloc-memBefore.totalAlloc) / 1024 / float64(len(sample))
	m["runtime.gc_pause_ms"] = float64(memAfter.pauseSince(memBefore).Nanoseconds()) / 1e6
	m["runtime.gc_cpu_frac"] = memAfter.gcCPU

	// A short open loop for the generator's own lateness.
	conns := makeConns(cfg.nproc)
	defer closeConns(conns)
	sched := poissonSchedule(cfg.seed, serveRate, len(openStream))
	res := openLoop(ctx, conns, time.Now().Add(20*time.Millisecond), sched, func(ctx context.Context, c *conn, i int) {
		c.record(openStream[i], c.get(ctx, discoverURL(srv.base, openStream[i])))
	})
	for _, c := range conns {
		c.drain(t, gen.g, 1, 1)
	}
	sent += len(openStream)
	late := summarize(res.genLate)
	m["loadgen.late_p99_ms"] = quantile(late.Sorted, 0.99)
	m["runtime.peak_rss_mb"] = peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))

	// The hot swap: from the publish returning to the first reply that
	// carries the new epoch.
	if _, err := pub.publish(ctx, 2); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	probe := sample[0]
	for {
		r := c.get(ctx, discoverURL(srv.base, probe))
		sent++
		if r.epoch == 2 {
			break
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			return nil, nil, errors.New("the server never swapped to the published epoch")
		}
	}
	m["codserve.swap_s"] = time.Since(t0).Seconds()

	// A clean drain flushes the event log; its size per request is the
	// log's cost.
	if err := srv.stop(); err != nil {
		return nil, nil, err
	}
	m["eventlog.bytes_per_query"] = float64(dirBytes(srv.qlog)) / float64(sent)

	// Replay the sample on the in-process Searcher: its i-th query drew
	// the i-th seed of its sequence.
	tr := &tracer{}
	r := newReplayer(local, false, tr)
	opts := local.Engine().Params()
	ls, err := replaySample(ctx, t, r, sample, want, stride(len(sample), len(sample)), func(i int) uint64 { return graph.ItemSeed(opts.Seed, i) })
	if err != nil {
		return nil, nil, err
	}
	layerMetrics(m, r, ls)
	_, allocated := local.Engine().PoolStats()
	m["engine.scratch_allocated"] = float64(allocated)
	notes := []string{
		fmt.Sprintf("HTTP p50 %.4g ms vs in-process p50 %.4g ms over %d requests", median(httpMs), median(localMs), len(sample)),
		lateNote(late),
		fmt.Sprintf("replayed %d of %d requests step by step (adaptive ones are not replayed)", ls.replayed, len(sample)),
	}
	return m, notes, nil
}

// sameServed compares a served answer with the library's: the member list
// when the response carried it, else the size.
func sameServed(served, lib answer) bool {
	if served.Nodes == nil && served.Found {
		return lib.Found && served.FromIndex == lib.FromIndex && served.Rank == lib.Rank && served.Size == lib.Size
	}
	return sameAnswer(served, lib)
}

// timeLoad times cod.LoadSearcher on the Searcher's own serialized index.
func timeLoad(s *cod.Searcher, m metrics) error {
	var gb, ib bytes.Buffer
	if _, err := s.Graph().WriteTo(&gb); err != nil {
		return err
	}
	if err := s.SaveIndex(&ib); err != nil {
		return err
	}
	g, err := cod.LoadGraph(&gb)
	if err != nil {
		return err
	}
	opts := s.Engine().Params()
	t0 := time.Now()
	if _, err := cod.LoadSearcher(g, &ib, cod.Options{K: opts.K, Theta: opts.Theta, Seed: opts.Seed}); err != nil {
		return err
	}
	m["cod.load_s"] = time.Since(t0).Seconds()
	return nil
}
