package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
)

// serve-cora's traffic shape.
const (
	serveRate     = 40.0 // open-loop arrivals per second, about an eighth of capacity
	serveOpen     = 1000 // open-loop requests: p99 then has 10 samples beyond it
	serveBlock    = 100  // requests per fixed-composition block
	serveCapacity = 20   // blocks the capacity phase cycles through
	serveWarm     = 60   // warm-up requests per set-up
	serveDataset  = "cora"
	indexWatch    = 100 * time.Millisecond
	// capacityWindow splits the capacity phase; qps is the median window.
	capacityWindow = time.Second
)

// server is a codserve child process serving index epochs from a blob store.
type server struct {
	cmd    *exec.Cmd
	base   string // http://addr of the serving listener
	debug  string // http://addr of the pprof listener
	done   chan struct{}
	err    error // Wait's result, valid once done is closed
	stderr *os.File
	qlog   string
}

// startServer spawns codserve on ephemeral ports with its query log and
// stderr inside dir, and waits until it has written its address. The child
// is killed if this process dies first.
func startServer(ctx context.Context, cfg *config, storeDir, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	qlog := filepath.Join(dir, "qlog")
	stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.codserve,
		"-dataset", serveDataset,
		"-index-store", storeDir,
		"-index-watch", indexWatch.String(),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-debug-addr", "127.0.0.1:0",
		"-query-log", qlog,
	)
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("starting codserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{}), stderr: stderr, qlog: qlog}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			s.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case <-s.done:
			s.stop()
			return nil, fmt.Errorf("codserve exited before listening: %v (see %s)", s.err, stderr.Name())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	// codserve logs the debug listener's address before it writes the addr
	// file, so the line is already in the log.
	logText, err := os.ReadFile(stderr.Name())
	if err != nil {
		s.stop()
		return nil, err
	}
	const marker = "debug server (pprof + /metrics) on "
	i := bytes.Index(logText, []byte(marker))
	if i < 0 {
		s.stop()
		return nil, errors.New("codserve did not log its debug address")
	}
	line := logText[i+len(marker):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	s.debug = "http://" + strings.TrimSpace(string(line))
	return s, nil
}

// waitReady polls /readyz until the server reports it is serving epoch.
func (s *server) waitReady(ctx context.Context, c *conn, epoch int) error {
	for {
		r := c.get(ctx, s.base+"/readyz")
		if r.err == nil && r.status == 200 && bytes.Contains(r.body, []byte(`"state":"serving"`)) &&
			bytes.Contains(r.body, []byte(fmt.Sprintf(`"epoch":%d,`, epoch))) {
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("codserve exited before ready: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes too long. It returns an error unless the server exited
// cleanly. Safe to call more than once.
func (s *server) stop() error {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.stderr.Close()
	if s.err != nil {
		return fmt.Errorf("codserve exit: %v (see %s)", s.err, s.stderr.Name())
	}
	return nil
}

// serverMem is the runtime.MemStats block of a heap profile in debug=1 form.
type serverMem struct {
	heapAlloc, totalAlloc, numGC uint64
	pauseNs                      []uint64 // circular buffer, most recent at (numGC+255)%256
	gcCPU                        float64
}

// memStats fetches /debug/pprof/heap?gc=1&debug=1, which forces a
// collection first, so heapAlloc is the live heap.
func (s *server) memStats(ctx context.Context, c *conn) (serverMem, error) {
	r := c.get(ctx, s.debug+"/debug/pprof/heap?gc=1&debug=1")
	if r.err != nil || r.status != 200 {
		return serverMem{}, fmt.Errorf("heap profile: status %d: %v", r.status, r.err)
	}
	var m serverMem
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "HeapAlloc":
			m.heapAlloc, _ = strconv.ParseUint(v, 10, 64)
		case "TotalAlloc":
			m.totalAlloc, _ = strconv.ParseUint(v, 10, 64)
		case "NumGC":
			m.numGC, _ = strconv.ParseUint(v, 10, 64)
		case "GCCPUFraction":
			m.gcCPU, _ = strconv.ParseFloat(v, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, _ := strconv.ParseUint(f, 10, 64)
				m.pauseNs = append(m.pauseNs, n)
			}
		}
	}
	if m.heapAlloc == 0 || len(m.pauseNs) != 256 {
		return serverMem{}, errors.New("heap profile carries no runtime.MemStats block")
	}
	return m, nil
}

// pauseSince sums the GC pauses after an earlier reading (exact while fewer
// than 256 collections ran in between).
func (m serverMem) pauseSince(before serverMem) time.Duration {
	var total uint64
	for n := before.numGC + 1; n <= m.numGC && m.numGC-n < 256; n++ {
		total += m.pauseNs[(n+255)%256]
	}
	return time.Duration(total)
}

// peakRSSMiB reads VmHWM of a process from /proc.
func peakRSSMiB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// publisher publishes epochs of one Searcher to a fresh store.
type publisher struct {
	dir   string
	store *blobstore.FS
	s     *cod.Searcher
}

func newPublisher(dir string, s *cod.Searcher) (*publisher, error) {
	st, err := blobstore.NewFS(dir)
	if err != nil {
		return nil, err
	}
	return &publisher{dir: dir, store: st, s: s}, nil
}

func (p *publisher) publish(ctx context.Context, epoch uint64) (*blobstore.Manifest, error) {
	return cod.PublishSnapshot(ctx, p.store, serveDataset, epoch, p.s, blobstore.RetryPolicy{})
}

// serveSetup is one timed set-up of serve-cora: generate cora, build the
// index, publish epoch 1, start codserve on the store, wait for readiness
// and run the warm-up.
func serveSetup(ctx context.Context, cfg *config, dir string, gen *generator, warm []benchQuery, t *tally) (*server, *publisher, float64, error) {
	start := time.Now()
	g, err := cod.GenerateDataset(serveDataset, datasetSeed)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := cod.NewSearcherCtx(ctx, g, searcherOptions(cfg))
	if err != nil {
		return nil, nil, 0, err
	}
	pub, err := newPublisher(filepath.Join(dir, "store"), s)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := pub.publish(ctx, 1); err != nil {
		return nil, nil, 0, err
	}
	srv, err := startServer(ctx, cfg, pub.dir, filepath.Join(dir, "server"))
	if err != nil {
		return nil, nil, 0, err
	}
	c := newConn()
	defer c.close()
	if err := srv.waitReady(ctx, c, 1); err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	conns := makeConns(cfg.nproc)
	defer closeConns(conns)
	closedLoopN(ctx, conns, len(warm), func(ctx context.Context, c *conn, i int) {
		c.record(warm[i], c.get(ctx, discoverURL(srv.base, warm[i])))
	})
	secs := time.Since(start).Seconds()
	for _, c := range conns {
		c.drain(t, gen.g, 1, 1)
	}
	return srv, pub, secs, nil
}

func makeConns(n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = newConn()
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// closedLoopN sends requests 0..n-1 over conns, each connection waiting for
// its reply before taking the next index.
func closedLoopN(ctx context.Context, conns []*conn, n int, send func(ctx context.Context, c *conn, i int)) {
	sched := make([]time.Duration, n) // all due at once: a closed loop
	openLoop(ctx, conns, time.Now(), sched, send)
}

// runServe is serve-cora's timed run.
func runServe(ctx context.Context, cfg *config, t *tally) (metrics, []string, error) {
	if cfg.codserve == "" {
		return nil, nil, errors.New("serve-cora needs -codserve")
	}
	gen, err := newGenerator(ctx, cfg.def, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	warm, err := gen.block(serveWarm)
	if err != nil {
		return nil, nil, err
	}
	capStream, err := gen.blocks(serveCapacity, serveBlock)
	if err != nil {
		return nil, nil, err
	}
	openStream, err := gen.blocks(serveOpen/serveBlock, serveBlock)
	if err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workdir, "serve-cora-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	var (
		srv    *server
		pub    *publisher
		setups []float64
	)
	for rep := 0; moreSetups(setups); rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		var secs float64
		srv, pub, secs, err = serveSetup(ctx, cfg, filepath.Join(runDir, strconv.Itoa(rep)), gen, warm, t)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
	}
	defer srv.stop()

	conns := makeConns(cfg.nproc)
	defer closeConns(conns)
	capDur := time.Duration(cfg.seconds * float64(time.Second))
	rates := closedLoop(ctx, conns, capStream, capDur, capacityWindow, func(ctx context.Context, c *conn, q benchQuery) {
		c.record(q, c.get(ctx, discoverURL(srv.base, q)))
	})
	for _, c := range conns {
		c.drain(t, gen.g, 1, 1)
	}

	// Open loop with one hot swap: epoch 2 is published when the middle
	// request falls due, so requests see epoch 1 then 2, never back.
	sched := poissonSchedule(cfg.seed, serveRate, len(openStream))
	start := time.Now().Add(20 * time.Millisecond)
	pubErr := make(chan error, 1)
	go func() {
		time.Sleep(time.Until(start.Add(sched[len(sched)/2])))
		_, err := pub.publish(ctx, 2)
		pubErr <- err
	}()
	res := openLoop(ctx, conns, start, sched, func(ctx context.Context, c *conn, i int) {
		c.record(openStream[i], c.get(ctx, discoverURL(srv.base, openStream[i])))
	})
	if err := <-pubErr; err != nil {
		return nil, nil, fmt.Errorf("mid-run publish: %w", err)
	}
	swapped := 0
	for _, c := range conns {
		swapped += c.drain(t, gen.g, 1, 2)
	}
	if swapped == 0 {
		t.fail("no response carried the epoch published mid-run")
	}
	// Two readings, two forced collections: the second drops what sync.Pool
	// keeps for one cycle (see liveHeapMiB).
	if _, err := srv.memStats(ctx, conns[0]); err != nil {
		return nil, nil, err
	}
	mem, err := srv.memStats(ctx, conns[0])
	if err != nil {
		return nil, nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ls := summarize(res.latency)
	late := summarize(res.genLate)
	notes := []string{
		fmt.Sprintf("setup_s per set-up %s", fmtFloats(setups, 3)),
		fmt.Sprintf("capacity: replies per second in %v windows over %d connections %s", capacityWindow, len(conns), fmtFloats(rates, 1)),
		fmt.Sprintf("open loop: %d requests at %.0f/s, p50 %.4g ms, tail p%g %.4g ms (%d samples beyond), max %.4g ms, %d found every connection busy",
			ls.N, serveRate, ls.P50, ls.TailP*100, ls.Tail, beyond(ls.N, ls.TailP), ls.Max, res.backlogged),
		lateNote(late),
	}
	return metrics{
		"setup_s": median(setups),
		"qps":     median(rates),
		"p50_ms":  ls.P50,
		"tail_ms": ls.Tail,
		"heap_mb": float64(mem.heapAlloc) / (1 << 20),
	}, notes, nil
}

// lateGenLimitMs is the generator lateness p99 beyond which a run is
// flagged: latencies then include the generator's own delay.
const lateGenLimitMs = 5.0

func lateNote(late latencySummary) string {
	p99 := quantile(late.Sorted, 0.99)
	if p99 > lateGenLimitMs {
		return fmt.Sprintf("FLAG: load generator ran late (send lateness p99 %.3g ms > %.3g ms over %d idle dispatches)", p99, lateGenLimitMs, late.N)
	}
	return fmt.Sprintf("load generator on time: send lateness p99 %.3g ms over %d idle dispatches", p99, late.N)
}
