// Command perfbench is the repository's benchmark. It runs one workload at
// steady state and prints, as the last line of standard output, one JSON
// object with the run's correctness and its metrics:
//
//	perfbench -workload batch-dblp -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 a separate traced run times each layer from the
// outside and prints the per-layer metrics. run.sh builds codserve and this
// command from the checkout and passes -codserve and -workdir; see
// README.md for the workloads and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

const (
	// datasetSeed keeps every workload on the registry stand-ins the paper
	// reproduction uses; the workload seed draws queries, not graphs.
	datasetSeed = 42
	// defaultSeed is the seed whose answer digests digests.json records.
	defaultSeed = 1
	// A run sets its workload up at least minSetups times, and again while
	// its set-ups so far took less than setupBudget seconds in all, up to
	// maxSetups; setup_s is the median. A cheap set-up, which one slow
	// moment of the machine can double, is timed more often.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4.0
)

// moreSetups reports whether a run that has timed these set-ups runs
// another.
func moreSetups(times []float64) bool {
	var total float64
	for _, t := range times {
		total += t
	}
	return len(times) < minSetups || (len(times) < maxSetups && total < setupBudget)
}

//go:embed digests.json
var digestsJSON []byte

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run prints, all measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics a -trace 1 run prints. A workload that does not
// run a layer reports 0 for it.
var perLayer = []metricDef{
	{"codserve.overhead_ms", "ms"},
	{"codserve.resp_kb", "KiB"},
	{"codserve.ready_s", "s"},
	{"codserve.swap_s", "s"},
	{"eventlog.bytes_per_query", "bytes"},
	{"blobstore.publish_s", "s"},
	{"blobstore.fetch_s", "s"},
	{"cod.load_s", "s"},
	{"cod.snapshot_kb", "KiB"},
	{"cod.prepare_us", "us"},
	{"cod.batch_scaling", "ratio"},
	{"dataset.gen_s", "s"},
	{"hac.cluster_s", "s"},
	{"hac.recluster_ms", "ms"},
	{"core.himor_build_s", "s"},
	{"core.himor_mb", "MiB"},
	{"engine.compile_us", "us"},
	{"engine.execute_ms", "ms"},
	{"engine.execute_p99_ms", "ms"},
	{"core.lore_ms", "ms"},
	{"core.lore_members", "count"},
	{"core.probe_us", "us"},
	{"core.probe_hit_frac", "ratio"},
	{"core.chain_us", "us"},
	{"influence.sample_ms", "ms"},
	{"influence.rr_graphs", "count"},
	{"influence.rr_nodes", "count"},
	{"core.eval_ms", "ms"},
	{"core.eval_buckets", "count"},
	{"engine.cache_hit_frac", "ratio"},
	{"engine.cache_rrgraphs", "count"},
	{"engine.scratch_allocated", "count"},
	{"runtime.alloc_kb_per_query", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MiB"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// config is one run's settings.
type config struct {
	workload string
	def      *workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	codserve string
	workdir  string
	nproc    int
}

// tally counts attempted and failed operations; the first few failure
// reasons are kept for the summary.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	reasons   []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(reason string) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, reason)
	}
	t.mu.Unlock()
}

// check counts one answer as attempted and, when reason is non-empty,
// failed.
func (t *tally) check(reason string) {
	if reason == "" {
		t.ok()
		return
	}
	t.fail(reason)
}

// metrics maps metric names to values; units come from the definitions.
type metrics map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the summary lines and the result object, last.
func report(cfg *config, t *tally, m metrics, notes []string) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := resultOut{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: map[string]metricOut{}}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	fmt.Printf("# workload %s seed %d trace %t nproc %d\n", cfg.workload, cfg.seed, cfg.trace, cfg.nproc)
	for _, n := range notes {
		fmt.Printf("# %s\n", n)
	}
	for _, d := range defs {
		v := m[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("# %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fail := 0.0
	if out.Attempted > 0 {
		fail = float64(out.Failed) / float64(out.Attempted)
	}
	fmt.Printf("# fail_frac %.6g (%d of %d operations)\n", fail, out.Failed, out.Attempted)
	for _, r := range t.reasons {
		fmt.Printf("# failure: %s\n", r)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// recordedDigest returns the digest digests.json records for the workload
// at the default seed, "" when it records none.
func recordedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[workload], nil
}

// checkDigest applies the determinism contract at the default seed: a
// digest other than the recorded one fails every query of the run. Call it
// after the run's last query.
func checkDigest(cfg *config, t *tally, got string, notes *[]string) error {
	*notes = append(*notes, fmt.Sprintf("answer digest %s", got))
	if cfg.seed != defaultSeed {
		return nil
	}
	want, err := recordedDigest(cfg.workload)
	if err != nil {
		return err
	}
	if want == "" {
		*notes = append(*notes, "digests.json records no digest for this workload")
		return nil
	}
	if want != got {
		t.failed.Store(t.attempted.Load())
		t.mu.Lock()
		t.reasons = append(t.reasons, fmt.Sprintf("answer digest %s, digests.json records %s", got, want))
		t.mu.Unlock()
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed (query draws, arrival times, Options.Seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the capacity phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	flag.StringVar(&cfg.codserve, "codserve", "", "codserve binary (serve-cora)")
	flag.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for per-run temp dirs")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	cfg.def = workloads[cfg.workload]
	if cfg.def == nil || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		t     tally
		m     metrics
		notes []string
		err   error
	)
	switch {
	case cfg.workload == "serve-cora" && cfg.trace:
		m, notes, err = traceServe(ctx, &cfg, &t)
	case cfg.workload == "serve-cora":
		m, notes, err = runServe(ctx, &cfg, &t)
	case cfg.trace:
		m, notes, err = traceBatch(ctx, &cfg, &t)
	default:
		m, notes, err = runBatch(ctx, &cfg, &t)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(&cfg, &t, m, notes)
}
