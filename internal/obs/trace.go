package obs

import (
	"sync"
	"time"
)

// Stage identifies one instrumented phase of a COD query or offline build.
// Stages are a closed enum so per-stage metrics can live in fixed arrays
// (no map lookups on the hot path) and metric names stay label-free.
type Stage int

// The instrumented stages, in rough pipeline order.
const (
	// StageHACMerge is the agglomerative merge loop (offline clustering and
	// LORE/CODR reclustering alike).
	StageHACMerge Stage = iota
	// StageLoreScore is LORE's reclustering-score sweep over H(q).
	StageLoreScore
	// StageRRSample is RR-graph sampling: shared batches, parallel offline
	// pools, and the restricted per-query loop.
	StageRRSample
	// StageRRInduce is the HFS pass inducing RR graphs into chain buckets
	// (stage 1 of the compressed evaluation).
	StageRRInduce
	// StageTopKSweep is the incremental top-k sweep over the buckets
	// (stage 2 of the compressed evaluation).
	StageTopKSweep
	// StageHimorLookup is the top-down HIMOR index scan of a CODL query.
	StageHimorLookup
	// StageHimorBuild is the offline HIMOR index construction.
	StageHimorBuild
	// NumStages bounds the enum; it is not a stage.
	NumStages
)

var stageNames = [NumStages]string{
	StageHACMerge:    "hac_merge",
	StageLoreScore:   "lore_score",
	StageRRSample:    "rr_sample",
	StageRRInduce:    "rr_induce",
	StageTopKSweep:   "topk_sweep",
	StageHimorLookup: "himor_lookup",
	StageHimorBuild:  "himor_build",
}

// String returns the snake_case stage name used in metric names and logs.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// SpanRecord is one completed stage span within a Trace.
type SpanRecord struct {
	// Stage names the instrumented phase.
	Stage Stage
	// Duration is the span's wall-clock time.
	Duration time.Duration
	// Items counts the units the stage processed (RR samples drawn, bucket
	// entries produced, index vertices scanned, merges performed); 0 when
	// the stage has no natural unit or was canceled before producing any.
	Items int64
}

// StepRecord is one completed plan step within a Trace — the layer above
// stage spans: where a SpanRecord says "rr_sample took 3ms", a StepRecord
// says "the CODL sample step was a cache miss". Variant and Kind are the
// engine's names (CODL, index_probe, ...) carried as strings so obs stays
// free of an engine dependency.
type StepRecord struct {
	// Variant is the plan variant executing the step (CODU/CODR/CODL/CODL⁻).
	Variant string
	// Kind is the plan step kind (weight, index_probe, chain, sample,
	// evaluate, extract).
	Kind string
	// Outcome classifies what the step did: hit/miss for index probes,
	// cache_hit/cache_miss/sampled for sampling, canceled/error on failure.
	Outcome string
	// Duration is the step's wall-clock time.
	Duration time.Duration
	// SpanStart and SpanEnd delimit the half-open index range [SpanStart,
	// SpanEnd) of this trace's span slice recorded while the step ran. For a
	// single-threaded query the range is exactly the step's nested stage
	// spans; under a concurrent batch sharing one Trace it is approximate
	// (spans from sibling workers may interleave).
	SpanStart, SpanEnd int
	// Stages is the number of sampling stages a bounded-error adaptive
	// sample step realized before its decision (early_stop/exhausted);
	// 0 for every non-staged step.
	Stages int
	// Gap is the certified normalized influence gap an adaptive sample step
	// stopped on (the smallest decisive per-level margin); 0 when the step
	// is not staged or exhausted the budget without certifying.
	Gap float64
}

// Trace collects the stage spans of one query (or one offline build). It is
// safe for concurrent use: batch queries record spans from several workers.
// A canceled query still flushes the spans it completed — the trace is
// whatever actually ran, which is exactly what an operator debugging a
// timeout needs.
type Trace struct {
	mu    sync.Mutex
	id    string
	seed  uint64
	seedO bool
	spans []SpanRecord
	steps []StepRecord
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) add(rec SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

func (t *Trace) addStep(rec StepRecord) {
	t.mu.Lock()
	t.steps = append(t.steps, rec)
	t.mu.Unlock()
}

// EnsureID sets the trace ID if none is set yet and reports whether id is
// now the trace's ID. First writer wins: a serving front end that parsed a
// traceparent header installs the caller's ID before the query runs, and
// the library's later seed-derived EnsureID becomes a no-op.
func (t *Trace) EnsureID(id string) bool {
	if t == nil || id == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id == "" {
		t.id = id
	}
	return t.id == id
}

// SetSeed records the query seed the trace's work was derived from. First
// writer wins, mirroring EnsureID: a batch sharing one trace keeps the seed
// of its first query. The seed is what makes a logged query replayable — a
// propagated traceparent may own the ID, but the seed still identifies the
// deterministic stream the query consumed.
func (t *Trace) SetSeed(seed uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.seedO {
		t.seed, t.seedO = seed, true
	}
	t.mu.Unlock()
}

// Seed returns the recorded query seed and whether one was set.
func (t *Trace) Seed() (uint64, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seed, t.seedO
}

// ID returns the trace ID, or "" when none was assigned.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Steps returns a copy of the recorded plan steps in completion order.
func (t *Trace) Steps() []StepRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StepRecord, len(t.steps))
	copy(out, t.steps)
	return out
}

// Spans returns a copy of the recorded spans in completion order.
func (t *Trace) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
