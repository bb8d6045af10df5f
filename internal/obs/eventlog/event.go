// Package eventlog is the per-query record and everything that keeps it:
// every query the serving stack answers is condensed into one canonical wide
// Event — trace ID, epoch, variant, normalized expression and predicate key,
// per-plan-step durations, outcomes and stage spans, adaptive early-stop
// stats, cache disposition, status, duration, and a compact result
// fingerprint — serialized as one JSONL line into a size-rotated,
// fsync-on-rotate log. The log survives crashes (a torn final line is
// skipped on replay, nothing before it is lost), sampling is a deterministic
// function of the trace ID (the kept set replays identically), and the same
// Event feeds the in-process streaming aggregator behind /debug/querystats
// and the exemplar-carrying /metrics series, the flight rings behind
// /debug/queries, and the per-query log line. cmd/codlog reads the log
// offline.
package eventlog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/codsearch/cod/internal/obs"
)

// Event outcome vocabulary: the closed classification every event carries
// and the aggregator groups by.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeCanceled = "canceled"
)

// Span is one stage span inside an Event: the stage that ran, its wall
// time, and the units it processed.
type Span struct {
	Stage string `json:"stage"`
	DurNS int64  `json:"dur_ns"`
	Items int64  `json:"items,omitempty"`
}

// Step is one plan step inside an Event: what ran, what it decided, how long
// it took, and the stage spans recorded while it ran.
type Step struct {
	Variant string `json:"variant"`
	Kind    string `json:"kind"`
	Outcome string `json:"outcome"`
	DurNS   int64  `json:"dur_ns"`
	// Stages and Gap carry a bounded-error adaptive sample step's realized
	// stage count and certified margin; absent for non-staged steps.
	Stages int     `json:"stages,omitempty"`
	Gap    float64 `json:"gap,omitempty"`
	Spans  []Span  `json:"spans,omitempty"`
}

// Adaptive summarizes a query's bounded-error staged evaluation: the stage
// its rank-k decision landed on, the certified normalized gap (the realized
// ε), and whether it stopped before exhausting the budget.
type Adaptive struct {
	Stages    int     `json:"stages"`
	Gap       float64 `json:"gap"`
	EarlyStop bool    `json:"early_stop"`
}

// Result is the compact fingerprint of a discover answer: enough to diff a
// replay without storing the member list. NodesFNV is NodesSum over the
// community's sorted members.
type Result struct {
	Found    bool   `json:"found"`
	Rank     int    `json:"rank,omitempty"`
	Size     int    `json:"size"`
	NodesFNV string `json:"nodes_fnv,omitempty"`
}

// Event is the canonical wide event of one served query — the single record
// the sink persists, the aggregator digests, the flight rings retain, and
// codlog analyzes. One query, one line; every field an after-the-fact
// investigation needs rides in it. An Event is immutable once handed to any
// of them: they read it from different goroutines.
type Event struct {
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
	// Op is the serving route ("/discover", "/batch", ...) or the CLI
	// operation that produced the event.
	Op    string `json:"op"`
	Epoch uint64 `json:"epoch"`
	// Variant is the plan variant that answered ("CODL", ...); Expr the
	// normalized expression for expression-mode queries; Pred the
	// aggregation key of the predicate ("attr:<id>", the 16-hex DNF hash,
	// or "none").
	Variant string `json:"variant,omitempty"`
	Expr    string `json:"expr,omitempty"`
	Pred    string `json:"pred,omitempty"`
	// Node and Attr are the query arguments (-1 when the op has none, e.g.
	// a batch request).
	Node int64 `json:"node"`
	Attr int64 `json:"attr"`
	// Seed is the per-query seed as a decimal string (JSON numbers lose
	// precision above 2^53); it is what makes the event replayable. Empty
	// when the query never drew a seed (rejected input, batch requests).
	Seed    string `json:"seed,omitempty"`
	Status  int    `json:"status,omitempty"`
	Outcome string `json:"outcome"`
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
	// Query is the raw request query string, kept only when the outcome is
	// not ok, so a rejected request still shows what was asked.
	Query string `json:"query,omitempty"`
	// Slow marks an event at or over the serving process's -slow-query
	// threshold.
	Slow bool `json:"slow,omitempty"`
	// Cache is the sample-cache disposition ("hit", "miss", "" when the
	// query never consulted the cache).
	Cache string `json:"cache,omitempty"`
	Steps []Step `json:"steps,omitempty"`
	// Spans are the stage spans no step claimed (offline stages, spans
	// recorded outside the step loop).
	Spans    []Span    `json:"spans,omitempty"`
	Adaptive *Adaptive `json:"adaptive,omitempty"`
	Result   *Result   `json:"result,omitempty"`
}

// Dur returns the event's duration.
func (e *Event) Dur() time.Duration { return time.Duration(e.DurNS) }

// PredKey returns the event's predicate aggregation key, never empty:
// "none" stands in for events without one.
func (e *Event) PredKey() string {
	if e.Pred == "" {
		return "none"
	}
	return e.Pred
}

// VariantKey returns the event's variant aggregation key, never empty.
func (e *Event) VariantKey() string {
	if e.Variant == "" {
		return "none"
	}
	return e.Variant
}

// OutcomeForStatus classifies an HTTP status into the event outcome
// vocabulary: 2xx/3xx ok, 503/504 canceled (shutdown and deadline expiry —
// the statuses queryError maps context errors to), everything else error.
func OutcomeForStatus(status int) string {
	switch {
	case status < 400:
		return OutcomeOK
	case status == 503 || status == 504:
		return OutcomeCanceled
	default:
		return OutcomeError
	}
}

// New assembles an Event from a finished query's trace: trace ID, seed,
// plan steps with their stage spans, the adaptive summary (from the staged
// sample step, when one ran), and the cache disposition (from the sample
// step's outcome). A span belongs to the first step whose [SpanStart,
// SpanEnd) range holds it; spans no step claims go to the top level. The
// caller fills the serving-context fields (Epoch, Expr, Pred, Node, Attr,
// Query, Slow, Result) it alone knows. tr may be nil.
func New(tr *obs.Trace, op string, start time.Time, d time.Duration, status int) *Event {
	e := &Event{
		Op:      op,
		Time:    start,
		Status:  status,
		Outcome: OutcomeForStatus(status),
		DurNS:   int64(d),
		Node:    -1,
		Attr:    -1,
	}
	if tr == nil {
		return e
	}
	e.TraceID = tr.ID()
	if seed, ok := tr.Seed(); ok {
		e.Seed = strconv.FormatUint(seed, 10)
	}
	spans := tr.Spans()
	claimed := make([]bool, len(spans))
	steps := tr.Steps()
	if len(steps) > 0 {
		e.Variant = steps[0].Variant
		e.Steps = make([]Step, len(steps))
	}
	for i, st := range steps {
		step := Step{
			Variant: st.Variant,
			Kind:    st.Kind,
			Outcome: st.Outcome,
			DurNS:   int64(st.Duration),
			Stages:  st.Stages,
			Gap:     st.Gap,
		}
		for j := max(st.SpanStart, 0); j < min(st.SpanEnd, len(spans)); j++ {
			if !claimed[j] {
				claimed[j] = true
				step.Spans = append(step.Spans, spanOf(spans[j]))
			}
		}
		e.Steps[i] = step
		switch st.Outcome {
		case "cache_hit":
			e.Cache = "hit"
		case "cache_miss":
			e.Cache = "miss"
		}
		if st.Stages > 0 && e.Adaptive == nil {
			e.Adaptive = &Adaptive{
				Stages:    st.Stages,
				Gap:       st.Gap,
				EarlyStop: st.Outcome == "early_stop",
			}
		}
	}
	for j, sp := range spans {
		if !claimed[j] {
			e.Spans = append(e.Spans, spanOf(sp))
		}
	}
	return e
}

func spanOf(s obs.SpanRecord) Span {
	return Span{Stage: s.Stage.String(), DurNS: int64(s.Duration), Items: s.Items}
}

// Summary renders the event as one line: what codlog tail prints, the first
// line of WriteText, and the body of codserve's per-query log line.
func (e *Event) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s trace=%s epoch=%d variant=%s pred=%s",
		e.Time.Format(time.RFC3339Nano), e.Op, e.TraceID, e.Epoch, e.VariantKey(), e.PredKey())
	if e.Node >= 0 {
		fmt.Fprintf(&b, " node=%d", e.Node)
	}
	fmt.Fprintf(&b, " outcome=%s", e.Outcome)
	if e.Status != 0 {
		fmt.Fprintf(&b, " status=%d", e.Status)
	}
	fmt.Fprintf(&b, " dur=%s", e.Dur())
	if e.Expr != "" {
		fmt.Fprintf(&b, " expr=%q", e.Expr)
	}
	if e.Query != "" {
		fmt.Fprintf(&b, " query=%q", e.Query)
	}
	if e.Cache != "" {
		fmt.Fprintf(&b, " cache=%s", e.Cache)
	}
	if a := e.Adaptive; a != nil {
		fmt.Fprintf(&b, " adaptive_stages=%d adaptive_gap=%.4f adaptive_early_stop=%t", a.Stages, a.Gap, a.EarlyStop)
	}
	if res := e.Result; res != nil {
		fmt.Fprintf(&b, " found=%t size=%d nodes_fnv=%s", res.Found, res.Size, res.NodesFNV)
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " err=%q", e.Err)
	}
	if e.Slow {
		b.WriteString(" SLOW")
	}
	return b.String()
}

// WriteText renders the event as its Summary line followed by one line per
// plan step with the step's stage spans indented under it, then the spans
// no step claimed: the form /debug/queries?format=text, codlog grep and
// codquery -trace print.
func (e *Event) WriteText(w io.Writer) {
	fmt.Fprintln(w, e.Summary())
	for _, st := range e.Steps {
		fmt.Fprintf(w, "  step %s/%s outcome=%s dur=%s", st.Variant, st.Kind, st.Outcome, time.Duration(st.DurNS))
		if st.Stages > 0 {
			fmt.Fprintf(w, " stages=%d gap=%.4f", st.Stages, st.Gap)
		}
		fmt.Fprintln(w)
		writeSpans(w, "    ", st.Spans)
	}
	writeSpans(w, "  ", e.Spans)
}

func writeSpans(w io.Writer, indent string, spans []Span) {
	for _, sp := range spans {
		fmt.Fprintf(w, "%sspan %s dur=%s items=%d\n", indent, sp.Stage, time.Duration(sp.DurNS), sp.Items)
	}
}

// NodesSum fingerprints a community's member list as the 16-hex FNV-64a of
// the node IDs in slice order (discover answers are sorted ascending, so
// equal communities hash equally). An empty list hashes to the FNV offset
// basis, distinguishing "found an empty set" from "no result recorded".
func NodesSum(nodes []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range nodes {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
