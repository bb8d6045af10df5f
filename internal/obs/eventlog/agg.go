package eventlog

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"github.com/codsearch/cod/internal/obs"
)

// Key identifies one aggregation group: every event lands in exactly one
// (variant, predicate-key, outcome) cell.
type Key struct {
	Variant string
	Pred    string
	Outcome string
}

type exemplar struct {
	traceID string
	seconds float64
}

// group is the streaming digest of one Key: a fixed-bucket latency
// histogram with the latest exemplar trace per bucket, per-step-kind time
// totals, and the running max.
type group struct {
	count     int64
	sumSec    float64
	maxSec    float64
	buckets   []int64    // len(bounds)+1; last is +Inf
	exemplars []exemplar // parallel to buckets; zero traceID = none yet
	stepSec   map[string]float64
}

// Aggregator maintains streaming per-(variant, pred, outcome) latency and
// step-time digests over the event stream, each bucket carrying its most
// recent exemplar trace ID. It backs /debug/querystats (Snapshot) and the
// exemplar-annotated cod_query_event_seconds /metrics family
// (WriteMetrics). Memory is bounded by the number of distinct keys, which
// the closed variant/outcome vocabularies and the canonical predicate
// hashing keep proportional to real query shapes.
type Aggregator struct {
	mu     sync.Mutex
	bounds []float64
	groups map[Key]*group
}

// NewAggregator returns an empty aggregator over the standard latency
// buckets.
func NewAggregator() *Aggregator {
	return &Aggregator{bounds: obs.DefaultLatencyBuckets, groups: map[Key]*group{}}
}

// Observe folds one event into its group's digest.
func (a *Aggregator) Observe(e *Event) {
	if a == nil || e == nil {
		return
	}
	key := Key{Variant: e.VariantKey(), Pred: e.PredKey(), Outcome: e.Outcome}
	sec := e.Dur().Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	g := a.groups[key]
	if g == nil {
		g = &group{
			buckets:   make([]int64, len(a.bounds)+1),
			exemplars: make([]exemplar, len(a.bounds)+1),
			stepSec:   map[string]float64{},
		}
		a.groups[key] = g
	}
	i := 0
	for i < len(a.bounds) && sec > a.bounds[i] {
		i++
	}
	g.buckets[i]++
	if e.TraceID != "" {
		g.exemplars[i] = exemplar{traceID: e.TraceID, seconds: sec}
	}
	g.count++
	g.sumSec += sec
	if sec > g.maxSec {
		g.maxSec = sec
	}
	for _, st := range e.Steps {
		g.stepSec[st.Kind] += float64(st.DurNS) / 1e9
	}
}

// StepStat is one step kind's cumulative wall-clock share within a group.
type StepStat struct {
	Kind    string  `json:"kind"`
	TotalMS float64 `json:"total_ms"`
}

// ExemplarRef points an aggregate back at a concrete query: the trace ID to
// grep the event log for, the latency it exemplifies, and the bucket bound
// it sits under.
type ExemplarRef struct {
	TraceID string  `json:"trace_id"`
	MS      float64 `json:"ms"`
	LE      string  `json:"le"`
}

// GroupStats is the JSON snapshot of one aggregation group.
type GroupStats struct {
	Variant   string        `json:"variant"`
	Pred      string        `json:"pred"`
	Outcome   string        `json:"outcome"`
	Count     int64         `json:"count"`
	MeanMS    float64       `json:"mean_ms"`
	P50MS     float64       `json:"p50_ms"`
	P90MS     float64       `json:"p90_ms"`
	P99MS     float64       `json:"p99_ms"`
	MaxMS     float64       `json:"max_ms"`
	Steps     []StepStat    `json:"steps,omitempty"`
	Exemplars []ExemplarRef `json:"exemplars,omitempty"`
}

// quantile interpolates the q-quantile (0 < q < 1) from the bucket counts,
// linearly within the deciding bucket; the open-ended +Inf bucket reports
// the observed max.
func (a *Aggregator) quantile(g *group, q float64) float64 {
	if g.count == 0 {
		return 0
	}
	target := q * float64(g.count)
	var cum int64
	for i, c := range g.buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < target {
			continue
		}
		if i == len(a.bounds) {
			return g.maxSec
		}
		lo := 0.0
		if i > 0 {
			lo = a.bounds[i-1]
		}
		frac := (target - float64(prev)) / float64(c)
		return lo + frac*(a.bounds[i]-lo)
	}
	return g.maxSec
}

// Snapshot returns the groups sorted by (variant, pred, outcome), each with
// interpolated latency percentiles, step-time totals, and its exemplars.
func (a *Aggregator) Snapshot() []GroupStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := a.sortedKeys()
	out := make([]GroupStats, 0, len(keys))
	for _, k := range keys {
		g := a.groups[k]
		gs := GroupStats{
			Variant: k.Variant,
			Pred:    k.Pred,
			Outcome: k.Outcome,
			Count:   g.count,
			MeanMS:  1e3 * g.sumSec / float64(g.count),
			P50MS:   1e3 * a.quantile(g, 0.50),
			P90MS:   1e3 * a.quantile(g, 0.90),
			P99MS:   1e3 * a.quantile(g, 0.99),
			MaxMS:   1e3 * g.maxSec,
		}
		kinds := make([]string, 0, len(g.stepSec))
		for kind := range g.stepSec {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			gs.Steps = append(gs.Steps, StepStat{Kind: kind, TotalMS: 1e3 * g.stepSec[kind]})
		}
		for i, ex := range g.exemplars {
			if ex.traceID == "" {
				continue
			}
			le := "+Inf"
			if i < len(a.bounds) {
				le = formatBound(a.bounds[i])
			}
			gs.Exemplars = append(gs.Exemplars, ExemplarRef{TraceID: ex.traceID, MS: 1e3 * ex.seconds, LE: le})
		}
		out = append(out, gs)
	}
	return out
}

func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns the group keys in (variant, pred, outcome) order.
// Callers hold a.mu.
func (a *Aggregator) sortedKeys() []Key {
	keys := make([]Key, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Variant != keys[j].Variant {
			return keys[i].Variant < keys[j].Variant
		}
		if keys[i].Pred != keys[j].Pred {
			return keys[i].Pred < keys[j].Pred
		}
		return keys[i].Outcome < keys[j].Outcome
	})
	return keys
}

// MetricName is the family WriteMetrics emits; register WriteMetrics under
// it via Registry.Collector.
const MetricName = "cod_query_event_seconds"

// WriteMetrics renders the aggregator as one labeled histogram family in
// the Prometheus text format, each bucket annotated with its latest
// exemplar as an OpenMetrics-style "# {trace_id=...} value" suffix — the
// hook that lets a dashboard's slow bucket link straight to a logged
// query. Matches the Registry.Collector contract: the block includes its
// own # TYPE line and is internally sorted.
func (a *Aggregator) WriteMetrics(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", MetricName); err != nil {
		return err
	}
	a.mu.Lock()
	keys := a.sortedKeys()
	type row struct {
		k         Key
		buckets   []int64
		exemplars []exemplar
		sum       float64
		count     int64
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		g := a.groups[k]
		rows = append(rows, row{
			k:         k,
			buckets:   append([]int64(nil), g.buckets...),
			exemplars: append([]exemplar(nil), g.exemplars...),
			sum:       g.sumSec,
			count:     g.count,
		})
	}
	a.mu.Unlock()

	for _, r := range rows {
		labels := fmt.Sprintf("variant=%q,pred=%q,outcome=%q", r.k.Variant, r.k.Pred, r.k.Outcome)
		var cum int64
		for i, c := range r.buckets {
			cum += c
			le := "+Inf"
			if i < len(a.bounds) {
				le = formatBound(a.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d", MetricName, labels, le, cum); err != nil {
				return err
			}
			if ex := r.exemplars[i]; ex.traceID != "" {
				if _, err := fmt.Fprintf(w, " # {trace_id=%q} %s", ex.traceID, formatBound(ex.seconds)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum{%s} %s\n", MetricName, labels, formatBound(r.sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{%s} %d\n", MetricName, labels, r.count); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP answers GET /debug/querystats with the JSON snapshot. Other
// methods get the JSON 405 the rest of the serving surface uses.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Groups []GroupStats `json:"groups"`
	}{a.Snapshot()})
}
