// Command codquery answers a single COD query on a graph file or a built-in
// synthetic dataset and prints the characteristic community with its
// quality measures.
//
// The -q flag accepts either a numeric node id, which runs CODL on the
// single attribute -attr, or a query expression in the attribute-predicate
// DSL, which carries its own node= knob and names any other variant with
// variant=:
//
//	codquery -dataset cora -q 42 -attr 1 -k 5
//	codquery -graph mygraph.txt -q '0 and node=10 and variant=codr'
//	codquery -dataset cora -q 'Neural_Networks and (Theory or 4) and size>=10 and node=42'
//	codquery -dataset tiny -q 'ML and node=5' -json
//
// The -method flag is retired: passing it fails with the expression that
// replaces it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/obs/eventlog"
)

func main() {
	var o runOpts
	flag.StringVar(&o.graphFile, "graph", "", "graph file in cod text format (overrides -dataset)")
	flag.StringVar(&o.dataset, "dataset", "cora", "built-in dataset name")
	flag.StringVar(&o.query, "q", "0", "query node id, or a query expression (predicate, filters, node=/k=/variant= knobs)")
	flag.IntVar(&o.attr, "attr", -1, "query attribute id for a numeric -q (-1: first attribute of q)")
	flag.IntVar(&o.k, "k", 5, "required influence rank k")
	flag.IntVar(&o.theta, "theta", 10, "RR graphs per node (θ)")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed")
	flag.Func("method", "retired: name the variant in a query expression (-q 'ATTR and node=N and variant=codr')", retiredMethod)
	flag.BoolVar(&o.trace, "trace", false, "print the query's plan-step trace (trace ID, step outcomes, stage spans)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the result as one JSON object (community, rank, trace id)")
	timeout := flag.Duration("timeout", 0, "overall deadline for offline build + query (0 = none)")
	adaptiveEps := flag.Float64("adaptive-eps", 0.05, "indifference width ε for bounded-error adaptive sampling (used when -adaptive-delta > 0)")
	adaptiveDelta := flag.Float64("adaptive-delta", 0, "certification failure probability δ; > 0 enables bounded-error adaptive sampling")
	flag.Parse()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	o.adaptive = cod.AdaptiveOptions{Enabled: *adaptiveDelta > 0, Eps: *adaptiveEps, Delta: *adaptiveDelta}
	if err := run(ctx, o); err != nil {
		var ce *cod.CanceledError
		var pe *cod.ParseError
		switch {
		case errors.As(err, &ce):
			fmt.Fprintf(os.Stderr, "codquery: deadline expired during %s after %d/%d samples\n",
				ce.Op, ce.Done, ce.Total)
		case errors.As(err, &pe):
			fmt.Fprintf(os.Stderr, "codquery: %v\n%s\n", pe, pe.Caret())
		default:
			fmt.Fprintln(os.Stderr, "codquery:", err)
		}
		os.Exit(1)
	}
}

// runOpts bundles codquery's invocation: flags plus the output sink (nil =
// stdout), so tests drive run without a process.
type runOpts struct {
	graphFile string
	dataset   string
	query     string // numeric node id or DSL expression
	attr      int
	k         int
	theta     int
	seed      uint64
	trace     bool
	jsonOut   bool
	adaptive  cod.AdaptiveOptions
	out       io.Writer
}

// jsonResult is the -json output shape: one object per query.
type jsonResult struct {
	Query       int          `json:"query"`
	Expr        string       `json:"expr,omitempty"`
	Method      string       `json:"method"`
	Found       bool         `json:"found"`
	Rank        int          `json:"rank,omitempty"`
	TraceID     string       `json:"trace_id"`
	Size        int          `json:"size"`
	Nodes       []cod.NodeID `json:"nodes,omitempty"`
	Density     float64      `json:"density"`
	AttrDensity *float64     `json:"attr_density,omitempty"`
	Conductance float64      `json:"conductance"`
	FromIndex   bool         `json:"from_index,omitempty"`
	ElapsedMS   float64      `json:"elapsed_ms"`
	Adaptive    *adaptiveOut `json:"adaptive,omitempty"`
}

// adaptiveOut surfaces a bounded-error staged run's realized statistics:
// the stage the rank-k decision landed on, the certified normalized gap
// (the realized ε), whether it stopped early, and the RR samples it
// actually consumed against the full budget it was allowed.
type adaptiveOut struct {
	Stages        int     `json:"stages"`
	Gap           float64 `json:"gap"`
	EarlyStop     bool    `json:"early_stop"`
	SamplesUsed   int64   `json:"samples_used"`
	SamplesBudget int64   `json:"samples_budget"`
}

// adaptiveStats extracts the staged sample step's stats from the trace (nil
// when the query ran no staged step — adaptive off, or answered by an index
// probe before sampling).
func adaptiveStats(tr *obs.Trace, qm *obs.QueryMetrics) *adaptiveOut {
	if tr == nil {
		return nil
	}
	for _, st := range tr.Steps() {
		if st.Stages == 0 {
			continue
		}
		a := &adaptiveOut{Stages: st.Stages, Gap: st.Gap, EarlyStop: st.Outcome == "early_stop"}
		if qm != nil {
			a.SamplesUsed = qm.AdaptiveSamplesUsed.Value()
			a.SamplesBudget = qm.AdaptiveSamplesBudget.Value()
		}
		return a
	}
	return nil
}

func run(ctx context.Context, o runOpts) error {
	out := o.out
	if out == nil {
		out = os.Stdout
	}
	var (
		g   *cod.Graph
		err error
	)
	if o.graphFile != "" {
		f, err := os.Open(o.graphFile)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = cod.LoadGraph(f)
		if err != nil {
			return err
		}
	} else {
		g, err = cod.GenerateDataset(o.dataset, o.seed)
		if err != nil {
			return err
		}
	}

	// Dual-mode -q: an integer is the legacy node id; anything else is a
	// query expression (mode decided before any offline work).
	nodeArg, nodeErr := strconv.Atoi(o.query)
	legacy := nodeErr == nil
	attr := o.attr
	if legacy {
		if nodeArg < 0 || nodeArg >= g.N() {
			return fmt.Errorf("query node %d out of range [0,%d)", nodeArg, g.N())
		}
		if attr < 0 {
			attrs := g.Attrs(cod.NodeID(nodeArg))
			if len(attrs) == 0 {
				return fmt.Errorf("node %d has no attributes; pass -attr", nodeArg)
			}
			attr = int(attrs[0])
		}
	}

	if !o.jsonOut {
		fmt.Fprintf(out, "graph: n=%d m=%d attrs=%d\n", g.N(), g.M(), g.NumAttrs())
	}
	start := time.Now()
	s, err := cod.NewSearcherCtx(ctx, g, cod.Options{K: o.k, Theta: o.theta, Seed: o.seed, Adaptive: o.adaptive})
	if err != nil {
		return err
	}
	if !o.jsonOut {
		fmt.Fprintf(out, "offline (clustering + HIMOR): %v, index %0.2f MB\n",
			time.Since(start).Round(time.Millisecond), float64(s.IndexBytes())/(1<<20))
	}

	method, expr := "codl", ""
	var pq *cod.PreparedQuery
	node := cod.NodeID(nodeArg)
	if !legacy {
		if pq, err = s.Prepare(o.query); err != nil {
			return err
		}
		n, ok := pq.Node()
		if !ok {
			return fmt.Errorf("query expression needs a node= knob (e.g. %q)", o.query+" and node=0")
		}
		node, expr = n, pq.Expr()
		method = toLowerASCII(pq.Variant())
	}

	// The trace is attached for -trace (printed breakdown) and for -json
	// (trace id field); instrumentation never changes the answer. The
	// metrics bundle rides along on a private registry so adaptive runs can
	// report their realized sample budget — it sees only this query.
	var tr *obs.Trace
	var qm *obs.QueryMetrics
	qctx := ctx
	if o.trace || o.jsonOut {
		tr = obs.NewTrace()
		qm = obs.NewQueryMetrics(obs.NewRegistry())
		qctx = obs.WithRecorder(ctx, obs.NewRecorder(qm, tr))
	}
	start = time.Now()
	var com cod.Community
	if pq != nil {
		com, err = pq.DiscoverCtx(qctx, node)
	} else {
		com, err = s.DiscoverCtx(qctx, node, cod.AttrID(attr))
	}
	elapsed := time.Since(start)
	if o.trace && tr != nil {
		fmt.Fprintln(out, "query trace:")
		ev := eventlog.New(tr, "codquery", start, elapsed, 0)
		ev.Expr, ev.Node = expr, int64(node)
		if expr == "" {
			ev.Attr, ev.Pred = int64(attr), "attr:"+strconv.Itoa(attr)
		}
		if err != nil {
			ev.Err, ev.Outcome = err.Error(), eventlog.OutcomeError
			if ctx.Err() != nil {
				ev.Outcome = eventlog.OutcomeCanceled
			}
		}
		ev.WriteText(out)
		if a := adaptiveStats(tr, qm); a != nil {
			fmt.Fprintf(out, "adaptive: stages=%d realized_eps=%.4f early_stop=%t samples=%d/%d",
				a.Stages, a.Gap, a.EarlyStop, a.SamplesUsed, a.SamplesBudget)
			if a.SamplesBudget > 0 {
				fmt.Fprintf(out, " (%d%% of budget)", 100*a.SamplesUsed/a.SamplesBudget)
			}
			fmt.Fprintln(out)
		}
	}
	if err != nil {
		// Partial progress surfaces uniformly for every variant: the typed
		// *cod.CanceledError (with done/total sample counts) propagates to
		// main's printer whether the query ran CODL, CODU, CODR or a staged
		// adaptive plan.
		return err
	}

	if o.jsonOut {
		res := jsonResult{Query: int(node), Expr: expr, Method: method, Found: com.Found,
			Rank: com.Rank, TraceID: tr.ID(), Size: com.Size(), Nodes: com.Nodes,
			FromIndex: com.FromIndex, ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			Adaptive: adaptiveStats(tr, qm)}
		if com.Found {
			res.Density = g.TopologyDensity(com.Nodes)
			res.Conductance = g.Conductance(com.Nodes)
			if legacy {
				ad := g.AttributeDensity(com.Nodes, cod.AttrID(attr))
				res.AttrDensity = &ad
			}
		}
		enc := json.NewEncoder(out)
		return enc.Encode(res)
	}

	if !com.Found {
		fmt.Fprintf(out, "no characteristic community: node %d is not top-%d influential in any hierarchy community (%v)\n", node, o.k, elapsed.Round(time.Microsecond))
		return nil
	}
	if expr != "" {
		fmt.Fprintf(out, "characteristic community of node %d (query %s, %s): %d nodes in %v\n",
			node, expr, method, com.Size(), elapsed.Round(time.Microsecond))
	} else {
		fmt.Fprintf(out, "characteristic community of node %d (attr %d, k=%d, %s): %d nodes in %v\n",
			node, attr, o.k, method, com.Size(), elapsed.Round(time.Microsecond))
	}
	fmt.Fprintf(out, "  topology density  ρ = %.4f\n", g.TopologyDensity(com.Nodes))
	if legacy {
		fmt.Fprintf(out, "  attribute density φ = %.4f\n", g.AttributeDensity(com.Nodes, cod.AttrID(attr)))
	}
	fmt.Fprintf(out, "  conductance         = %.4f\n", g.Conductance(com.Nodes))
	if com.Rank > 0 {
		fmt.Fprintf(out, "  influence rank      = %d\n", com.Rank)
	}
	if com.FromIndex {
		fmt.Fprintln(out, "  answered directly from the HIMOR index")
	}
	if com.Size() <= 40 {
		fmt.Fprintf(out, "  members: %v\n", com.Nodes)
	}
	return nil
}

// retiredMethod rejects the retired -method flag, naming the query
// expression that picks the variant instead.
func retiredMethod(v string) error {
	expr := "ATTR and node=N and variant=codr"
	switch v {
	case "codl", "codr":
		expr = "ATTR and node=N and variant=" + v
	case "codu":
		expr = "node=N and variant=codu"
	}
	return fmt.Errorf("-method is retired; name the variant in a query expression instead, e.g. -q '%s'", expr)
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
