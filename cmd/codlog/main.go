// Command codlog analyzes the durable query-event log that codserve writes
// under -query-log: one JSONL wide event per query, size-rotated and
// crash-tolerant. It answers the questions the in-memory debug endpoints
// cannot once the process is gone — what ran, which predicate shapes are
// slow, and whether a logged query still reproduces.
//
//	codlog -log DIR tail [-f] [-n 20]       stream events (follow with -f)
//	codlog -log DIR top [-by pred] [-n 10]  hottest groups by count
//	codlog -log DIR percentiles             per-group latency percentiles
//	codlog -log DIR grep TRACE_ID           dump events matching a trace ID
//	codlog -log DIR replay TRACE_ID ...     re-run a logged query and diff it
//
// replay rebuilds a Searcher from the same build inputs the server used
// (-dataset/-graph, -k, -theta, -seed, -sample-cache, adaptive flags must
// match), re-executes the logged query with its logged per-query seed, and
// diffs the community fingerprint and the plan-step outcomes — a
// deterministic end-to-end check that the serving stack still computes what
// it logged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/codsearch/cod/internal/obs/eventlog"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "codlog:", err)
		os.Exit(1)
	}
}

const usage = "usage: codlog -log DIR {tail|top|percentiles|grep|replay} [args]"

// run dispatches one codlog invocation; out receives all normal output so
// tests drive it without a process.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codlog", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	logDir := fs.String("log", "", "query-event log directory (codserve's -query-log)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%v\n%s", err, usage)
	}
	rest := fs.Args()
	if *logDir == "" {
		return errors.New("missing -log DIR\n" + usage)
	}
	if len(rest) == 0 {
		return errors.New(usage)
	}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "tail":
		return runTail(ctx, *logDir, rest, out)
	case "top":
		return runTop(*logDir, rest, out)
	case "percentiles":
		return runPercentiles(*logDir, rest, out)
	case "grep":
		return runGrep(*logDir, rest, out)
	case "replay":
		return runReplay(ctx, *logDir, rest, out)
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

// runTail prints the log's events in write order; -n keeps only the last N,
// and -f then follows the log for new events until interrupted.
func runTail(ctx context.Context, dir string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codlog tail", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	follow := fs.Bool("f", false, "follow the log for new events until interrupted")
	lastN := fs.Int("n", 0, "print only the last N events of the existing log (0 = all)")
	poll := fs.Duration("poll", 250*time.Millisecond, "poll cadence while following")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow {
		return eventlog.Follow(ctx, dir, *poll, func(e *eventlog.Event) error {
			fmt.Fprintln(out, e.Summary())
			return nil
		})
	}
	var kept []*eventlog.Event
	st, err := eventlog.Scan(dir, func(e *eventlog.Event) error {
		kept = append(kept, e)
		if *lastN > 0 && len(kept) > *lastN {
			kept = kept[1:]
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, e := range kept {
		fmt.Fprintln(out, e.Summary())
	}
	if st.Torn > 0 || st.Corrupt > 0 {
		fmt.Fprintf(out, "# skipped: %d torn, %d corrupt line(s)\n", st.Torn, st.Corrupt)
	}
	return nil
}

// topKey extracts the grouping key of one event for `top -by`.
func topKey(e *eventlog.Event, by string) (string, error) {
	switch by {
	case "pred":
		return e.PredKey(), nil
	case "variant":
		return e.VariantKey(), nil
	case "outcome":
		return e.Outcome, nil
	case "op":
		return e.Op, nil
	case "expr":
		if e.Expr == "" {
			return "(none)", nil
		}
		return e.Expr, nil
	default:
		return "", fmt.Errorf("unknown -by %q (pred|variant|outcome|op|expr)", by)
	}
}

// runTop ranks groups by event count: which predicate shapes (or variants,
// outcomes, expressions) dominate the log.
func runTop(dir string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codlog top", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	by := fs.String("by", "pred", "group key: pred|variant|outcome|op|expr")
	n := fs.Int("n", 10, "groups to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := topKey(&eventlog.Event{}, *by); err != nil {
		return err
	}
	type agg struct {
		count  int64
		errs   int64
		sumSec float64
		maxSec float64
	}
	groups := map[string]*agg{}
	st, err := eventlog.Scan(dir, func(e *eventlog.Event) error {
		key, _ := topKey(e, *by)
		g := groups[key]
		if g == nil {
			g = &agg{}
			groups[key] = g
		}
		g.count++
		if e.Outcome != eventlog.OutcomeOK {
			g.errs++
		}
		sec := e.Dur().Seconds()
		g.sumSec += sec
		if sec > g.maxSec {
			g.maxSec = sec
		}
		return nil
	})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if groups[keys[i]].count != groups[keys[j]].count {
			return groups[keys[i]].count > groups[keys[j]].count
		}
		return keys[i] < keys[j]
	})
	if len(keys) > *n {
		keys = keys[:*n]
	}
	fmt.Fprintf(out, "%-40s %8s %8s %10s %10s\n", strings.ToUpper(*by), "COUNT", "ERRS", "MEAN", "MAX")
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(out, "%-40s %8d %8d %10s %10s\n", k, g.count, g.errs,
			secString(g.sumSec/float64(g.count)), secString(g.maxSec))
	}
	fmt.Fprintf(out, "%d event(s) in %d file(s)", st.Events, st.Files)
	if st.Torn > 0 || st.Corrupt > 0 {
		fmt.Fprintf(out, "; skipped %d torn, %d corrupt", st.Torn, st.Corrupt)
	}
	fmt.Fprintln(out)
	return nil
}

func secString(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// runPercentiles replays the log through the same streaming aggregator that
// backs codserve's /debug/querystats and prints each (variant, pred,
// outcome) group's latency percentiles.
func runPercentiles(dir string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codlog percentiles", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := eventlog.NewAggregator()
	st, err := eventlog.Scan(dir, func(e *eventlog.Event) error {
		a.Observe(e)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %-24s %-10s %8s %10s %10s %10s %10s\n",
		"VARIANT", "PRED", "OUTCOME", "COUNT", "P50", "P90", "P99", "MAX")
	for _, g := range a.Snapshot() {
		fmt.Fprintf(out, "%-10s %-24s %-10s %8d %10s %10s %10s %10s\n",
			g.Variant, g.Pred, g.Outcome, g.Count,
			msString(g.P50MS), msString(g.P90MS), msString(g.P99MS), msString(g.MaxMS))
	}
	fmt.Fprintf(out, "%d event(s) in %d file(s)", st.Events, st.Files)
	if st.Torn > 0 || st.Corrupt > 0 {
		fmt.Fprintf(out, "; skipped %d torn, %d corrupt", st.Torn, st.Corrupt)
	}
	fmt.Fprintln(out)
	return nil
}

func msString(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Microsecond).String()
}

// findEvents returns the logged events whose trace ID equals id, or — when
// none matches exactly — those whose trace ID starts with id (operators
// paste prefixes).
func findEvents(dir, id string) ([]*eventlog.Event, error) {
	var exact, prefix []*eventlog.Event
	_, err := eventlog.Scan(dir, func(e *eventlog.Event) error {
		switch {
		case e.TraceID == id:
			exact = append(exact, e)
		case strings.HasPrefix(e.TraceID, id):
			prefix = append(prefix, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(exact) > 0 {
		return exact, nil
	}
	return prefix, nil
}

// runGrep dumps the events matching a trace ID (or unique prefix), each with
// its plan steps and their stage spans: the "find this query" primitive an
// exemplar or a flight record points at.
func runGrep(dir string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codlog grep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	asJSON := fs.Bool("json", false, "dump matching events as pretty-printed JSON instead of text lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: codlog -log DIR grep [-json] TRACE_ID")
	}
	id := fs.Arg(0)
	matches, err := findEvents(dir, id)
	if err != nil {
		return err
	}
	if len(matches) == 0 {
		return fmt.Errorf("no event with trace ID %s", id)
	}
	for _, e := range matches {
		if *asJSON {
			if err := writeEventJSON(out, e); err != nil {
				return err
			}
			continue
		}
		e.WriteText(out)
	}
	return nil
}
