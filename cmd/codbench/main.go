// Command codbench regenerates the paper's tables and figures on the
// synthetic stand-in datasets. Each experiment prints an aligned text table
// whose rows mirror the corresponding figure/table of the paper.
//
// Usage:
//
//	codbench -exp all                          # everything, default sizes
//	codbench -exp fig7 -datasets cora,citeseer -queries 100
//	codbench -exp fig8 -queries 20 -thetas 10,20,40,80
//	codbench -exp fig9 -datasets amazon,dblp -limit 5m
//	codbench -exp table2 -datasets all
//	codbench -exp scalability                  # CODL on livejournal
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/codsearch/cod/internal/accuracy"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/eval"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|fig4|fig7|fig8|fig9|table2|case|scalability|all")
		datasets  = flag.String("datasets", "", "comma-separated dataset names (default: per-experiment paper set; 'all' = six effectiveness sets)")
		queries   = flag.Int("queries", 100, "number of query nodes")
		theta     = flag.Int("theta", 10, "RR graphs per node (θ)")
		thetas    = flag.String("thetas", "10,20,40,80", "θ sweep for fig8")
		k         = flag.Int("k", 5, "required influence rank k")
		seed      = flag.Uint64("seed", 42, "random seed")
		budget    = flag.Int("budget", 0, "Independent RR-set budget per query for fig8 (0 = unlimited)")
		limit     = flag.Duration("limit", 15*time.Minute, "per-method time limit for fig9")
		precision = flag.Int("precision", 1000, "ground-truth RR sets per community node")

		accuracySweep = flag.Bool("accuracy", false,
			"run the bounded-error accuracy sweep (internal/accuracy) over -datasets at several (ε, δ); fails if any observed error rate exceeds its δ")
	)
	flag.Parse()

	if *accuracySweep {
		if err := runAccuracy(*datasets, *queries, *theta, *k, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "codbench:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*exp, *datasets, *queries, *theta, *thetas, *k, *seed, *budget, *limit, *precision); err != nil {
		fmt.Fprintln(os.Stderr, "codbench:", err)
		os.Exit(1)
	}
}

func run(exp, datasetsFlag string, queries, theta int, thetasFlag string, k int, seed uint64, budget int, limit time.Duration, precision int) error {
	parseSets := func(def []string) []string {
		switch datasetsFlag {
		case "":
			return def
		case "all":
			return dataset.EffectivenessNames()
		default:
			return strings.Split(datasetsFlag, ",")
		}
	}
	baseCfg := func(ds string) eval.Config {
		return eval.Config{
			Dataset:       ds,
			Seed:          seed,
			NumQueries:    queries,
			Theta:         theta,
			Beta:          1,
			PrecisionSets: precision,
			Thetas:        parseInts(thetasFlag),
		}
	}

	experiments := strings.Split(exp, ",")
	if exp == "all" {
		experiments = []string{"table1", "fig4", "fig7", "fig8", "fig9", "table2", "case"}
	}
	for _, e := range experiments {
		start := time.Now()
		switch e {
		case "table1":
			var rows []*eval.HierarchyStats
			for _, ds := range parseSets(dataset.Names()) {
				r, err := eval.RunNetworkStats(baseCfg(ds))
				if err != nil {
					return err
				}
				rows = append(rows, r)
			}
			eval.WriteTableI(os.Stdout, rows)
		case "fig4":
			for _, ds := range parseSets([]string{"cora", "citeseer", "pubmed", "retweet"}) {
				r, err := eval.RunFiveDeepest(baseCfg(ds))
				if err != nil {
					return err
				}
				eval.WriteFig4(os.Stdout, r)
			}
		case "fig7":
			for _, ds := range parseSets(dataset.EffectivenessNames()) {
				r, err := eval.RunEffectiveness(baseCfg(ds))
				if err != nil {
					return err
				}
				eval.WriteEffectiveness(os.Stdout, r)
			}
		case "fig8":
			for _, ds := range parseSets([]string{"cora", "citeseer"}) {
				rows, err := eval.RunCompressedVsIndependent(baseCfg(ds), k, budget)
				if err != nil {
					return err
				}
				eval.WriteFig8(os.Stdout, rows)
			}
		case "fig9":
			var rows []eval.Fig9Row
			for _, ds := range parseSets(dataset.EffectivenessNames()) {
				r, err := eval.RunRuntime(baseCfg(ds), k, limit)
				if err != nil {
					return err
				}
				rows = append(rows, r...)
			}
			eval.WriteFig9(os.Stdout, rows)
		case "scalability":
			rows, err := eval.RunRuntime(baseCfg("livejournal"), k, limit)
			if err != nil {
				return err
			}
			eval.WriteFig9(os.Stdout, rows)
		case "table2":
			var rows []*eval.TableIIRow
			for _, ds := range parseSets(dataset.Names()) {
				r, err := eval.RunIndexOverhead(baseCfg(ds))
				if err != nil {
					return err
				}
				rows = append(rows, r)
			}
			eval.WriteTableII(os.Stdout, rows)
		case "case":
			for _, ds := range parseSets([]string{"cora"}) {
				cfg := baseCfg(ds)
				cases, err := eval.RunCaseStudy(cfg, 2)
				if err != nil {
					return err
				}
				eval.WriteCaseStudies(os.Stdout, cases)
			}
		default:
			return fmt.Errorf("unknown experiment %q", e)
		}
		fmt.Printf("[%s done in %v]\n\n", e, time.Since(start).Round(10*time.Millisecond))
	}
	return nil
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// runAccuracy sweeps the bounded-error accuracy harness over datasets and a
// grid of (ε, δ), printing one summary line per cell. The sweep fails when
// any cell's observed rank-k error rate exceeds its δ — the statistical
// acceptance gate of the bounded-error evaluation contract (DESIGN.md §16).
func runAccuracy(datasetsFlag string, queries, theta, k int, seed uint64) error {
	sets := []string{"cora", "citeseer", "pubmed", "retweet"}
	switch datasetsFlag {
	case "":
	case "all":
		sets = dataset.EffectivenessNames()
	default:
		sets = strings.Split(datasetsFlag, ",")
	}
	grid := []struct{ eps, delta float64 }{
		{0.05, 0.05},
		{0.02, 0.05},
		{0.10, 0.10},
	}
	failed := false
	for _, ds := range sets {
		for _, cell := range grid {
			start := time.Now()
			r, err := accuracy.Run(context.Background(), accuracy.Config{
				Dataset: ds, Seed: seed, NumQueries: queries,
				K: k, Theta: theta, Eps: cell.eps, Delta: cell.delta})
			if err != nil {
				return err
			}
			status := "ok"
			if r.ErrorRate > r.Delta {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s  [%s in %v]\n", r, status, time.Since(start).Round(10*time.Millisecond))
		}
	}
	if failed {
		return fmt.Errorf("accuracy sweep: observed error rate exceeded delta")
	}
	return nil
}
