package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/codsearch/cod"
)

// opts builds a runOpts with the defaults the tests share; tests override
// fields inline.
func opts(q string) runOpts {
	return runOpts{dataset: "tiny", query: q, attr: -1, k: 5, theta: 3, seed: 7}
}

func TestRunOnBuiltinDataset(t *testing.T) {
	if err := run(context.Background(), opts("5")); err != nil {
		t.Fatalf("codl run: %v", err)
	}
	for variant, expr := range map[string]string{
		"codu": "node=5 and variant=codu",
		"codr": "0 and node=5 and variant=codr",
	} {
		var buf bytes.Buffer
		o := opts(expr)
		o.jsonOut, o.out = true, &buf
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("%s run: %v", variant, err)
		}
		var res jsonResult
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			t.Fatalf("%s: bad json: %v\n%s", variant, err, buf.String())
		}
		if res.Method != variant {
			t.Errorf("json method = %q, want the plan's variant %q", res.Method, variant)
		}
	}
}

// TestMethodFlagRetired locks the retirement of -method: passing it, with
// any value, fails at flag parsing with the expression that replaces it.
func TestMethodFlagRetired(t *testing.T) {
	for _, v := range []string{"codr", "codu", "codl", "", "warp"} {
		fs := flag.NewFlagSet("codquery", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Func("method", "", retiredMethod)
		err := fs.Parse([]string{"-method", v, "-q", "5"})
		want := "node=N and variant="
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-method %q: parse error %v, want one naming %q", v, err, want)
		}
	}
	if err := retiredMethod("codu"); !strings.Contains(err.Error(), "'node=N and variant=codu'") {
		t.Errorf("retiredMethod(codu) = %v, want the codu expression", err)
	}
}

func TestRunExpressionQuery(t *testing.T) {
	var buf bytes.Buffer
	o := opts("ML and node=5")
	o.out = &buf
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("expression run: %v", err)
	}
	// The banner echoes the canonical expression ("ML" resolves to attr 0).
	if got := buf.String(); !strings.Contains(got, "query 0 and node=5") && !strings.Contains(got, "no characteristic community") {
		t.Errorf("output mentions neither the query expression nor a miss:\n%s", got)
	}

	buf.Reset()
	o = opts("(ML or DB) and size>=1 and node=5 and variant=codr")
	o.out, o.trace = &buf, true
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("compound expression run: %v", err)
	}
	if got := buf.String(); !strings.Contains(got, "query trace:") {
		t.Errorf("-trace output missing trace section:\n%s", got)
	}
}

func TestRunExpressionErrors(t *testing.T) {
	// Syntax error surfaces as a *cod.ParseError so main prints the caret.
	err := run(context.Background(), opts("ML AND"))
	var pe *cod.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("malformed expression returned %v (%T), want *cod.ParseError", err, err)
	}
	if pe.Caret() == "" {
		t.Error("ParseError has no caret rendering")
	}
	// Expressions must carry node= (the -q flag holds the expression).
	if err := run(context.Background(), opts("ML and size>=2")); err == nil || !strings.Contains(err.Error(), "node=") {
		t.Errorf("expression without node= returned %v, want node= hint", err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	o := opts("5")
	o.jsonOut, o.out = true, &buf
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("-json run: %v", err)
	}
	var res jsonResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("-json output is not one JSON object: %v\n%s", err, buf.String())
	}
	if res.Query != 5 || res.Method != "codl" {
		t.Errorf("json query/method = %d/%q, want 5/codl", res.Query, res.Method)
	}
	if res.TraceID == "" {
		t.Error("json output has no trace_id")
	}
	if res.Found {
		if res.Size != len(res.Nodes) || res.Size == 0 {
			t.Errorf("json size %d does not match %d nodes", res.Size, len(res.Nodes))
		}
		if res.Rank < 1 {
			t.Errorf("found community has rank %d, want >= 1", res.Rank)
		}
		if res.AttrDensity == nil {
			t.Error("legacy-mode json output missing attr_density")
		}
	}

	// Expression mode: expr echoed canonically, attr_density omitted for
	// compound predicates.
	buf.Reset()
	o = opts("(ML or DB) and node=5")
	o.jsonOut, o.out = true, &buf
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("-json expression run: %v", err)
	}
	var res2 jsonResult
	if err := json.Unmarshal(buf.Bytes(), &res2); err != nil {
		t.Fatalf("bad json: %v\n%s", err, buf.String())
	}
	if res2.Expr != "(0|1) and node=5" {
		t.Errorf("json expr = %q, want canonical %q", res2.Expr, "(0|1) and node=5")
	}
	if res2.AttrDensity != nil {
		t.Error("compound-predicate json output carries attr_density")
	}
	if res2.TraceID == "" {
		t.Error("expression json output has no trace_id")
	}
}

func TestRunErrors(t *testing.T) {
	o := opts("0")
	o.dataset = "no-such-dataset"
	if err := run(context.Background(), o); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run(context.Background(), opts("10000")); err == nil {
		t.Error("out-of-range query node accepted")
	}
	if err := run(context.Background(), opts("0 and node=5 and variant=warp")); err == nil {
		t.Error("unknown variant accepted")
	}
	o = opts("0")
	o.graphFile = filepath.Join(t.TempDir(), "absent.txt")
	if err := run(context.Background(), o); err == nil {
		t.Error("missing graph file accepted")
	}
}

func TestRunOnGraphFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	content := "cod-graph 1\n4 4 1 0\ne 0 1\ne 1 2\ne 2 3\ne 0 2\na 0 0\na 1 0\na 2 0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	o := runOpts{graphFile: path, query: "0", attr: 0, k: 2, theta: 20, seed: 1}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("graph file run: %v", err)
	}
	// node without attributes and no -attr
	o.query, o.attr = "3", -1
	if err := run(context.Background(), o); err == nil {
		t.Error("attribute-less node without -attr accepted")
	}
}

// TestRunTimeoutSurfacesCancellation locks the -timeout contract for every
// variant: an expired deadline aborts the run with an error wrapping the
// context error, so main can distinguish a deadline from a bad query. (The
// typed *cod.CanceledError partial-progress shape for the query phase is
// locked by the root package's ctx tests; which stage reports first depends
// on where the deadline lands.)
func TestRunTimeoutSurfacesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		o    runOpts
	}{
		{"codl", opts("5")},
		{"codu", opts("node=5 and variant=codu")},
		{"codr", opts("0 and node=5 and variant=codr")},
		{"expr", opts("ML and node=5")},
	} {
		err := run(ctx, tc.o)
		if err == nil {
			t.Fatalf("%s: canceled run returned no error", tc.name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v (%T) does not wrap context.Canceled", tc.name, err, err)
		}
	}
}
