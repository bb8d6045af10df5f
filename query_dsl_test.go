package cod

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/obs"
)

// This file locks the query-expression facade: expression parsing through
// Prepare, byte-identical lowering of single-attribute expressions onto the
// typed query of their variant and onto Discover (trace IDs included),
// compound predicates, community filters, knobs, attribute names, and the
// typed range errors.

// TestDiscoverQueryByteIdenticalToLegacy is the §17 determinism lock: a
// single-attribute expression must answer byte for byte — community and
// trace ID — as the typed query of its variant (the spec the variant-named
// entry points ran before expressions replaced them) on the live seed
// sequence.
func TestDiscoverQueryByteIdenticalToLegacy(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	if len(queries) == 0 {
		t.Fatal("no attributed query nodes in test graph")
	}
	opts := Options{K: 3, Theta: 4, Seed: 97}
	cases := []struct {
		name string
		expr func(q Query) string
		spec func(q Query) engine.Spec
	}{
		{"codl", func(q Query) string { return fmt.Sprintf("%d", q.Attr) },
			func(q Query) engine.Spec { return engine.Spec{Variant: engine.VariantCODL, Q: q.Node, Attr: q.Attr} }},
		{"codu", func(q Query) string { return "variant=codu" },
			func(q Query) engine.Spec { return engine.Spec{Variant: engine.VariantCODU, Q: q.Node} }},
		{"codr", func(q Query) string { return fmt.Sprintf("%d and variant=codr", q.Attr) },
			func(q Query) engine.Spec { return engine.Spec{Variant: engine.VariantCODR, Q: q.Node, Attr: q.Attr} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s1, err := NewSearcher(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := NewSearcher(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				tr1, tr2 := obs.NewTrace(), obs.NewTrace()
				ctx1 := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr1))
				ctx2 := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr2))
				sp := tc.spec(q)
				want, err1 := s1.discover(ctx1, sp, s1.g.validate(sp.Q, sp.Attr))
				got, err2 := discoverExpr(ctx2, s2, tc.expr(q), q.Node)
				if err1 != nil || err2 != nil {
					t.Fatalf("query %+v errored: %v / %v", q, err1, err2)
				}
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Errorf("query %+v: DSL %+v differs from typed spec %+v", q, got, want)
				}
				if tr1.ID() != tr2.ID() {
					t.Errorf("query %+v: DSL trace ID %s differs from typed spec %s", q, tr2.ID(), tr1.ID())
				}
			}
		})
	}
}

// TestDiscoverQueryEmptyExprIsLegacy: Discover(q, A) is the shorthand of
// the expression "A" — on the live sequence, and in a batch, where a Query
// with an empty Expr answers as one carrying "A".
func TestDiscoverQueryEmptyExprIsLegacy(t *testing.T) {
	g := buildTestGraph(t)
	opts := Options{K: 3, Theta: 4, Seed: 97}
	s1, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var plain, exprs []Query
	for _, q := range determinismQueries(g) {
		want, err1 := s1.Discover(q.Node, q.Attr)
		got, err2 := discoverExpr(context.Background(), s2, fmt.Sprintf("%d", q.Attr), q.Node)
		if err1 != nil || err2 != nil {
			t.Fatalf("query %+v errored: %v / %v", q, err1, err2)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("query %+v: expression %+v differs from Discover %+v", q, got, want)
		}
		plain = append(plain, q)
		exprs = append(exprs, Query{Node: q.Node, Expr: fmt.Sprintf("%d", q.Attr)})
	}
	a, b := s1.DiscoverBatch(plain, 2), s1.DiscoverBatch(exprs, 2)
	for i := range a {
		if fmt.Sprintf("%+v %v", a[i].Community, a[i].Err) != fmt.Sprintf("%+v %v", b[i].Community, b[i].Err) {
			t.Errorf("batch item %d: empty Expr %+v differs from expression %+v", i, a[i].Community, b[i].Community)
		}
	}
}

// TestPrepareCanonicalExpr: semantically equal expressions — reordered,
// respelled, renamed — prepare to one canonical serialization and one
// predicate hash, and the canonical form re-prepares to itself.
func TestPrepareCanonicalExpr(t *testing.T) {
	g := buildTestGraph(t) // tiny: ML, DB, IR, AI
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Prepare("ML AND (IR OR DB) AND size>=2 AND k=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Prepare("k=2 and size>=2 and (db | 2) & ml")
	if err != nil {
		t.Fatal(err)
	}
	if a.Expr() != b.Expr() {
		t.Errorf("equivalent expressions canonicalize differently:\n a: %s\n b: %s", a.Expr(), b.Expr())
	}
	if a.PredicateHash() == "" || a.PredicateHash() != b.PredicateHash() {
		t.Errorf("predicate hashes differ: %q vs %q", a.PredicateHash(), b.PredicateHash())
	}
	c, err := s.Prepare(a.Expr())
	if err != nil {
		t.Fatalf("canonical form %q does not re-prepare: %v", a.Expr(), err)
	}
	if c.Expr() != a.Expr() {
		t.Errorf("canonical form is not a fixed point: %q re-prepares to %q", a.Expr(), c.Expr())
	}
	// A single positive literal lowers onto the legacy attribute; no hash.
	one, err := s.Prepare("ml")
	if err != nil {
		t.Fatal(err)
	}
	if one.PredicateHash() != "" {
		t.Errorf("single-literal query has predicate hash %q, want lowered", one.PredicateHash())
	}
}

// TestPrepareErrors: every rejection is typed and positioned.
func TestPrepareErrors(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	parseErrs := []string{
		"ML AND",               // dangling operator
		"Quantum",              // unknown attribute name
		"99",                   // numeric attribute out of range
		"ML OR size>=3",        // filter under OR
		"variant=bogus",        // unknown variant
		"size>=3 and ML or DB", // OR over a filtered conjunct
	}
	for _, expr := range parseErrs {
		_, err := s.Prepare(expr)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Prepare(%q) error = %v, want *ParseError", expr, err)
			continue
		}
		if pe.Caret() == "" {
			t.Errorf("Prepare(%q): empty caret rendering", expr)
		}
	}
	if _, err := s.Prepare("ML AND NOT ML"); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("contradiction error = %v, want ErrUnsatisfiable", err)
	}
	if _, err := s.Prepare("ML and variant=codu"); err == nil ||
		!strings.Contains(err.Error(), "codu") {
		t.Errorf("codu+predicate error = %v, want a codu explanation", err)
	}
	if _, err := s.Prepare("size>=3"); err == nil ||
		!strings.Contains(err.Error(), "predicate") {
		t.Errorf("predicate-less codl error = %v, want a needs-predicate explanation", err)
	}
}

// TestRangeErrorReportsKnownAttributes: satellite 1 — the typed range error
// keeps the legacy message prefix and lists the attribute registry.
func TestRangeErrorReportsKnownAttributes(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Discover(0, 99)
	var re *RangeError
	if !errors.As(err, &re) {
		t.Fatalf("Discover(0, 99) error = %T, want *RangeError", err)
	}
	if re.What != "attribute" || re.Value != 99 || re.N != g.NumAttrs() {
		t.Errorf("range error fields %+v", re)
	}
	if len(re.Known) != g.NumAttrs() || re.Known[0] != "ML" {
		t.Errorf("range error Known = %v, want the registry", re.Known)
	}
	if !strings.HasPrefix(err.Error(), "cod: attribute 99 out of range [0,4)") {
		t.Errorf("range error message %q lost the legacy prefix", err)
	}
	if !strings.Contains(err.Error(), "ML") {
		t.Errorf("range error message %q does not name known attributes", err)
	}
	// Node errors carry no attribute registry.
	_, err = s.Discover(-1, 0)
	if !errors.As(err, &re) || re.What != "query node" || re.Known != nil {
		t.Errorf("node range error = %v (%+v)", err, re)
	}
}

// TestGraphAttrNames: the registry resolves case-insensitively and rejects
// malformed installs.
func TestGraphAttrNames(t *testing.T) {
	g := buildTestGraph(t)
	names := g.AttrNames()
	if len(names) != 4 || names[0] != "ML" {
		t.Fatalf("tiny dataset attr names = %v", names)
	}
	if a, ok := g.AttrByName("db"); !ok || a != 1 {
		t.Errorf("AttrByName(db) = %d, %t", a, ok)
	}
	if name, ok := g.AttrName(2); !ok || name != "IR" {
		t.Errorf("AttrName(2) = %q, %t", name, ok)
	}
	if _, ok := g.AttrName(99); ok {
		t.Error("AttrName(99) resolved")
	}
	b := NewGraphBuilder(2, 2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	plain := b.Build()
	if plain.AttrNames() != nil {
		t.Error("fresh graph has attribute names")
	}
	if err := plain.SetAttrNames("one"); err == nil {
		t.Error("SetAttrNames accepted a short registry")
	}
	if err := plain.SetAttrNames("A", "a"); err == nil {
		t.Error("SetAttrNames accepted case-colliding names")
	}
	if err := plain.SetAttrNames("A", ""); err == nil {
		t.Error("SetAttrNames accepted an empty name")
	}
	if err := plain.SetAttrNames("A", "B"); err != nil {
		t.Fatal(err)
	}
}

// TestDiscoverQueryCompound: a compound filtered query answers
// deterministically and its community honors the filters; the node= knob
// overrides the call-site node.
func TestDiscoverQueryCompound(t *testing.T) {
	g := buildTestGraph(t)
	opts := Options{K: 3, Theta: 4, Seed: 97}
	s1, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	expr := "(ML or DB) and size>=3"
	found := 0
	for _, q := range determinismQueries(g) {
		a, err := discoverExpr(context.Background(), s1, expr, q.Node)
		if err != nil {
			t.Fatal(err)
		}
		b, err := discoverExpr(context.Background(), s2, expr, q.Node)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("query %d: compound run not deterministic:\n%+v\n%+v", q.Node, a, b)
		}
		if a.Found {
			found++
			if a.Size() < 3 {
				t.Errorf("query %d: size>=3 violated: %d nodes", q.Node, a.Size())
			}
			if a.Rank < 1 || a.Rank > opts.K {
				t.Errorf("query %d: rank %d outside [1,%d]", q.Node, a.Rank, opts.K)
			}
		}
	}
	if found == 0 {
		t.Error("no compound query found a community")
	}

	// node= knob: the expression pins the query node regardless of call site.
	q0 := determinismQueries(g)[0].Node
	s3, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := discoverExpr(context.Background(), s3, "ML", q0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := discoverExpr(context.Background(), s4, fmt.Sprintf("ML and node=%d", q0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("node= knob override differs: %+v vs %+v", got, want)
	}
}

// TestDiscoverBatchExpr: expression entries in a batch lower onto the same
// plans as their legacy spellings (byte-identical results), and malformed
// expressions reject per entry as positioned parse errors.
func TestDiscoverBatchExpr(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	legacy := determinismQueries(g)
	viaExpr := make([]Query, len(legacy))
	for i, q := range legacy {
		viaExpr[i] = Query{Node: q.Node, Expr: fmt.Sprintf("%d", q.Attr)}
	}
	want := batchBytes(s.DiscoverBatch(legacy, 4))
	got := batchBytes(s.DiscoverBatch(viaExpr, 4))
	// The echoed Query field differs by construction; compare communities.
	strip := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if i := strings.Index(line, "found="); i >= 0 {
				out = append(out, line[i:])
			}
		}
		return strings.Join(out, "\n")
	}
	if strip(got) != strip(want) {
		t.Errorf("expression batch differs from legacy batch:\n--- legacy\n%s--- expr\n%s", want, got)
	}

	res := s.DiscoverBatch([]Query{
		{Node: legacy[0].Node, Expr: "ML AND"},
		{Node: legacy[0].Node, Expr: "(ML or DB) and size>=3"},
	}, 2)
	var pe *ParseError
	if !errors.As(res[0].Err, &pe) {
		t.Errorf("batch parse error = %v, want *ParseError", res[0].Err)
	}
	if res[1].Err != nil {
		t.Errorf("valid batch expression errored: %v", res[1].Err)
	}
}
