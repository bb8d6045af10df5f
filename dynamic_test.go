package cod

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/codsearch/cod/internal/obs"
)

func TestDynamicSearcher(t *testing.T) {
	g := buildTestGraph(t)
	d, err := NewDynamicSearcher(g, Options{K: 5, Theta: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != g.N() || d.M() != g.M() {
		t.Fatal("initial state mismatch")
	}
	if err := d.AddEdge(0, NodeID(g.N()-1)); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 1 {
		t.Errorf("pending = %d", d.Pending())
	}
	// query before flush still works against the old state
	var q NodeID
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	if _, err := d.Discover(q, g.Attrs(q)[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(FlushAuto); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 {
		t.Error("pending survived flush")
	}
	if d.M() != g.M()+1 {
		t.Errorf("M = %d, want %d", d.M(), g.M()+1)
	}
	com, err := d.Discover(q, g.Attrs(q)[0])
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !com.Contains(q) {
		t.Error("community missing query node")
	}
	// forced strategies must both work
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(FlushLocal); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(3, NodeID(g.N()-2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(FlushFull); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicSearcherValidatesAndRanks locks DynamicSearcher to Searcher's
// query contract: out-of-range arguments are a *RangeError (never a panic,
// never a nil error), rejected queries draw no seed, and a found answer
// carries the query's influence rank.
func TestDynamicSearcherValidatesAndRanks(t *testing.T) {
	g, err := GenerateDataset("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 3, Theta: 4, Seed: 1}
	d, err := NewDynamicSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	n, a := NodeID(g.N()), AttrID(g.NumAttrs())
	for _, bad := range []struct{ q, attr int32 }{{-1, 0}, {n, 0}, {0, -1}, {0, a}} {
		var re *RangeError
		if _, err := d.Discover(bad.q, bad.attr); !errors.As(err, &re) {
			t.Errorf("Discover(%d, %d): err = %v, want *RangeError", bad.q, bad.attr, err)
		}
	}
	// Expressions share the validation: an out-of-range node is a
	// *RangeError (an out-of-range attribute is a positioned parse error).
	for _, q := range []NodeID{-1, n} {
		var re *RangeError
		if _, err := discoverVariant(context.Background(), d, "codr", q, 0); !errors.As(err, &re) {
			t.Errorf("codr node %d: err = %v, want *RangeError", q, err)
		}
	}

	s, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDynamicSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ranked := 0
	for q := NodeID(0); q < n; q++ {
		attrs := g.Attrs(q)
		if len(attrs) == 0 {
			continue
		}
		got, err := d.Discover(q, attrs[0])
		if err != nil {
			t.Fatal(err)
		}
		// The rejects above drew no seed: d stays in step with a fresh
		// DynamicSearcher.
		want, err := fresh.Discover(q, attrs[0])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("q=%d: %+v after rejected queries, %+v on a fresh searcher", q, got, want)
		}
		if got.Found && (got.Rank < 1 || got.Rank > opts.K) {
			t.Errorf("q=%d: found answer has rank %d, want 1..%d", q, got.Rank, opts.K)
		}
		ref, err := s.Discover(q, attrs[0])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Nodes) == fmt.Sprint(ref.Nodes) && got.Rank != ref.Rank {
			t.Errorf("q=%d: rank %d, Searcher ranks the same community %d", q, got.Rank, ref.Rank)
		}
		if got.Found {
			ranked++
		}
	}
	if ranked == 0 {
		t.Fatal("no query found a community; the rank check checked nothing")
	}
}

// TestDynamicSearcherMatchesSearcher locks the one query path: before any
// Flush, a DynamicSearcher answers every query byte-identically to a
// Searcher with the same Options — community, rank, trace ID and recorded
// seed — through Discover, Prepare and DiscoverBatch.
func TestDynamicSearcherMatchesSearcher(t *testing.T) {
	g := buildTestGraph(t)
	queries := determinismQueries(g)
	exprs := func(q Query) []string {
		b := (q.Attr + 1) % AttrID(g.NumAttrs())
		return []string{
			fmt.Sprintf("%d", q.Attr),
			fmt.Sprintf("%d and variant=codr", q.Attr),
			"variant=codu",
			fmt.Sprintf("(%d or %d) and size>=3", q.Attr, b),
			fmt.Sprintf("%d and adaptive=true", q.Attr),
		}
	}
	// traced runs one query with a fresh trace and renders its answer,
	// trace ID and recorded seed.
	traced := func(run func(context.Context) (Community, error)) string {
		tr := obs.NewTrace()
		com, err := run(obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr)))
		seed, ok := tr.Seed()
		return fmt.Sprintf("%+v err=%v trace=%s seed=%d/%t", com, err, tr.ID(), seed, ok)
	}
	for _, opts := range []Options{
		{K: 3, Theta: 4, Seed: 97},
		{K: 3, Theta: 4, Seed: 98, Workers: 2, SampleCache: 8, CacheHierarchies: true},
	} {
		s, err := NewSearcher(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDynamicSearcher(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		var batch []Query
		for _, q := range queries {
			want := traced(func(ctx context.Context) (Community, error) { return s.DiscoverCtx(ctx, q.Node, q.Attr) })
			got := traced(func(ctx context.Context) (Community, error) { return d.DiscoverCtx(ctx, q.Node, q.Attr) })
			if got != want {
				t.Errorf("seed %d q=%d Discover: dynamic %s, searcher %s", opts.Seed, q.Node, got, want)
			}
			for _, expr := range exprs(q) {
				batch = append(batch, Query{Node: q.Node, Expr: expr})
				spq, err1 := s.Prepare(expr)
				dpq, err2 := d.Prepare(expr)
				if err1 != nil || err2 != nil {
					t.Fatalf("%q: %v / %v", expr, err1, err2)
				}
				want := traced(func(ctx context.Context) (Community, error) { return spq.DiscoverCtx(ctx, q.Node) })
				got := traced(func(ctx context.Context) (Community, error) { return dpq.DiscoverCtx(ctx, q.Node) })
				if got != want {
					t.Errorf("seed %d q=%d %q: dynamic %s, searcher %s", opts.Seed, q.Node, expr, got, want)
				}
			}
		}
		want := batchBytes(s.DiscoverBatch(batch, 2))
		if got := batchBytes(d.DiscoverBatch(batch, 2)); got != want {
			t.Errorf("seed %d DiscoverBatch differs:\n--- searcher\n%s--- dynamic\n%s", opts.Seed, want, got)
		}
	}
}

// TestDynamicSearcherHonorsOptions: a DynamicSearcher builds its engine from
// the same Options mapping as a Searcher, so Adaptive stages its sample
// step, SampleCache serves a repeated shared-pool query from the cache, and
// Balanced, which Flush could not keep, is rejected.
func TestDynamicSearcherHonorsOptions(t *testing.T) {
	g := buildTestGraph(t)
	q := determinismQueries(g)[0]
	steps := func(run func(context.Context) (Community, error)) string {
		tr := obs.NewTrace()
		if _, err := run(obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, st := range tr.Steps() {
			out = append(out, st.Kind+"="+st.Outcome)
		}
		return strings.Join(out, " ")
	}

	d, err := NewDynamicSearcher(g, Options{K: 3, Theta: 4, Seed: 5, SampleCache: 8,
		Adaptive: AdaptiveOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, q := range determinismQueries(g) {
		got := steps(func(ctx context.Context) (Community, error) { return d.DiscoverCtx(ctx, q.Node, q.Attr) })
		if !strings.Contains(got, "sample=") {
			continue // answered by the index
		}
		sampled++
		if !strings.Contains(got, "evaluate=staged") ||
			!(strings.Contains(got, "sample=exhausted") || strings.Contains(got, "sample=early_stop")) {
			t.Errorf("q=%d: adaptive CODL query traced %q, want a staged sample step", q.Node, got)
		}
	}
	if sampled == 0 {
		t.Fatal("every query hit the index; no sample step was checked")
	}

	d, err = NewDynamicSearcher(g, Options{K: 3, Theta: 4, Seed: 5, SampleCache: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sample=cache_miss", "sample=cache_hit"} {
		got := steps(func(ctx context.Context) (Community, error) {
			return discoverVariant(ctx, d, "codu", q.Node, 0)
		})
		if !strings.Contains(got, want) {
			t.Errorf("cached codu query traced %q, want %s", got, want)
		}
	}

	if _, err := NewDynamicSearcher(g, Options{Balanced: true}); err == nil {
		t.Error("Balanced DynamicSearcher accepted; Flush would drop the rebalancing")
	}
}
