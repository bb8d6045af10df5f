package cod

import (
	"errors"
	"fmt"
	"testing"
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
		for name, run := range map[string]func(NodeID, AttrID) (Community, error){
			"Discover": d.Discover, "DiscoverGlobal": d.DiscoverGlobal,
		} {
			var re *RangeError
			if _, err := run(bad.q, bad.attr); !errors.As(err, &re) {
				t.Errorf("%s(%d, %d): err = %v, want *RangeError", name, bad.q, bad.attr, err)
			}
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
