package cod

import (
	"errors"
	"testing"
)

func buildHIN(t *testing.T) *HeteroGraph {
	t.Helper()
	schema := HeteroSchema{
		NodeTypes: []string{"author", "paper"},
		EdgeTypes: []HeteroEdgeType{{Name: "writes", From: 0, To: 1}},
	}
	// 6 authors, 5 papers
	types := []int32{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	b, err := NewHeteroBuilder(schema, types, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]NodeID{
		{0, 6}, {1, 6}, {1, 7}, {2, 7}, {0, 8}, {2, 8}, // area-0 trio
		{3, 9}, {4, 9}, {4, 10}, {5, 10}, // area-1 trio
		{2, 9}, // one bridge
	} {
		if err := b.AddEdge(e[0], e[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	for a := NodeID(0); a < 6; a++ {
		attr := AttrID(0)
		if a >= 3 {
			attr = 1
		}
		if err := b.SetAttrs(a, attr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestHeteroSearcher(t *testing.T) {
	g := buildHIN(t)
	if g.N() != 11 || g.M() != 11 {
		t.Fatalf("HIN shape %d/%d", g.N(), g.M())
	}
	if g.TypeOf(0) != 0 || g.TypeOf(6) != 1 {
		t.Error("TypeOf wrong")
	}
	if len(g.Attrs(0)) != 1 {
		t.Error("Attrs wrong")
	}
	s, err := NewHeteroSearcher(g, MetaPath{Edges: []int32{0, 0}, Start: 0},
		Options{K: 2, Theta: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pn, pm := s.ProjectionSize()
	if pn != 6 || pm == 0 {
		t.Fatalf("projection %d/%d", pn, pm)
	}
	com, err := s.Discover(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if com.Found {
		for _, v := range com.Nodes {
			if v >= 6 {
				t.Errorf("non-author %d in community", v)
			}
		}
		if !com.Contains(1) {
			t.Error("query author missing from its community")
		}
	}
	// Out-of-range nodes and attributes are a *RangeError, as on a
	// Searcher; a node that is not of the anchor type has its own error.
	for _, bad := range []struct{ q, attr int32 }{{-1, 0}, {11, 0}, {1, 7}, {1, -1}, {1, 2}} {
		var re *RangeError
		if _, err := s.Discover(bad.q, bad.attr); !errors.As(err, &re) {
			t.Errorf("Discover(%d, %d): err = %v, want *RangeError", bad.q, bad.attr, err)
		}
	}
	var re *RangeError
	if _, err := s.Discover(6, 0); err == nil || errors.As(err, &re) {
		t.Errorf("paper node: err = %v, want the anchor-type error", err)
	}
}

// A found HIN answer carries q's influence rank within it, as a
// homogeneous one does: within [1, K], and 0 when nothing is found.
func TestHeteroSearcherReportsRank(t *testing.T) {
	const k = 2
	s, err := NewHeteroSearcher(buildHIN(t), MetaPath{Edges: []int32{0, 0}, Start: 0},
		Options{K: k, Theta: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for q := NodeID(0); q < 6; q++ {
		for attr := AttrID(0); attr < 2; attr++ {
			com, err := s.Discover(q, attr)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case com.Found:
				found++
				if com.Rank < 1 || com.Rank > k {
					t.Errorf("q=%d attr=%d: found with rank %d, want within [1, %d]", q, attr, com.Rank, k)
				}
			case com.Rank != 0:
				t.Errorf("q=%d attr=%d: not found but rank %d", q, attr, com.Rank)
			}
		}
	}
	if found == 0 {
		t.Fatal("no query found a community; the rank check is vacuous")
	}
}

func TestHeteroBuilderValidation(t *testing.T) {
	schema := HeteroSchema{
		NodeTypes: []string{"a", "b"},
		EdgeTypes: []HeteroEdgeType{{Name: "e", From: 0, To: 1}},
	}
	b, err := NewHeteroBuilder(schema, []int32{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 0, 0); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.SetAttrs(0, 5); err == nil {
		t.Error("bad attr accepted")
	}
	// asymmetric meta-path rejected at searcher construction
	g := mustHIN(t, b)
	if _, err := NewHeteroSearcher(g, MetaPath{Edges: []int32{0}, Start: 0}, Options{Theta: 2}); err == nil {
		t.Error("asymmetric meta-path accepted")
	}
}

func mustHIN(t *testing.T, b *HeteroBuilder) *HeteroGraph {
	t.Helper()
	if err := b.AddEdge(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}
