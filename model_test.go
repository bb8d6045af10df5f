package cod

import (
	"context"
	"testing"
)

// The whole pipeline must work under the linear threshold model too (the
// framework is model-agnostic as long as RR-set evaluation applies).
func TestSearcherLinearThreshold(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{K: 5, Theta: 5, Seed: 3, Model: ModelLT})
	if err != nil {
		t.Fatal(err)
	}
	var q NodeID = -1
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	com, err := s.Discover(q, g.Attrs(q)[0])
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !com.Contains(q) {
		t.Error("LT community missing query node")
	}
	infl, err := s.EstimateInfluence(q)
	if err != nil {
		t.Fatal(err)
	}
	if infl < 1 || infl > float64(g.N()) {
		t.Errorf("LT influence %f out of range", infl)
	}
	comU, err := discoverVariant(context.Background(), s, "codu", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if comU.Found && !comU.Contains(q) {
		t.Error("LT CODU community missing query node")
	}
}

// IC and LT generally rank differently, but both must be internally
// deterministic for a fixed seed.
func TestModelDeterminism(t *testing.T) {
	g := buildTestGraph(t)
	for _, model := range []Model{ModelIC, ModelLT} {
		run := func() int {
			s, err := NewSearcher(g, Options{K: 3, Theta: 4, Seed: 5, Model: model})
			if err != nil {
				t.Fatal(err)
			}
			com, err := s.Discover(0, g.Attrs(0)[0])
			if err != nil {
				t.Fatal(err)
			}
			return com.Size()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("model %v nondeterministic: %d vs %d", model, a, b)
		}
	}
}

// Balanced hierarchies must still answer queries correctly and reduce the
// community-chain depth on skewed graphs.
func TestSearcherBalanced(t *testing.T) {
	g := buildTestGraph(t)
	plain, err := NewSearcher(g, Options{K: 5, Theta: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	bal, err := NewSearcher(g, Options{K: 5, Theta: 4, Seed: 6, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	var q NodeID
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			q = v
			break
		}
	}
	com, err := bal.Discover(q, g.Attrs(q)[0])
	if err != nil {
		t.Fatal(err)
	}
	if com.Found && !com.Contains(q) {
		t.Error("balanced community missing q")
	}
	_ = plain

	// On a hub star (caterpillar dendrogram) the rebalanced chains must be
	// drastically shorter.
	const n = 200
	sb := NewGraphBuilder(n, 1)
	for v := NodeID(1); v < n; v++ {
		if err := sb.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	_ = sb.SetAttrs(0, 0)
	star := sb.Build()
	sPlain, err := NewSearcher(star, Options{Theta: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sBal, err := NewSearcher(star, Options{Theta: 1, Seed: 6, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	sumPlain, sumBal := 0, 0
	for v := NodeID(0); v < n; v++ {
		dp, _ := sPlain.HierarchyDepth(v)
		db, _ := sBal.HierarchyDepth(v)
		sumPlain += dp
		sumBal += db
	}
	if sumBal*4 > sumPlain {
		t.Errorf("balanced Σ|H| = %d not far below plain %d on a star", sumBal, sumPlain)
	}
}
