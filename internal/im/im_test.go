package im

import (
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
)

func TestSelectPicksHubOfStar(t *testing.T) {
	// star: center 0 with 9 leaves — the center must be the first seed
	edges := make([][2]graph.NodeID, 0, 9)
	for v := graph.NodeID(1); v < 10; v++ {
		edges = append(edges, [2]graph.NodeID{0, v})
	}
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Maximize(g, influence.NewWeightedCascade(g), 2, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 0 {
		t.Errorf("first seed = %d, want center 0", res.Seeds[0])
	}
	// every leaf's RR set contains the center (p(0,leaf) = 1/deg(leaf) = 1),
	// so the center alone covers the pool and selection stops early
	if len(res.Seeds) > 2 {
		t.Errorf("seeds = %v", res.Seeds)
	}
}

func TestCoverageMonotone(t *testing.T) {
	g := graph.ErdosRenyi(60, 180, graph.NewRand(2))
	res, err := Maximize(g, influence.NewWeightedCascade(g), 8, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, c := range res.Coverage {
		if c < prev {
			t.Fatalf("coverage decreased at %d: %v", i, res.Coverage)
		}
		if c < 0 || c > 1 {
			t.Fatalf("coverage out of range: %v", c)
		}
		prev = c
	}
	if res.Spread(g.N()) <= 0 {
		t.Error("spread must be positive")
	}
}

func TestGreedyMatchesBruteForceOnTinyPool(t *testing.T) {
	// hand-crafted pool over 4 nodes; greedy = optimal here
	pool := influence.PoolOf([]*influence.RRGraph{
		rr(0, 1), rr(0, 2), rr(1), rr(3), rr(3), rr(3),
	})
	g, err := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Select(g, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	// node 3 covers 3 sets; nodes 0 and 1 then tie with marginal gain 2
	// (either choice is optimal)
	if res.Seeds[0] != 3 || (res.Seeds[1] != 0 && res.Seeds[1] != 1) {
		t.Errorf("seeds = %v, want [3 0] or [3 1]", res.Seeds)
	}
	if got := res.Coverage[1]; got != 5.0/6 {
		t.Errorf("final coverage = %v, want 5/6", got)
	}
}

func TestSelectErrors(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(g, influence.Pool{}, 1); err == nil {
		t.Error("empty pool accepted")
	}
	pool := influence.PoolOf([]*influence.RRGraph{rr(0)})
	if _, err := Select(g, pool, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Select(g, pool, 99); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSelectStopsWhenPoolCovered(t *testing.T) {
	g, err := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Select(g, influence.PoolOf([]*influence.RRGraph{rr(2)}), 4)
	if err != nil {
		t.Fatal(err)
	}
	// one RR set, one useful seed; further seeds add nothing and selection
	// stops early
	if len(res.Seeds) != 1 || res.Seeds[0] != 2 {
		t.Errorf("seeds = %v", res.Seeds)
	}
	if res.Coverage[0] != 1 {
		t.Errorf("coverage = %v", res.Coverage)
	}
}

// rr builds an edgeless RR graph over nodes, enough for coverage tests.
func rr(nodes ...graph.NodeID) *influence.RRGraph {
	return &influence.RRGraph{Nodes: nodes, Off: make([]int32, len(nodes)+1)}
}
