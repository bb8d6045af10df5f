package influence

import (
	"math"
	"testing"

	"github.com/codsearch/cod/internal/graph"
)

func TestUniformLTWeightsSumToOne(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, graph.NewRand(1))
	w := UniformLT{G: g}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		sum := 0.0
		for _, u := range g.Neighbors(v) {
			sum += w.Weight(u, v)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights into %d sum to %f", v, sum)
		}
	}
}

func TestLTRRGraphIsReversePath(t *testing.T) {
	g := graph.ErdosRenyi(40, 120, graph.NewRand(2))
	s := NewLTSampler(g, UniformLT{G: g}, graph.NewRand(3))
	for _, r := range sampleRRs(s, 300) {
		if r.Len() == 0 {
			t.Fatal("empty LT RR graph")
		}
		// Every node has at most one live in-edge tail recorded at its
		// position (walk semantics), and no duplicates appear.
		seen := map[graph.NodeID]bool{}
		for _, v := range r.Nodes {
			if seen[v] {
				t.Fatal("duplicate node in LT RR graph")
			}
			seen[v] = true
		}
		for p := 0; p < r.Len(); p++ {
			if r.Off[p+1]-r.Off[p] > 1 {
				t.Fatalf("position %d has %d live in-edges, want <= 1", p, r.Off[p+1]-r.Off[p])
			}
		}
		// All nodes reachable from the source (it is a reverse walk).
		reach := r.ReachableWithin(func(graph.NodeID) bool { return true })
		for p, ok := range reach {
			if !ok {
				t.Fatalf("position %d unreachable", p)
			}
		}
	}
}

// Theorem 1 for LT: occurrence frequency in LT RR sets estimates LT spread.
func TestLTEstimateMatchesForwardSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.BarabasiAlbert(30, 2, graph.NewRand(4))
	w := UniformLT{G: g}
	s := NewLTSampler(g, w, graph.NewRand(5))
	const theta = 60000
	counts := make([]int, g.N())
	a := NewArena()
	for i := 0; i < theta; i++ {
		a.Reset()
		s.RRGraphInto(a)
		for _, v := range a.Pool().Nodes(0) {
			counts[v]++
		}
	}
	rng := graph.NewRand(6)
	for _, v := range []graph.NodeID{0, 5, 20} {
		est := InfluenceFromCount(counts[v], theta, g.N())
		mc := 0.0
		const rounds = 4000
		for i := 0; i < rounds; i++ {
			mc += float64(SpreadLT(g, w, v, rng))
		}
		mc /= rounds
		if math.Abs(est-mc) > 0.35*mc+0.5 {
			t.Errorf("node %d: LT RR estimate %.2f vs forward %.2f", v, est, mc)
		}
	}
}

func TestLTSamplerDeterminism(t *testing.T) {
	g := graph.ErdosRenyi(25, 70, graph.NewRand(7))
	a := sampleRRs(NewLTSampler(g, UniformLT{G: g}, graph.NewRand(8)), 50)
	b := sampleRRs(NewLTSampler(g, UniformLT{G: g}, graph.NewRand(8)), 50)
	for i := range a {
		if a[i].Len() != b[i].Len() || a[i].Source() != b[i].Source() {
			t.Fatalf("batch %d differs", i)
		}
	}
}

func TestSpreadLTSeedOnly(t *testing.T) {
	// A node with zero-weight in-edges everywhere: spread is at least 1 and
	// at most n.
	g := graph.ErdosRenyi(20, 50, graph.NewRand(9))
	got := SpreadLT(g, UniformLT{G: g}, 3, graph.NewRand(10))
	if got < 1 || got > 20 {
		t.Errorf("spread = %d", got)
	}
}
