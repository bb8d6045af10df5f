package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][2]NodeID) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// paperGraph builds the 10-node, 15-edge example graph of Fig. 2 (edges
// chosen to match the figure's structure closely enough for unit tests).
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	return mustGraph(t, 10, [][2]NodeID{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{2, 4}, {3, 5}, {3, 7}, {6, 7}, {6, 8}, {7, 8},
		{4, 5}, {4, 6}, {8, 9},
	})
}

func TestBuilderBasics(t *testing.T) {
	g := paperGraph(t)
	if g.N() != 10 {
		t.Errorf("N = %d, want 10", g.N())
	}
	if g.M() != 15 {
		t.Errorf("M = %d, want 15", g.M())
	}
	if g.Degree(0) != 3 {
		t.Errorf("deg(0) = %d, want 3", g.Degree(0))
	}
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Error("edge (0,3) missing")
	}
	if g.HasEdge(0, 9) {
		t.Error("edge (0,9) should not exist")
	}
	if g.Weighted() {
		t.Error("unweighted graph reports Weighted")
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	b := NewBuilder(3, 2)
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddWeightedEdge(0, 1, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if err := b.SetAttrs(0, 5); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if err := b.SetAttrs(7, 0); err == nil {
		t.Error("out-of-range node attribute accepted")
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3, 0)
	for i := 0; i < 3; i++ {
		if err := b.AddWeightedEdge(0, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after merging", g.M())
	}
	if w := g.EdgeWeight(0, 1); w != 6 {
		t.Errorf("merged weight = %g, want 6", w)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := paperGraph(t)
	for v := NodeID(0); v < 10; v++ {
		ns := g.Neighbors(v)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", v, ns)
			}
		}
	}
}

func TestAttrs(t *testing.T) {
	b := NewBuilder(4, 3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.SetAttrs(0, 2, 0, 2); err != nil { // duplicates removed
		t.Fatal(err)
	}
	if err := b.AddAttr(1, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if got := g.Attrs(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Attrs(0) = %v, want [0 2]", got)
	}
	if !g.HasAttr(0, 2) || g.HasAttr(0, 1) {
		t.Error("HasAttr wrong for node 0")
	}
	if nodes := g.AttrNodes(1); len(nodes) != 1 || nodes[0] != 1 {
		t.Errorf("AttrNodes(1) = %v", nodes)
	}
}

func TestComponents(t *testing.T) {
	g := mustGraph(t, 6, [][2]NodeID{{0, 1}, {1, 2}, {3, 4}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if g.Connected() {
		t.Error("disconnected graph reports connected")
	}
	if got := g.Component(4); len(got) != 2 || got[0] != 3 {
		t.Errorf("Component(4) = %v", got)
	}
	conn := paperGraph(t)
	if !conn.Connected() {
		t.Error("paper graph should be connected")
	}
}

func TestInduce(t *testing.T) {
	g := paperGraph(t)
	sub := Induce(g, []NodeID{0, 1, 2, 3, 4})
	if sub.G.N() != 5 {
		t.Fatalf("subgraph N = %d", sub.G.N())
	}
	// edges within {0..4}: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3)(2,4) = 7
	if sub.G.M() != 7 {
		t.Errorf("subgraph M = %d, want 7", sub.G.M())
	}
	if sub.Local(9) != -1 || !sub.Contains(4) {
		t.Error("membership mapping broken")
	}
	if sub.ToParent[int(sub.Local(3))] != 3 {
		t.Error("Local/ToParent not inverse")
	}
}

func TestReweight(t *testing.T) {
	g := paperGraph(t)
	gl, err := Reweight(g, func(u, v NodeID, w float64) float64 {
		if u == 0 || v == 0 {
			return 5
		}
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	if gl.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", gl.M(), g.M())
	}
	if w := gl.EdgeWeight(0, 1); w != 5 {
		t.Errorf("weight(0,1) = %g, want 5", w)
	}
	if w := gl.EdgeWeight(8, 9); w != 1 {
		t.Errorf("weight(8,9) = %g, want 1", w)
	}
}

func TestMetrics(t *testing.T) {
	g := paperGraph(t)
	clique := []NodeID{0, 1, 2, 3}
	if d := TopologyDensity(g, clique); d != 1.0 {
		t.Errorf("density of 4-clique = %g, want 1", d)
	}
	if e := EdgesWithin(g, clique); e != 6 {
		t.Errorf("EdgesWithin = %d, want 6", e)
	}
	if d := TopologyDensity(g, []NodeID{0}); d != 0 {
		t.Errorf("density singleton = %g, want 0", d)
	}
	whole := make([]NodeID, 10)
	for i := range whole {
		whole[i] = NodeID(i)
	}
	if c := Conductance(g, whole); c != 0 {
		t.Errorf("conductance of everything = %g, want 0", c)
	}
	c := Conductance(g, clique)
	if c <= 0 || c >= 1 {
		t.Errorf("conductance of clique = %g, want in (0,1)", c)
	}
}

func TestAttributeDensity(t *testing.T) {
	b := NewBuilder(4, 2)
	_ = b.AddEdge(0, 1)
	_ = b.SetAttrs(0, 1)
	_ = b.SetAttrs(1, 1)
	_ = b.SetAttrs(2, 0)
	g := b.Build()
	if d := AttributeDensity(g, []NodeID{0, 1, 2, 3}, 1); d != 0.5 {
		t.Errorf("attr density = %g, want 0.5", d)
	}
	if d := AttributeDensity(g, nil, 1); d != 0 {
		t.Errorf("attr density empty = %g, want 0", d)
	}
}

func TestTriangleCount(t *testing.T) {
	tri := mustGraph(t, 3, [][2]NodeID{{0, 1}, {1, 2}, {0, 2}})
	if c := TriangleCount(tri); c != 1 {
		t.Errorf("triangle count = %d, want 1", c)
	}
	k4 := mustGraph(t, 4, [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if c := TriangleCount(k4); c != 4 {
		t.Errorf("K4 triangles = %d, want 4", c)
	}
	path := mustGraph(t, 3, [][2]NodeID{{0, 1}, {1, 2}})
	if c := TriangleCount(path); c != 0 {
		t.Errorf("path triangles = %d, want 0", c)
	}
}

func TestRoundTripIO(t *testing.T) {
	b := NewBuilder(5, 3)
	_ = b.AddEdge(0, 1)
	_ = b.AddWeightedEdge(1, 2, 2.5)
	_ = b.AddEdge(3, 4)
	_ = b.SetAttrs(0, 0, 2)
	_ = b.SetAttrs(4, 1)
	g := b.Build()

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.NumAttrs() != g.NumAttrs() {
		t.Fatalf("shape mismatch: %v vs %v", g2, g)
	}
	if w := g2.EdgeWeight(1, 2); w != 2.5 {
		t.Errorf("weight lost: %g", w)
	}
	if !g2.HasAttr(0, 2) || !g2.HasAttr(4, 1) || g2.HasAttr(4, 0) {
		t.Error("attributes lost in round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not-a-graph\n1 0 0 0\n",
		"cod-graph 1\nbroken\n",
		"cod-graph 1\n2 1 0 0\ne 0 5\n",
		"cod-graph 1\n2 2 0 0\ne 0 1\n", // edge count mismatch
		"cod-graph 1\n2 0 0 0\nz 1 2\n",
	} {
		if _, err := Read(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("Read accepted %q", bad)
		}
	}
}

func TestGeneratorsConnected(t *testing.T) {
	rng := NewRand(7)
	cases := map[string]*Graph{
		"erdos": ErdosRenyi(200, 400, rng),
		"ba":    BarabasiAlbert(200, 3, rng),
		"ws":    WattsStrogatz(200, 3, 0.1, rng),
	}
	g, comms := PlantedPartition(PlantedPartitionSpec{N: 200, TargetM: 600, NumComms: 8, IntraFraction: 0.8, HubBias: 0.4}, rng)
	cases["planted"] = g
	if len(comms) != 200 {
		t.Fatalf("planted comms length %d", len(comms))
	}
	for name, gg := range cases {
		if !gg.Connected() {
			t.Errorf("%s: not connected", name)
		}
		if gg.N() != 200 {
			t.Errorf("%s: N = %d", name, gg.N())
		}
		if gg.M() == 0 {
			t.Errorf("%s: no edges", name)
		}
	}
}

func TestPlantedPartitionIntraBias(t *testing.T) {
	rng := NewRand(11)
	g, comms := PlantedPartition(PlantedPartitionSpec{N: 400, TargetM: 1600, NumComms: 10, IntraFraction: 0.8, HubBias: 0.2}, rng)
	intra, inter := 0, 0
	g.ForEachEdge(func(u, v NodeID, _ float64) {
		if comms[u] == comms[v] {
			intra++
		} else {
			inter++
		}
	})
	if intra <= inter {
		t.Errorf("intra=%d should dominate inter=%d", intra, inter)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := BarabasiAlbert(100, 2, NewRand(5))
	g2 := BarabasiAlbert(100, 2, NewRand(5))
	if g1.M() != g2.M() {
		t.Fatalf("nondeterministic edge count %d vs %d", g1.M(), g2.M())
	}
	for v := NodeID(0); v < 100; v++ {
		n1, n2 := g1.Neighbors(v), g2.Neighbors(v)
		if len(n1) != len(n2) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
}

// Property: Induce preserves adjacency — for random graphs and random node
// subsets, an edge exists in the subgraph iff it exists in the parent.
func TestInduceProperty(t *testing.T) {
	rng := NewRand(13)
	check := func(seed uint16) bool {
		r := NewRand(uint64(seed))
		g := ErdosRenyi(40, 80, r)
		var nodes []NodeID
		for v := NodeID(0); v < 40; v++ {
			if rng.Float64() < 0.5 {
				nodes = append(nodes, v)
			}
		}
		sub := Induce(g, nodes)
		for i, pu := range sub.ToParent {
			for j, pv := range sub.ToParent {
				if sub.G.HasEdge(NodeID(i), NodeID(j)) != g.HasEdge(pu, pv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: degree sums equal 2M for generated graphs.
func TestDegreeSumProperty(t *testing.T) {
	check := func(seed uint16) bool {
		r := NewRand(uint64(seed))
		g := ErdosRenyi(50+int(seed%50), 120, r)
		sum := 0
		for v := NodeID(0); v < NodeID(g.N()); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAvgAndMaxDegree(t *testing.T) {
	g := paperGraph(t)
	if got := AvgDegree(g); got != 3.0 { // 2*15/10
		t.Errorf("AvgDegree = %f, want 3", got)
	}
	if got := MaxDegree(g); got != 5 { // node 3: neighbors 0,1,2,5,7
		t.Errorf("MaxDegree = %d, want 5", got)
	}
	empty := &Graph{}
	if AvgDegree(empty) != 0 || MaxDegree(empty) != 0 {
		t.Error("empty graph degrees should be 0")
	}
}
