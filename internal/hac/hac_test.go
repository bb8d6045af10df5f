package hac

import (
	"context"
	"testing"
	"testing/quick"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
)

func twoCliques(t *testing.T) *graph.Graph {
	t.Helper()
	// two 4-cliques joined by a single bridge edge
	b := graph.NewBuilder(8, 0)
	clique := func(nodes []graph.NodeID) {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if err := b.AddEdge(nodes[i], nodes[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	clique([]graph.NodeID{0, 1, 2, 3})
	clique([]graph.NodeID{4, 5, 6, 7})
	if err := b.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestClusterShape(t *testing.T) {
	g := twoCliques(t)
	tr, err := Cluster(g, UnweightedAverage)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if tr.N() != 8 {
		t.Fatalf("leaves = %d", tr.N())
	}
	if tr.NumVertices() != 15 { // 2n-1 for a binary dendrogram
		t.Fatalf("vertices = %d, want 15", tr.NumVertices())
	}
	if tr.Size(tr.Root()) != 8 {
		t.Errorf("root size = %d", tr.Size(tr.Root()))
	}
}

func TestClusterSeparatesCliques(t *testing.T) {
	g := twoCliques(t)
	tr, err := Cluster(g, UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	// The two cliques should be completely assembled before the bridge merge:
	// lca of any two same-clique nodes must be deeper than the root.
	root := tr.Root()
	for _, pair := range [][2]graph.NodeID{{0, 3}, {1, 2}, {4, 7}, {5, 6}} {
		if l := tr.LCANodes(pair[0], pair[1]); l == root {
			t.Errorf("nodes %v only meet at the root; cliques split too early", pair)
		}
	}
	// Cross-clique pairs meet exactly at the root.
	if l := tr.LCANodes(0, 7); l != root {
		t.Errorf("cross-clique lca = %d, want root %d", l, root)
	}
}

func TestClusterDisconnected(t *testing.T) {
	g, err := graph.FromEdges(6, [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	tr, errC := Cluster(g, UnweightedAverage)
	if errC != nil {
		t.Fatalf("Cluster on disconnected graph: %v", errC)
	}
	if tr.N() != 6 || tr.Size(tr.Root()) != 6 {
		t.Fatalf("root does not span all leaves: %d", tr.Size(tr.Root()))
	}
	// Within-component pairs meet below the root.
	if tr.LCANodes(0, 2) == tr.Root() {
		t.Error("component {0,1,2} split across the root")
	}
}

func TestClusterSingleNode(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, errC := Cluster(g, UnweightedAverage)
	if errC != nil {
		t.Fatal(errC)
	}
	if tr.N() != 1 || tr.NumVertices() != 1 {
		t.Errorf("degenerate tree: n=%d v=%d", tr.N(), tr.NumVertices())
	}
}

func TestClusterTwoNodes(t *testing.T) {
	g, err := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tr, errC := Cluster(g, UnweightedAverage)
	if errC != nil {
		t.Fatal(errC)
	}
	if tr.NumVertices() != 3 || tr.Size(tr.Root()) != 2 {
		t.Error("two-node dendrogram wrong")
	}
}

func TestLinkagesProduceValidTrees(t *testing.T) {
	rng := graph.NewRand(3)
	g := graph.ErdosRenyi(60, 150, rng)
	for _, l := range []Linkage{UnweightedAverage, WeightedAverage, Single} {
		tr, err := Cluster(g, l)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if tr.Size(tr.Root()) != 60 {
			t.Errorf("%v: root size %d", l, tr.Size(tr.Root()))
		}
	}
}

func TestLinkageString(t *testing.T) {
	if UnweightedAverage.String() != "unweighted-average" || Single.String() != "single" {
		t.Error("Linkage.String broken")
	}
	if Linkage(42).String() == "" {
		t.Error("unknown linkage should still format")
	}
}

func TestClusterDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(80, 2, graph.NewRand(9))
	t1, err1 := Cluster(g, UnweightedAverage)
	t2, err2 := Cluster(g, UnweightedAverage)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := 0; v < t1.NumVertices(); v++ {
		if t1.Parent(hier.Vertex(v)) != t2.Parent(hier.Vertex(v)) {
			t.Fatalf("nondeterministic dendrogram at vertex %d", v)
		}
	}
}

// Property: for random connected graphs the dendrogram is a full binary tree
// with 2n-1 vertices, every internal vertex has exactly 2 children, and
// subtree sizes add up.
func TestDendrogramInvariants(t *testing.T) {
	check := func(seed uint16) bool {
		rng := graph.NewRand(uint64(seed))
		n := 5 + rng.IntN(60)
		g := graph.ErdosRenyi(n, 3*n, rng)
		if !g.Connected() {
			return true // connect() guarantees this, but stay safe
		}
		tr, err := Cluster(g, UnweightedAverage)
		if err != nil {
			return false
		}
		if tr.NumVertices() != 2*n-1 {
			return false
		}
		for v := n; v < tr.NumVertices(); v++ {
			ch := tr.Children(hier.Vertex(v))
			if len(ch) != 2 {
				return false
			}
			if tr.Size(ch[0])+tr.Size(ch[1]) != tr.Size(hier.Vertex(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property (reducibility consequence): along any root-to-leaf path the
// community sizes strictly decrease.
func TestChainSizesMonotone(t *testing.T) {
	g := graph.WattsStrogatz(100, 3, 0.1, graph.NewRand(21))
	tr, err := Cluster(g, UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	for leaf := 0; leaf < g.N(); leaf++ {
		prev := 1
		for _, a := range tr.Ancestors(hier.Vertex(leaf)) {
			if tr.Size(a) <= prev {
				t.Fatalf("sizes not increasing along H(%d)", leaf)
			}
			prev = tr.Size(a)
		}
	}
}

// ClusterBalanced must flatten hub-heavy dendrograms: on a star-burst graph
// its Σ dep(v) should be far below plain UPGMA's.
func TestClusterBalancedFlattensHubs(t *testing.T) {
	g := graph.HubBurst(2000, 3, 0.5, 0.4, 5, graph.NewRand(77))
	up, err := Cluster(g, UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := ClusterBalanced(g, UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	if bal.Size(bal.Root()) != 2000 || bal.N() != 2000 {
		t.Fatal("balanced tree lost leaves")
	}
	du, db := up.SumLeafDepths(), bal.SumLeafDepths()
	if db*5 > du {
		t.Errorf("balanced Σdep = %d not far below UPGMA's %d", db, du)
	}
}

// TestComponentRootMergeMatchesLegacy checks the left fold that joins
// component roots against the loop it replaced, which copied the root list
// on every merge (quadratic in the component count), on a graph of 2,000
// components: 1,500 edges, 300 triangles and 200 isolated nodes.
func TestComponentRootMergeMatchesLegacy(t *testing.T) {
	const edges, triangles, isolated = 1500, 300, 200
	b := graph.NewBuilder(2*edges+3*triangles+isolated, 0)
	add := func(u, v int) {
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < edges; i++ {
		add(2*i, 2*i+1)
	}
	for i := 0; i < triangles; i++ {
		u := 2*edges + 3*i
		add(u, u+1)
		add(u+1, u+2)
		add(u, u+2)
	}
	g := b.Build()
	for _, linkage := range []Linkage{UnweightedAverage, WeightedAverage} {
		tr, err := Cluster(g, linkage)
		if err != nil {
			t.Fatal(err)
		}
		var c clusterer
		c.reset(g, linkage)
		roots, err := c.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(roots) != edges+triangles+isolated {
			t.Fatalf("%v: %d component roots, want %d", linkage, len(roots), edges+triangles+isolated)
		}
		for len(roots) > 1 {
			nv := c.newVertex(roots[0], roots[1])
			roots = append([]int32{nv}, roots[2:]...)
		}
		if tr.NumVertices() != len(c.parent) {
			t.Fatalf("%v: %d vertices, legacy %d", linkage, tr.NumVertices(), len(c.parent))
		}
		for v := range c.parent {
			if got := tr.Parent(hier.Vertex(v)); got != c.parent[v] {
				t.Fatalf("%v: parent(%d) = %d, legacy %d", linkage, v, got, c.parent[v])
			}
		}
	}
}
