package hac

import (
	"context"
	"fmt"
	"testing"

	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
)

// mapClusterer is the clusterer as it stood with one Go map per cluster,
// kept as the reference the sorted-list clusterer must reproduce parent for
// parent. Map iteration order is random, but nn's tie-break (most similar,
// then prefer, then smallest id) and the commutative two-operand updates
// make its output independent of that order.
type mapClusterer struct {
	g       *graph.Graph
	linkage Linkage
	parent  []hier.Vertex
	size    []int32
	nbr     []map[int32]float64 // active-cluster adjacency: neighbor -> linkage state
	active  []bool
	next    int32
}

func newMapClusterer(g *graph.Graph, linkage Linkage) *mapClusterer {
	n := g.N()
	total := 2*n - 1
	c := &mapClusterer{
		g:       g,
		linkage: linkage,
		parent:  make([]hier.Vertex, total),
		size:    make([]int32, total),
		nbr:     make([]map[int32]float64, total),
		active:  make([]bool, total),
		next:    int32(n),
	}
	for i := range c.parent {
		c.parent[i] = -1
	}
	for v := 0; v < n; v++ {
		c.size[v] = 1
		c.active[v] = true
		m := make(map[int32]float64, g.Degree(graph.NodeID(v)))
		ws := g.Weights(graph.NodeID(v))
		for i, u := range g.Neighbors(graph.NodeID(v)) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			m[int32(u)] = w
		}
		c.nbr[v] = m
	}
	return c
}

// mapCluster runs the reference clusterer to completion and returns its
// parent array (a single node yields the one-vertex array).
func mapCluster(g *graph.Graph, linkage Linkage) []hier.Vertex {
	if g.N() == 1 {
		return []hier.Vertex{-1}
	}
	c := newMapClusterer(g, linkage)
	roots := c.run()
	acc := roots[0]
	for _, r := range roots[1:] {
		acc = c.newVertex(acc, r)
	}
	return c.parent
}

func (c *mapClusterer) sim(a, b int32, state float64) float64 {
	if c.linkage == UnweightedAverage {
		return state / (float64(c.size[a]) * float64(c.size[b]))
	}
	return state
}

func (c *mapClusterer) nn(a int32, prefer int32) (best int32, bestSim float64, ok bool) {
	best = -1
	for b, st := range c.nbr[a] {
		s := c.sim(a, b, st)
		switch {
		case best == -1, s > bestSim:
			best, bestSim = b, s
		//codvet:ignore floatcmp exact tie detection: equal linkage states must take the tie-break path
		case s == bestSim && (b == prefer || (best != prefer && b < best)):
			best = b
		}
	}
	return best, bestSim, best != -1
}

func (c *mapClusterer) run() []int32 {
	remaining := c.g.N()
	var chain []int32
	seed := int32(0)
	for remaining > 1 {
		if len(chain) == 0 {
			for seed < c.next && !c.active[seed] {
				seed++
			}
			if seed >= c.next {
				break
			}
			chain = append(chain, seed)
		}
		top := chain[len(chain)-1]
		prefer := int32(-1)
		if len(chain) >= 2 {
			prefer = chain[len(chain)-2]
		}
		b, _, ok := c.nn(top, prefer)
		if !ok {
			c.active[top] = false
			chain = chain[:len(chain)-1]
			remaining--
			continue
		}
		if b == prefer {
			chain = chain[:len(chain)-2]
			c.newVertex(top, b)
			remaining--
			continue
		}
		chain = append(chain, b)
	}
	var roots []int32
	for v := int32(0); v < c.next; v++ {
		if c.parent[v] == -1 {
			roots = append(roots, v)
		}
	}
	return roots
}

func (c *mapClusterer) newVertex(a, b int32) int32 {
	nv := c.next
	c.next++
	c.parent[a] = nv
	c.parent[b] = nv
	c.size[nv] = c.size[a] + c.size[b]
	c.active[a], c.active[b] = false, false
	c.active[nv] = true

	merged, other := c.nbr[a], c.nbr[b]
	if len(other) > len(merged) {
		merged, other = other, merged
	}
	delete(merged, a)
	delete(merged, b)
	delete(other, a)
	delete(other, b)
	switch c.linkage {
	case UnweightedAverage:
		for x, st := range other {
			merged[x] += st
		}
	case WeightedAverage:
		for x := range merged {
			merged[x] /= 2
		}
		for x, st := range other {
			merged[x] += st / 2
		}
	case Single:
		for x, st := range other {
			if cur, ok := merged[x]; !ok || st > cur {
				merged[x] = st
			}
		}
	}
	c.nbr[nv] = merged
	c.nbr[a], c.nbr[b] = nil, nil
	for x, st := range merged {
		mx := c.nbr[x]
		delete(mx, a)
		delete(mx, b)
		mx[nv] = st
	}
	return nv
}

var allLinkages = []Linkage{UnweightedAverage, WeightedAverage, Single}

// sameParents fails t unless ws (reused across calls, as the engine reuses
// its query scratch) and the package-level ClusterCtx both build exactly
// the map clusterer's parent array for g.
func sameParents(t *testing.T, name string, ws *Workspace, g *graph.Graph, linkage Linkage) {
	t.Helper()
	want := mapCluster(g, linkage)
	for i, cluster := range []func() (*hier.Tree, error){
		func() (*hier.Tree, error) { return ws.ClusterCtx(context.Background(), g, linkage) },
		func() (*hier.Tree, error) { return Cluster(g, linkage) },
	} {
		tr, err := cluster()
		if err != nil {
			t.Fatalf("%s %v: %v", name, linkage, err)
		}
		if tr.NumVertices() != len(want) {
			t.Fatalf("%s %v (run %d): %d vertices, map clusterer %d", name, linkage, i, tr.NumVertices(), len(want))
		}
		for v := range want {
			if got := tr.Parent(hier.Vertex(v)); got != want[v] {
				t.Fatalf("%s %v (run %d): parent(%d) = %d, map clusterer %d", name, linkage, i, v, got, want[v])
			}
		}
	}
}

// randomWeights returns g with every edge weight drawn from (0.05, 3.05):
// non-dyadic values, so sums and halvings round and a reordered update
// would show.
func randomWeights(t *testing.T, g *graph.Graph, seed uint64) *graph.Graph {
	t.Helper()
	rng := graph.NewRand(seed)
	gw, err := graph.Reweight(g, func(_, _ graph.NodeID, _ float64) float64 {
		return 0.05 + 3*rng.Float64()
	})
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

// withIsolated returns g plus extra isolated nodes, and a few edges among
// fresh nodes forming small separate components.
func withIsolated(t *testing.T, g *graph.Graph, isolated int) *graph.Graph {
	t.Helper()
	n := g.N()
	b := graph.NewBuilder(n+isolated+6, 0)
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if err := b.AddWeightedEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	})
	base := graph.NodeID(n + isolated)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}} {
		if err := b.AddEdge(base+e[0], base+e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestClusterMatchesMapClusterer compares the sorted-list clusterer with
// the map clusterer on random Erdős–Rényi and Barabási–Albert graphs,
// unweighted and with random non-dyadic weights, under all three
// linkages, with isolated nodes and several components, through one
// reused Workspace.
func TestClusterMatchesMapClusterer(t *testing.T) {
	ws := new(Workspace)
	for seed := uint64(0); seed < 6; seed++ {
		rng := graph.NewRand(seed + 100)
		n := 20 + rng.IntN(120)
		graphs := map[string]*graph.Graph{
			"er": graph.ErdosRenyi(n, 2*n+rng.IntN(3*n), rng),
			"ba": graph.BarabasiAlbert(n, 1+rng.IntN(3), rng),
		}
		for _, kind := range []string{"er", "ba"} {
			g := graphs[kind]
			for _, variant := range []struct {
				name string
				g    *graph.Graph
			}{
				{"unweighted", g},
				{"weighted", randomWeights(t, g, seed)},
				{"isolated", withIsolated(t, g, 1+int(seed))},
				{"isolated-weighted", randomWeights(t, withIsolated(t, g, 3), seed+7)},
			} {
				name := fmt.Sprintf("%s seed %d %s", kind, seed, variant.name)
				for _, l := range allLinkages {
					sameParents(t, name, ws, variant.g, l)
				}
			}
		}
	}
	// Degenerate shapes: one node, two nodes, no edges at all.
	for _, edges := range []struct {
		n     int
		edges [][2]graph.NodeID
	}{{1, nil}, {2, [][2]graph.NodeID{{0, 1}}}, {5, nil}} {
		g, err := graph.FromEdges(edges.n, edges.edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range allLinkages {
			sameParents(t, fmt.Sprintf("n=%d", edges.n), ws, g, l)
		}
	}
}

// TestClusterMatchesMapClustererStandIns compares the two clusterers on the
// cora, citeseer and dblp stand-ins at graph seed 42, plain and reweighted
// the way LORE and CODR weight them (edges between two nodes carrying the
// attribute get weight w·(1+β)) at β = 1 and 0.3, for the first two
// attributes. dblp runs outside -short.
func TestClusterMatchesMapClustererStandIns(t *testing.T) {
	names := []string{"cora", "citeseer", "dblp"}
	if testing.Short() {
		names = names[:2]
	}
	ws := new(Workspace)
	for _, name := range names {
		ds, err := dataset.Load(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.G
		sameParents(t, name, ws, g, UnweightedAverage)
		for attr := graph.AttrID(0); attr < 2; attr++ {
			for _, beta := range []float64{1, 0.3} {
				gw, err := graph.Reweight(g, func(u, v graph.NodeID, w float64) float64 {
					if g.HasAttr(u, attr) && g.HasAttr(v, attr) {
						return w * (1 + beta)
					}
					return w
				})
				if err != nil {
					t.Fatal(err)
				}
				sameParents(t, fmt.Sprintf("%s attr %d β=%g", name, attr, beta), ws, gw, UnweightedAverage)
			}
		}
	}
}
