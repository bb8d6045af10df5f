// Package hac implements agglomerative hierarchical graph clustering with
// the nearest-neighbor chain algorithm, producing the community hierarchy
// (dendrogram) consumed by the COD algorithms.
//
// Following the paper's setup (§V-A), the default linkage is the unweighted
// average (UPGMA) similarity between clusters A and B on a weighted graph:
//
//	sim(A, B) = (Σ weight of edges between A and B) / (|A|·|B|)
//
// which is reducible, so the nearest-neighbor chain algorithm produces the
// same dendrogram as greedy agglomeration. Single linkage and WPGMA are
// available for ablations.
package hac

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/obs"
)

// Linkage selects the cluster-similarity update rule.
type Linkage int

const (
	// UnweightedAverage is UPGMA: average pairwise similarity, with absent
	// edges counting as similarity 0. The paper's default.
	UnweightedAverage Linkage = iota
	// WeightedAverage is WPGMA: the merged similarity is the plain mean of
	// the two constituents' similarities.
	WeightedAverage
	// Single linkage: the merged similarity is the max of the constituents'.
	Single
)

func (l Linkage) String() string {
	switch l {
	case UnweightedAverage:
		return "unweighted-average"
	case WeightedAverage:
		return "weighted-average"
	case Single:
		return "single"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Cluster builds the dendrogram of g using the nearest-neighbor chain
// algorithm under the given linkage. Disconnected graphs are supported: each
// component is clustered separately and the component roots are then merged
// left-to-right (with similarity 0) into a single root, so the result is
// always one tree spanning all nodes.
func Cluster(g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	return ClusterCtx(context.Background(), g, linkage)
}

// ClusterCtx is Cluster with cancellation: the merge loop polls ctx.Err()
// at a bounded interval and aborts with an error wrapping the context error.
// An uncancelled run is identical to Cluster (polling draws nothing).
func ClusterCtx(ctx context.Context, g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("hac: empty graph")
	}
	if n == 1 {
		return hier.New(1, []hier.Vertex{-1})
	}
	c := newClusterer(g, linkage)

	// The merge span flushes even on cancellation, counting the internal
	// vertices created so far (merges completed).
	span := obs.FromContext(ctx).StartSpan(obs.StageHACMerge)
	roots, err := c.run(ctx)
	if err != nil {
		span.EndItems(int(c.next) - n)
		return nil, err
	}
	// Merge component roots (if several) under zero similarity, folding
	// left: the running root absorbs each next component in order.
	acc := roots[0]
	for _, r := range roots[1:] {
		acc = c.newVertex(acc, r)
	}
	span.EndItems(int(c.next) - n)
	return hier.New(n, c.parent)
}

// newClusterer returns the merge state of g with every node its own
// active cluster.
func newClusterer(g *graph.Graph, linkage Linkage) *clusterer {
	n := g.N()
	total := 2*n - 1
	c := &clusterer{
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

// ClusterBalanced clusters g and then rebalances the dendrogram along its
// heavy paths (hier.Rebalance), bounding every node's ancestor chain by
// O(log²n) regardless of hub skew. Use it when HIMOR cost on caterpillar
// dendrograms matters more than exact agglomerative faithfulness.
func ClusterBalanced(g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	return ClusterBalancedCtx(context.Background(), g, linkage)
}

// ClusterBalancedCtx is ClusterBalanced with cancellation (see ClusterCtx).
func ClusterBalancedCtx(ctx context.Context, g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	t, err := ClusterCtx(ctx, g, linkage)
	if err != nil {
		return nil, err
	}
	return hier.Rebalance(t)
}

type clusterer struct {
	g       *graph.Graph
	linkage Linkage
	parent  []hier.Vertex
	size    []int32
	nbr     []map[int32]float64 // active-cluster adjacency: neighbor -> linkage state
	active  []bool
	next    int32 // next internal vertex id
}

// sim converts the stored linkage state between clusters a and b into a
// comparable similarity.
func (c *clusterer) sim(a, b int32, state float64) float64 {
	if c.linkage == UnweightedAverage {
		return state / (float64(c.size[a]) * float64(c.size[b]))
	}
	return state
}

// nn returns the most similar active neighbor of a (ties broken toward
// prefer, then by smallest id) and its similarity; ok is false when a has no
// active neighbors.
func (c *clusterer) nn(a int32, prefer int32) (best int32, bestSim float64, ok bool) {
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

// clusterPollEvery bounds the cancellation-check interval of the merge
// loop: ctx.Err() is consulted once per this many chain steps.
const clusterPollEvery = 256

// run performs nearest-neighbor chain clustering over all components and
// returns the remaining roots (one per component). It polls ctx at a
// bounded interval and aborts with the number of merges completed.
func (c *clusterer) run(ctx context.Context) ([]int32, error) {
	n := c.g.N()
	remaining := n
	chain := make([]int32, 0, 64)
	seed := int32(0) // smallest untouched active cluster to restart chains

	steps := 0
	for remaining > 1 {
		if steps%clusterPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("hac: clustering canceled after %d/%d merges: %w",
					n-remaining, n-1, err)
			}
		}
		steps++
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
			// top is an isolated component root: set it aside.
			c.active[top] = false
			chain = chain[:len(chain)-1]
			// Not merged, so it stays a component root; it will be collected
			// in the final sweep below. remaining is unchanged for merging
			// purposes but the chain must not loop on it again.
			remaining--
			continue
		}
		if b == prefer {
			// Mutual nearest neighbors: merge top and prefer.
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
	return roots, nil
}

// newVertex merges clusters a and b into a fresh internal vertex, updating
// adjacency with small-to-large map merging, and returns the new vertex id.
func (c *clusterer) newVertex(a, b int32) int32 {
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
		// States are S-values (summed inter-cluster edge weights): they add.
		for x, st := range other {
			merged[x] += st
		}
	case WeightedAverage:
		// sim(N,x) = (sim(a,x) + sim(b,x)) / 2, absent sides contribute 0.
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
	// Rewire the neighbors' maps to point at nv with the symmetric state.
	for x, st := range merged {
		mx := c.nbr[x]
		delete(mx, a)
		delete(mx, b)
		mx[nv] = st
	}
	return nv
}
