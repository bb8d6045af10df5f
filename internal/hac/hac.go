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
	return new(Workspace).ClusterCtx(ctx, g, linkage)
}

// Workspace holds the merge state of one clustering so that successive
// clusterings reuse its arrays; only the parent array the returned tree
// keeps is allocated per call. The zero value is ready to use. A Workspace
// runs one clustering at a time.
type Workspace struct {
	c clusterer
}

// ClusterCtx is the package-level ClusterCtx run in w's arrays; the trees
// are the same.
func (w *Workspace) ClusterCtx(ctx context.Context, g *graph.Graph, linkage Linkage) (*hier.Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("hac: empty graph")
	}
	if n == 1 {
		return hier.New(1, []hier.Vertex{-1})
	}
	c := &w.c
	c.reset(g, linkage)
	defer func() { c.g, c.parent = nil, nil }() // the tree keeps parent

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

// nbr is one entry of a cluster's neighbour list: an adjacent active
// cluster and the linkage state between the two.
type nbr struct {
	id int32
	st float64
}

// clusterer is the merge state. Every active cluster keeps its neighbour
// list sorted by cluster id in one shared buffer: cluster c's list is
// buf[start[c]:start[c]+deg[c]]. Lists sit in the buffer in cluster-id
// order, because leaves start as their CSR rows and each merge appends the
// list of the new, largest, id at the end; compact keeps that order.
type clusterer struct {
	g       *graph.Graph
	linkage Linkage
	parent  []hier.Vertex
	size    []int32
	active  []bool
	start   []int32
	deg     []int32
	buf     []nbr
	chain   []int32
	next    int32 // next internal vertex id
}

// reset makes c the merge state of g with every node its own active
// cluster, reusing c's arrays. A node's list starts as its CSR row: sorted
// by node id, which is its cluster id.
func (c *clusterer) reset(g *graph.Graph, linkage Linkage) {
	n := g.N()
	total := 2*n - 1
	c.g, c.linkage, c.next = g, linkage, int32(n)
	c.parent = make([]hier.Vertex, total)
	for i := range c.parent {
		c.parent[i] = -1
	}
	c.size = resize(c.size, total)
	c.active = resize(c.active, total)
	c.start = resize(c.start, total)
	c.deg = resize(c.deg, total)
	// A merge sets its vertex's size, activity and list, but compact runs
	// before the list is set and reads every degree up to next.
	clear(c.deg[n:])
	// Live entries never exceed the initial 2M (a merge replaces x's
	// entries for a and b by one for the new vertex), so twice that leaves
	// room for the merged lists between compactions.
	if want := 4*g.M() + 16; cap(c.buf) < want {
		c.buf = make([]nbr, 0, want)
	}
	c.buf = c.buf[:0]
	for v := 0; v < n; v++ {
		c.size[v] = 1
		c.active[v] = true
		c.start[v] = int32(len(c.buf))
		ws := g.Weights(graph.NodeID(v))
		for i, u := range g.Neighbors(graph.NodeID(v)) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			c.buf = append(c.buf, nbr{id: u, st: w})
		}
		c.deg[v] = int32(len(c.buf)) - c.start[v]
	}
	c.chain = c.chain[:0]
}

// resize returns s with length n, reallocating only when its capacity is
// short. Callers overwrite the elements they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// list returns cluster x's neighbour list, aliasing the buffer.
func (c *clusterer) list(x int32) []nbr {
	s := c.start[x]
	return c.buf[s : s+c.deg[x]]
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
	// The list ascends by id, so an equal similarity replaces the best only
	// when it comes from prefer.
	for _, e := range c.list(a) {
		s := c.sim(a, e.id, e.st)
		switch {
		case best == -1, s > bestSim:
			best, bestSim = e.id, s
		//codvet:ignore floatcmp exact tie detection: equal linkage states must take the tie-break path
		case s == bestSim && e.id == prefer:
			best = e.id
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
	chain := c.chain[:0]
	defer func() { c.chain = chain[:0] }()
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

// newVertex merges clusters a and b into a fresh internal vertex and
// returns its id. The new list is one merge pass over a's and b's lists,
// applying the linkage's two-operand update where both have a neighbour
// and the one-sided value (halved under WPGMA) where only one does; each
// neighbour then drops its entries for a and b and appends the new id,
// which is the largest so far and keeps its list sorted.
func (c *clusterer) newVertex(a, b int32) int32 {
	nv := c.next
	c.next++
	c.parent[a] = nv
	c.parent[b] = nv
	c.size[nv] = c.size[a] + c.size[b]
	c.active[a], c.active[b] = false, false
	c.active[nv] = true

	if need := int(c.deg[a] + c.deg[b]); len(c.buf)+need > cap(c.buf) {
		c.compact(need)
	}
	la, lb := c.list(a), c.list(b)
	c.start[nv] = int32(len(c.buf))
	// Appends stay within capacity, so la and lb stay valid while they are
	// read.
	half := c.linkage == WeightedAverage
	i, j := 0, 0
	for i < len(la) || j < len(lb) {
		var e nbr
		switch {
		case j == len(lb) || (i < len(la) && la[i].id < lb[j].id):
			e = la[i]
			i++
			if half {
				e.st /= 2
			}
		case i == len(la) || lb[j].id < la[i].id:
			e = lb[j]
			j++
			if half {
				e.st /= 2
			}
		default:
			e = nbr{id: la[i].id, st: c.combine(la[i].st, lb[j].st)}
			i++
			j++
		}
		if e.id == a || e.id == b {
			continue
		}
		c.buf = append(c.buf, e)
	}
	c.deg[nv] = int32(len(c.buf)) - c.start[nv]
	c.deg[a], c.deg[b] = 0, 0
	for _, e := range c.list(nv) {
		c.rewire(e.id, a, b, nbr{id: nv, st: e.st})
	}
	return nv
}

// combine is the linkage state of the new vertex towards a neighbour of
// both merged clusters, from the two states.
func (c *clusterer) combine(sa, sb float64) float64 {
	switch c.linkage {
	case WeightedAverage:
		// sim(N,x) = (sim(a,x) + sim(b,x)) / 2.
		return sa/2 + sb/2
	case Single:
		return max(sa, sb)
	default:
		// UPGMA states are S-values (summed inter-cluster edge weights).
		return sa + sb
	}
}

// rewire removes a's and b's entries from x's list (at least one is there)
// and appends e, shifting the entries after the first of them left in
// place.
func (c *clusterer) rewire(x, a, b int32, e nbr) {
	l := c.list(x)
	w := search(l, min(a, b))
	for _, f := range l[w:] {
		if f.id != a && f.id != b {
			l[w] = f
			w++
		}
	}
	l[w] = e
	c.deg[x] = int32(w + 1)
}

// search returns the position of id in the sorted list l, or where it
// would be inserted.
func search(l []nbr, id int32) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// compact slides every live list to the front of the buffer, in cluster-id
// order (their order in the buffer, so each copy moves left over space
// already read), and grows the buffer if need entries still do not fit.
func (c *clusterer) compact(need int) {
	w := int32(0)
	for x := int32(0); x < c.next; x++ {
		d := c.deg[x]
		copy(c.buf[w:w+d], c.list(x))
		c.start[x] = w
		w += d
	}
	c.buf = c.buf[:w]
	if int(w)+need > cap(c.buf) {
		grown := make([]nbr, w, 2*(int(w)+need))
		copy(grown, c.buf)
		c.buf = grown
	}
}
