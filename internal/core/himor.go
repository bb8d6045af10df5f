package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// Himor is the HIMOR index (§IV-B): for every node v, the influence rank of
// v inside every community of the non-attributed hierarchy containing v.
// Construction is compressed: one shared pool of RR graphs, HFS over the
// tree to fill per-vertex buckets, and a bottom-up sorted merge that turns
// cumulative counts into ranks (each node is merged dep(v) times).
type Himor struct {
	t     *hier.Tree
	theta int

	// rank[u][i] is u's influence rank in its i-th ancestor community
	// (i = 0 is the parent of leaf u, the last is the root); -1 means "u
	// appeared in no RR graph within that community", in which case the rank
	// is nnz of the vertex (all nonzero-count nodes beat u).
	rank [][]int32
	// nnz[vertex] is the number of nodes with nonzero cumulative count.
	nnz []int32
}

// BuildHimor constructs the HIMOR index over hierarchy t of graph g, using
// theta RR graphs per node (Θ = theta·|V|) under the given IC influence
// model. For other models use BuildHimorWithSampler.
func BuildHimor(g *graph.Graph, t *hier.Tree, model influence.Model, theta int, rng *rand.Rand) *Himor {
	return BuildHimorWithSampler(g, t, influence.NewSampler(g, model, rng), theta)
}

// BuildHimorWithSampler constructs the HIMOR index from any RR-graph
// sampler (IC, LT, ...), using Θ = theta·|V| samples.
func BuildHimorWithSampler(g *graph.Graph, t *hier.Tree, sampler influence.GraphSampler, theta int) *Himor {
	return buildHimor(g, t, theta, func() *influence.RRGraph { return sampler.RRGraph() })
}

// BuildHimorWithSamplerCtx is BuildHimorWithSampler with cancellation: the
// sampling runs through influence.BatchCtx, which polls ctx.Err() at a
// bounded interval. Uncancelled builds are identical.
func BuildHimorWithSamplerCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, sampler influence.GraphSampler, theta int) (*Himor, error) {
	pool, err := influence.BatchCtx(ctx, sampler, theta*g.N())
	if err != nil {
		return nil, err
	}
	span := obs.FromContext(ctx).StartSpan(obs.StageHimorBuild)
	i := 0
	h := buildHimor(g, t, theta, func() *influence.RRGraph {
		r := pool[i]
		i++
		return r
	})
	span.EndItems(len(pool))
	return h, nil
}

// BuildHimorParallelCtx constructs the index from an RR pool sampled across
// workers goroutines under the IC model (sampling dominates construction
// cost, so parallelizing it captures most of the speedup; the HFS and
// bottom-up merge stay single-threaded and deterministic). Each pool sample
// is seeded from its index, so the index is byte-identical for any workers.
// Every sampling worker polls ctx.Err() at a bounded interval (see
// influence.ParallelBatchCtx), so shutdown can abandon a warmup in flight.
func BuildHimorParallelCtx(ctx context.Context, g *graph.Graph, t *hier.Tree, model influence.Model, theta int, seed uint64, workers int) (*Himor, error) {
	pool, err := influence.ParallelBatchCtx(ctx, g, model, theta*g.N(), seed, workers)
	if err != nil {
		return nil, err
	}
	span := obs.FromContext(ctx).StartSpan(obs.StageHimorBuild)
	i := 0
	h := buildHimor(g, t, theta, func() *influence.RRGraph {
		r := pool[i]
		i++
		return r
	})
	span.EndItems(len(pool))
	return h, nil
}

// buildHimor runs the compressed construction, drawing Θ = theta·|V| RR
// graphs from next().
func buildHimor(g *graph.Graph, t *hier.Tree, theta int, next func() *influence.RRGraph) *Himor {
	n := g.N()
	h := &Himor{t: t, theta: theta}
	h.rank = make([][]int32, n)
	for u := 0; u < n; u++ {
		depth := t.Depth(t.LeafOf(graph.NodeID(u))) - 1 // number of proper ancestors
		r := make([]int32, depth)
		for i := range r {
			r[i] = -1
		}
		h.rank[u] = r
	}
	h.nnz = make([]int32, t.NumVertices())

	// Stage 1: HFS over Θ RR graphs. For an RR graph rooted at s the tags
	// form the ancestor chain of leaf(s), so the traversal is exactly the
	// chain HFS of Algorithm 1 with buckets living on tree vertices.
	buckets := make([]map[graph.NodeID]int32, t.NumVertices())
	theta0 := theta * n
	queues := make([][]int32, 0, 64)
	for i := 0; i < theta0; i++ {
		r := next()
		src := r.Source()
		chainVerts := t.Ancestors(t.LeafOf(src))
		if len(chainVerts) == 0 {
			continue // single-node graph
		}
		L := len(chainVerts)
		topDepth := t.Depth(chainVerts[0])
		if cap(queues) < L {
			queues = make([][]int32, L)
		}
		queues = queues[:L]
		visited := make([]bool, r.Len())
		visited[0] = true
		queues[0] = append(queues[0], 0)
		leafSrc := t.LeafOf(src)
		for lev := 0; lev < L; lev++ {
			q := queues[lev]
			for qi := 0; qi < len(q); qi++ {
				p := q[qi]
				node := r.Nodes[p]
				vert := chainVerts[lev]
				if buckets[vert] == nil {
					buckets[vert] = make(map[graph.NodeID]int32)
				}
				buckets[vert][node]++
				for _, tp := range r.Adj[r.Off[p]:r.Off[p+1]] {
					if visited[tp] {
						continue
					}
					visited[tp] = true
					u := r.Nodes[tp]
					lu := 0
					if u != src {
						lu = topDepth - t.Depth(t.LCA(leafSrc, t.LeafOf(u)))
					}
					if lu < lev {
						lu = lev
					}
					queues[lu] = append(queues[lu], tp)
					q = queues[lev]
				}
			}
			queues[lev] = q[:0]
		}
	}

	// Stage 2: bottom-up merge. Processing vertices deepest-first guarantees
	// children are folded before parents. cum[v] holds the cumulative counts
	// of v's subtree; maps are merged small-to-large.
	cum := make([]map[graph.NodeID]int32, t.NumVertices())
	type entry struct {
		node graph.NodeID
		cnt  int32
	}
	var scratch []entry
	for _, v := range t.VerticesByDepthDesc() {
		if t.IsLeaf(v) {
			continue
		}
		merged := buckets[v]
		buckets[v] = nil
		for _, c := range t.Children(v) {
			child := cum[c]
			cum[c] = nil
			if child == nil {
				continue
			}
			if merged == nil || len(merged) < len(child) {
				merged, child = child, merged
			}
			for node, cnt := range child {
				merged[node] += cnt
			}
		}
		if merged == nil {
			merged = make(map[graph.NodeID]int32)
		}
		cum[v] = merged
		h.nnz[v] = int32(len(merged))

		// Rank assignment under the canonical influence order (count
		// descending, ties by smaller node ID): rank = sorted position, i.e.
		// the number of nodes ranked ahead. Matching rankOf keeps online and
		// index-based ranks identical even on count ties.
		scratch = scratch[:0]
		for node, cnt := range merged {
			scratch = append(scratch, entry{node, cnt})
		}
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i].cnt != scratch[j].cnt {
				return scratch[i].cnt > scratch[j].cnt
			}
			return scratch[i].node < scratch[j].node
		})
		depthV := t.Depth(v)
		for i, e := range scratch {
			idx := (t.Depth(t.LeafOf(e.node)) - 1) - depthV
			h.rank[e.node][idx] = int32(i)
		}
	}
	return h
}

// Rank returns rank_C(q) for a community vertex v that contains q: the
// number of nodes in C ranked ahead of q under the canonical influence order
// (estimated influence descending, ties by smaller node ID).
func (h *Himor) Rank(q graph.NodeID, v hier.Vertex) int {
	idx := (h.t.Depth(h.t.LeafOf(q)) - 1) - h.t.Depth(v)
	if idx < 0 || idx >= len(h.rank[q]) {
		return int(h.nnz[v])
	}
	if r := h.rank[q][idx]; r >= 0 {
		return int(r)
	}
	return int(h.nnz[v])
}

// Theta returns the per-node sampling multiplier the index was built with.
func (h *Himor) Theta() int { return h.theta }

// Tree returns the hierarchy the index is defined over.
func (h *Himor) Tree() *hier.Tree { return h.t }

// ApproxBytes estimates the in-memory footprint of the index (rank arrays
// plus per-vertex counters), for the Table II overhead experiment.
func (h *Himor) ApproxBytes() int64 {
	var b int64
	for _, r := range h.rank {
		b += int64(len(r)) * 4
	}
	b += int64(len(h.nnz)) * 4
	return b
}

var himorMagic = [8]byte{'c', 'o', 'd', 'h', 'i', 'm', 'r', '1'}

// WriteTo serializes the index (without its tree: persist the tree
// separately and pass it to ReadHimor, which validates the shapes match).
func (h *Himor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		total += int64(binary.Size(v))
		return nil
	}
	if err := write(himorMagic); err != nil {
		return total, err
	}
	if err := write(int64(h.theta)); err != nil {
		return total, err
	}
	if err := write(int64(len(h.nnz))); err != nil {
		return total, err
	}
	if err := write(h.nnz); err != nil {
		return total, err
	}
	if err := write(int64(len(h.rank))); err != nil {
		return total, err
	}
	for _, r := range h.rank {
		if err := write(int64(len(r))); err != nil {
			return total, err
		}
		if err := write(r); err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// ReadHimor deserializes an index written by WriteTo, binding it to t. The
// per-node rank array lengths must match t's leaf depths.
func ReadHimor(r io.Reader, t *hier.Tree) (*Himor, error) {
	br := r // exact-size reads only; the stream may carry trailing data
	var magic [8]byte
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("core: reading himor magic: %w", err)
	}
	if magic != himorMagic {
		return nil, fmt.Errorf("core: bad himor magic %q", magic)
	}
	var theta, nv, n int64
	if err := binary.Read(br, binary.LittleEndian, &theta); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nv); err != nil {
		return nil, err
	}
	if int(nv) != t.NumVertices() {
		return nil, fmt.Errorf("core: himor has %d vertices, tree has %d", nv, t.NumVertices())
	}
	h := &Himor{t: t, theta: int(theta), nnz: make([]int32, nv)}
	if err := binary.Read(br, binary.LittleEndian, h.nnz); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) != t.N() {
		return nil, fmt.Errorf("core: himor has %d nodes, tree has %d", n, t.N())
	}
	h.rank = make([][]int32, n)
	for u := int64(0); u < n; u++ {
		var l int64
		if err := binary.Read(br, binary.LittleEndian, &l); err != nil {
			return nil, err
		}
		want := int64(t.Depth(t.LeafOf(graph.NodeID(u))) - 1)
		if l != want {
			return nil, fmt.Errorf("core: node %d has %d ranks, tree expects %d", u, l, want)
		}
		row := make([]int32, l)
		if err := binary.Read(br, binary.LittleEndian, row); err != nil {
			return nil, err
		}
		h.rank[u] = row
	}
	return h, nil
}
