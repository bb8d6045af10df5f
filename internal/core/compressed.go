package core

import (
	"context"
	"slices"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

// This file implements Algorithm 1, the compressed COD evaluation: a single
// pass of hierarchical-first search (HFS) over a shared pool of RR graphs
// fills one influence bucket per chain community, and an incremental top-k
// sweep over the buckets finds the largest community where the query node is
// top-k. The sampling cost is thereby decoupled from |H(q)| (Theorem 4).

// EvalResult reports the outcome of a compressed COD evaluation.
type EvalResult struct {
	// Level is the chain index of the characteristic community C*(q), or -1
	// when the query node is not top-k in any chain community.
	Level int
	// QCount is the query node's final RR occurrence count (over the whole
	// chain), usable as an influence estimate via Theorem 1.
	QCount int
	// Buckets is the total number of bucket entries produced by HFS; it is
	// bounded by the total number of RR-graph nodes (Lemma 2) and is exposed
	// for tests and instrumentation.
	Buckets int
	// TopK reports, per chain level, whether the query node ranked top-k
	// there. Backed by the evaluation's scratch: valid until the scratch's
	// next evaluation.
	TopK []bool
	// Ranks holds, per chain level, q's empirical influence rank (1 = most
	// influential). Exact when TopK of that level is true; a lower bound
	// otherwise (the sweep tracks only the k largest competitors). Backed by
	// the evaluation's scratch, like TopK.
	Ranks []int32
}

// Equal reports full equality of two results, comparing the scratch-backed
// per-level slices element-wise.
func (r EvalResult) Equal(o EvalResult) bool {
	if r.Level != o.Level || r.QCount != o.QCount || r.Buckets != o.Buckets {
		return false
	}
	if len(r.TopK) != len(o.TopK) || len(r.Ranks) != len(o.Ranks) {
		return false
	}
	for i := range r.TopK {
		if r.TopK[i] != o.TopK[i] {
			return false
		}
	}
	for i := range r.Ranks {
		if r.Ranks[i] != o.Ranks[i] {
			return false
		}
	}
	return true
}

// EvalScratch holds the reusable working buffers of a compressed
// evaluation. The HFS fold uses per-level queues and per-RR visited marks
// and appends every bucket entry, as a (level, node) occurrence, to one flat
// buffer; Lemma 2 bounds its length by the pool's RR-graph nodes. The sweep
// groups the buffer by level with a counting sort and accumulates a dense
// tally τ indexed by node id, plus a per-level stamp so each node is offered
// to the top-k set once per level, at its final count. A touched list resets
// only the tally cells the previous sweep wrote, so a scratch may be reused
// across chains and graphs of any size and returns exactly the
// fresh-allocation result. CompressedEvaluateScratchCtx copies its RR
// graphs into the scratch's lowering arena, a flat pool the same fold
// reads; the engine's pools are flat already and skip the copy. A scratch
// is single-goroutine; the engine pools one per query.
type EvalScratch struct {
	queues  [][]int32
	visited []bool
	occ     []occurrence // bucket entries in fold order
	counts  []int        // counts[h]: entries of occ at level h
	bounds  []int        // level h's run in byLevel is byLevel[bounds[h]:bounds[h+1]]
	byLevel []graph.NodeID
	tally   []tallyCell // indexed by node id; zero outside touched
	touched []graph.NodeID
	top     topK
	topk    []bool
	ranks   []int32
	lowered *influence.Arena // []*RRGraph input copied into a flat pool
}

// occurrence is one bucket entry: node reached at chain level.
type occurrence struct {
	level int32
	node  graph.NodeID
}

// tallyCell is one node's running count τ(v) and seen, the last level
// (plus one) at which the sweep offered v to the top-k set.
type tallyCell struct{ cnt, seen int32 }

// NewEvalScratch returns an empty scratch.
func NewEvalScratch() *EvalScratch { return &EvalScratch{} }

// prepare sizes the scratch for a chain of L levels, clearing carried state.
func (sc *EvalScratch) prepare(L int) {
	for len(sc.queues) < L {
		sc.queues = append(sc.queues, nil)
	}
	for h := 0; h < L; h++ {
		sc.queues[h] = sc.queues[h][:0]
	}
	if cap(sc.topk) < L {
		sc.topk = make([]bool, L)
		sc.ranks = make([]int32, L)
		sc.counts = make([]int, L)
		sc.bounds = make([]int, L+1)
	}
	sc.topk = sc.topk[:L]
	sc.ranks = sc.ranks[:L]
	sc.counts = sc.counts[:L]
	clear(sc.counts)
	sc.occ = sc.occ[:0]
}

// visitedFor returns a cleared visited buffer of length n.
func (sc *EvalScratch) visitedFor(n int) []bool {
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
	}
	sc.visited = sc.visited[:n]
	clear(sc.visited)
	return sc.visited
}

// CompressedEvaluateScratchCtx is CompressedEvaluatePoolCtx over RR graphs
// held one header each: it copies rrs into sc's lowering arena and
// evaluates that pool, so its result is the pool evaluation's for any
// (possibly dirty) scratch.
func CompressedEvaluateScratchCtx(ctx context.Context, ch *Chain, rrs []*influence.RRGraph, k int, sc *EvalScratch) (EvalResult, error) {
	if sc.lowered == nil {
		sc.lowered = influence.NewArena()
	}
	sc.lowered.Reset()
	for _, r := range rrs {
		sc.lowered.Append(r)
	}
	//codvet:ignore arenaescape the Reset recycles only the lowering arena; the result's TopK and Ranks live in sc's own buffers, which it leaves alone
	return CompressedEvaluatePoolCtx(ctx, ch, sc.lowered.Pool(), k, sc)
}

// CompressedEvaluatePoolCtx runs Algorithm 1 over a flat RR pool with every
// working buffer drawn from sc: one HFS fold over the pool, then the
// incremental top-k sweep. The pool must have been sampled on the graph (or
// the restricted node set) the chain's levels are defined over; q is top-k
// at a level iff fewer than k nodes rank strictly ahead of it there. The
// fold polls ctx.Err() once per influence.PollEvery samples and aborts with
// a *influence.CanceledError counting the samples folded in so far. The
// result's per-level slices are backed by sc (see EvalResult).
func CompressedEvaluatePoolCtx(ctx context.Context, ch *Chain, pool influence.Pool, k int, sc *EvalScratch) (EvalResult, error) {
	sc.prepare(ch.Len())
	// Stage 1: shared sample generation (HFS over every RR graph).
	if _, err := sc.fold(ctx, ch, pool, 0); err != nil {
		return EvalResult{Level: -1}, err
	}
	// Stage 2: incremental top-k evaluation.
	return sc.sweep(ctx, ch, k, nil), nil
}

// fold runs the HFS pass of samples [from, pool.Len()) under an rr_induce
// span, appending their node occurrences to the flat bucket buffer, and
// polls ctx once per influence.PollEvery samples. It returns the index of
// the first sample left unfolded: max(from, pool.Len()), or on cancellation
// an earlier one with a *influence.CanceledError.
//
// The pool's arrays are hoisted and each sample's HFS runs inline: every
// pushed node lands at the current or a later level, so sweeping h from the
// source level upward processes (and then resets) each queue once, and the
// pass stops at the highest level anything was queued at. The fold is
// purely additive per sample, which is what lets StagedEval grow the pool
// across stages at the same total HFS cost as a single full pass.
func (sc *EvalScratch) fold(ctx context.Context, ch *Chain, pool influence.Pool, from int) (int, error) {
	induce := obs.FromContext(ctx).StartSpan(obs.StageRRInduce)
	L, before := ch.Len(), len(sc.occ)
	nodes, off, adj, at := pool.Arrays()
	level := ch.level
	queues := sc.queues[:L]
	counts := sc.counts[:L]
	occ := sc.occ
	n := pool.Len()
	i := from
	for ; i < n; i++ {
		if i%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				sc.occ = occ
				induce.EndItems(len(occ) - before)
				return i, &influence.CanceledError{
					Op: "core: compressed evaluation", Done: i, Total: n, Cause: err}
			}
		}
		s, e := at[i], at[i+1]
		rn := nodes[s.Node:e.Node]
		if cap(occ)-len(occ) < len(rn) {
			// Lemma 2 bounds the entries the remaining samples can add by
			// their node count, so one allocation replaces append's growth
			// series on a fresh scratch.
			occ = slices.Grow(occ, len(nodes)-int(s.Node))
		}
		srcLevel := int(level[rn[0]])
		if srcLevel >= L {
			continue // source outside the chain's universe
		}
		o := int(s.Node) + i
		roff := off[o : o+len(rn)+1]
		radj := adj[s.Adj:e.Adj]
		visited := sc.visitedFor(len(rn))
		visited[0] = true
		queues[srcLevel] = append(queues[srcLevel], 0)
		last := srcLevel
		for h := srcLevel; h <= last; h++ {
			q := queues[h]
			for qi := 0; qi < len(q); qi++ {
				p := q[qi]
				occ = append(occ, occurrence{level: int32(h), node: rn[p]})
				for _, t := range radj[roff[p]:roff[p+1]] {
					if visited[t] {
						continue
					}
					visited[t] = true
					lvl := int(level[rn[t]])
					if lvl >= L {
						continue
					}
					if lvl <= h {
						q = append(q, t)
						continue
					}
					last = max(last, lvl)
					queues[lvl] = append(queues[lvl], t)
				}
			}
			counts[h] += len(q)
			queues[h] = q[:0]
		}
	}
	sc.occ = occ
	induce.EndItems(len(occ) - before)
	return i, nil
}

// sweep runs the incremental top-k evaluation over every occurrence folded
// since prepare and fills margins (when non-nil) per level. The top-k set
// holds the k largest nodes other than q, as the margins' Boundary needs;
// the number of them ahead of q, and with it each level's rank and
// decision, is the same as with the k largest nodes overall.
func (sc *EvalScratch) sweep(ctx context.Context, ch *Chain, k int, margins []LevelMargin) EvalResult {
	span := obs.FromContext(ctx).StartSpan(obs.StageTopKSweep)
	L, q := ch.Len(), ch.q
	byLevel := sc.groupByLevel(L)
	bounds := sc.bounds[:L+1]
	sc.resetTally(len(ch.level))
	tally, touched := sc.tally, sc.touched
	top := &sc.top
	top.k = k
	top.reset()
	best := -1
	for h := 0; h < L; h++ {
		run := byLevel[bounds[h]:bounds[h+1]]
		for _, v := range run {
			c := &tally[v]
			if c.cnt == 0 {
				touched = append(touched, v)
			}
			c.cnt++
		}
		stamp := int32(h) + 1
		for _, v := range run {
			if c := &tally[v]; c.seen != stamp && v != q {
				c.seen = stamp
				top.offer(v, c.cnt)
			}
		}
		qCnt := tally[q].cnt
		ahead := top.aheadOf(q, qCnt)
		sc.ranks[h] = int32(ahead) + 1
		sc.topk[h] = ahead < k
		if margins != nil {
			margins[h] = LevelMargin{QCount: qCnt, Boundary: top.boundary(), InTopK: sc.topk[h]}
		}
		if sc.topk[h] {
			best = h
		}
	}
	sc.touched = touched
	span.EndItems(len(touched))
	return EvalResult{Level: best, QCount: int(tally[q].cnt), Buckets: len(sc.occ),
		TopK: sc.topk[:L], Ranks: sc.ranks[:L]}
}

// groupByLevel counting-sorts the occurrence buffer by level into byLevel
// and leaves level h's run at byLevel[bounds[h]:bounds[h+1]].
func (sc *EvalScratch) groupByLevel(L int) []graph.NodeID {
	if cap(sc.byLevel) < len(sc.occ) {
		// Match occ's capacity: growing only when occ grows keeps pools of
		// slightly different sizes from reallocating it query after query.
		sc.byLevel = make([]graph.NodeID, cap(sc.occ))
	}
	byLevel := sc.byLevel[:len(sc.occ)]
	// bounds[h] starts as the end of level h's run; placing the buffer
	// back to front walks it down to the run's start.
	bounds := sc.bounds[:L+1]
	end := 0
	for h, c := range sc.counts[:L] {
		end += c
		bounds[h] = end
	}
	bounds[L] = end
	for i := len(sc.occ) - 1; i >= 0; i-- {
		o := sc.occ[i]
		bounds[o.level]--
		byLevel[bounds[o.level]] = o.node
	}
	return byLevel
}

// resetTally zeroes the cells the previous sweep touched and sizes the
// tally for node ids below n.
func (sc *EvalScratch) resetTally(n int) {
	if len(sc.tally) < n {
		sc.tally = make([]tallyCell, n)
	} else {
		for _, v := range sc.touched {
			sc.tally[v] = tallyCell{}
		}
	}
	sc.touched = sc.touched[:0]
}

// topK maintains the k nodes with the largest counts seen so far. k is small
// (the paper uses k <= 5), so linear operations are fastest.
type topK struct {
	k     int
	nodes []graph.NodeID
	cnts  []int32
}

// offer updates node v's count or inserts it when it outranks the current
// minimum under the canonical influence order (count descending, ties by
// smaller node ID). The tie-break makes the retained set independent of the
// order nodes are offered in, so the evaluation is deterministic even on
// count ties.
func (t *topK) offer(v graph.NodeID, cnt int32) {
	for i, n := range t.nodes {
		if n == v {
			t.cnts[i] = cnt
			return
		}
	}
	if len(t.nodes) < t.k {
		t.nodes = append(t.nodes, v)
		t.cnts = append(t.cnts, cnt)
		return
	}
	mi := 0
	for i := 1; i < len(t.cnts); i++ {
		if t.cnts[i] < t.cnts[mi] || (t.cnts[i] == t.cnts[mi] && t.nodes[i] > t.nodes[mi]) {
			mi = i
		}
	}
	if cnt > t.cnts[mi] || (cnt == t.cnts[mi] && v < t.nodes[mi]) {
		t.nodes[mi] = v
		t.cnts[mi] = cnt
	}
}

// isTopK reports whether q (with count qCnt) ranks among the top k: fewer
// than k tracked nodes are ahead of q under the canonical influence order
// (count descending, ties by smaller node ID), matching rankOf.
func (t *topK) isTopK(q graph.NodeID, qCnt int32) bool {
	return t.aheadOf(q, qCnt) < t.k
}

// aheadOf counts tracked nodes other than q ranked strictly ahead of
// (q, qCnt) under the canonical influence order.
func (t *topK) aheadOf(q graph.NodeID, qCnt int32) int {
	ahead := 0
	for i, n := range t.nodes {
		if n != q && (t.cnts[i] > qCnt || (t.cnts[i] == qCnt && n < q)) {
			ahead++
		}
	}
	return ahead
}

// reset empties the tracked set, keeping capacity.
func (t *topK) reset() {
	t.nodes = t.nodes[:0]
	t.cnts = t.cnts[:0]
}

// boundary returns the smallest tracked count — the rank-k boundary when k
// nodes are tracked — or 0 while fewer than k nodes have been offered.
func (t *topK) boundary() int32 {
	if len(t.cnts) < t.k {
		return 0
	}
	min := t.cnts[0]
	for _, c := range t.cnts[1:] {
		if c < min {
			min = c
		}
	}
	return min
}
