package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/query"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	layer      string
	start, end time.Time
}

// tracer keeps the run's spans in memory.
type tracer struct{ spans []span }

func (tr *tracer) begin(layer string) int {
	tr.spans = append(tr.spans, span{layer: layer, start: time.Now()})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) { tr.spans[id].end = time.Now() }

// durations returns the duration of every span of the layer, in ms.
func (tr *tracer) durations(layer string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.layer == layer {
			out = append(out, float64(s.end.Sub(s.start).Nanoseconds())/1e6)
		}
	}
	return out
}

// plan is a query resolved the way Searcher.Prepare resolves it.
type plan struct {
	variant  engine.Variant
	attr     graph.AttrID
	pred     *query.DNF
	filters  []query.Filter
	adaptive *engine.Adaptive
}

// poolKey identifies a shared RR pool: attribute with hash 0, or -1 with a
// compound predicate's canonical hash (the engine's sample-cache key).
type poolKey struct {
	attr graph.AttrID
	hash uint64
}

// replayer re-runs compiled plans step by step through the exported
// functions of core, influence and hac, over the Searcher's own offline
// state, with a span around every call. Where it rebuilds the engine's
// exact inputs (same hierarchy, index, seed and pool seeds) its answers
// must equal the Searcher's. Like the engine's pooled query scratch, one
// sampler (rebound to each query's stream), one arena and one membership
// mask serve every query, so the timed calls do the engine's work and not
// the allocation of fresh buffers.
type replayer struct {
	s       *cod.Searcher
	e       *engine.Engine
	g       *graph.Graph
	tree    *hier.Tree
	p       engine.Params
	cached  bool
	tr      *tracer
	eval    *core.EvalScratch
	sampler *influence.Sampler
	arena   *influence.Arena
	in      []bool
	pools   map[poolKey][]*influence.RRGraph
	trees   map[poolKey]*hier.Tree

	// fill is the time spent filling the replay's own pool and hierarchy
	// caches, which the Searcher had already filled; the trace-overhead
	// comparison leaves it out.
	fill time.Duration

	probes, hits   int
	samples        int // sampling calls that drew RR graphs
	rrGraphs       int64
	rrNodes        int64
	lores, members int64
	evals, buckets int64
}

func newReplayer(s *cod.Searcher, cached bool, tr *tracer) *replayer {
	e := s.Engine()
	g := e.Graph()
	return &replayer{s: s, e: e, g: g, tree: e.Tree(), p: e.Params(), cached: cached, tr: tr,
		eval:    core.NewEvalScratch(),
		sampler: influence.NewSampler(g, influence.NewWeightedCascade(g), nil),
		arena:   influence.NewArena(),
		in:      make([]bool, g.N()),
		pools:   map[poolKey][]*influence.RRGraph{}, trees: map[poolKey]*hier.Tree{}}
}

// resolve parses a generated query into a plan, lowering a single positive
// attribute onto attr exactly as Prepare does.
func (r *replayer) resolve(q benchQuery) (plan, error) {
	if q.Expr == "" {
		return plan{variant: engine.VariantCODL, attr: q.Attr}, nil
	}
	p, err := query.Parse(q.Expr)
	if err != nil {
		return plan{}, err
	}
	if err := p.Resolve(r.s.Graph().AttrByName, r.g.NumAttrs()); err != nil {
		return plan{}, err
	}
	pl := plan{variant: engine.VariantCODL, filters: p.Filters}
	switch p.Knobs.Variant {
	case "codu":
		pl.variant = engine.VariantCODU
	case "codr":
		pl.variant = engine.VariantCODR
	case "codl-":
		pl.variant = engine.VariantCODLNoIndex
	}
	if p.Pred != nil {
		d, err := query.Normalize(p.Pred)
		if err != nil {
			return plan{}, err
		}
		if a, ok := d.Single(); ok {
			pl.attr = a
		} else {
			pl.pred = d
		}
	}
	if p.Knobs.HasAdaptive {
		pl.adaptive = &engine.Adaptive{Enabled: p.Knobs.Adaptive}
	}
	return pl, nil
}

// spec is the plan as an engine.Spec for Engine.CompileSpec.
func (pl plan) spec(q graph.NodeID) engine.Spec {
	return engine.Spec{Variant: pl.variant, Q: q, Attr: pl.attr, Pred: pl.pred,
		Filters: pl.filters, Adaptive: pl.adaptive}
}

// replayable reports whether the replay covers the plan: staged adaptive
// evaluation has no exported step-by-step form, so it is left out.
func (pl plan) replayable() bool { return pl.adaptive == nil || !pl.adaptive.Enabled }

// predMask marks the nodes that satisfy pred in the replayer's mask.
func (r *replayer) predMask(pred *query.DNF) []bool {
	var node graph.NodeID
	has := func(a graph.AttrID) bool { return r.g.HasAttr(node, a) }
	for v := range r.in {
		node = graph.NodeID(v)
		r.in[v] = pred.Eval(has)
	}
	return r.in
}

// memberMask marks members, and only them, in the replayer's mask.
func (r *replayer) memberMask(members []graph.NodeID) []bool {
	clear(r.in)
	for _, v := range members {
		r.in[v] = true
	}
	return r.in
}

// lore runs the weight step of CODL and CODL⁻.
func (r *replayer) lore(ctx context.Context, q graph.NodeID, pl plan) (*core.Reclustering, error) {
	var in []bool
	if pl.pred != nil {
		in = r.predMask(pl.pred)
	}
	sp := r.tr.begin("core.lore")
	var (
		rec *core.Reclustering
		err error
	)
	if pl.pred != nil {
		rec, err = core.LorePredCtx(ctx, r.g, r.tree, q, in, r.p.Beta, r.p.Linkage)
	} else {
		rec, err = core.LoreCtx(ctx, r.g, r.tree, q, pl.attr, r.p.Beta, r.p.Linkage)
	}
	r.tr.end(sp)
	if err == nil {
		r.lores++
		r.members += int64(len(rec.Sub.ToParent))
	}
	return rec, err
}

// probe scans the HIMOR index over the ancestors of C_ℓ, root first.
func (r *replayer) probe(q graph.NodeID, rec *core.Reclustering) (answer, bool) {
	sp := r.tr.begin("core.probe")
	defer r.tr.end(sp)
	r.probes++
	idx := r.e.Index()
	anc := r.tree.Ancestors(rec.CL)
	for i := len(anc) - 1; i >= -1; i-- {
		v := rec.CL
		if i >= 0 {
			v = anc[i]
		}
		if rk := idx.Rank(q, v); rk < r.p.K {
			r.hits++
			nodes := r.tree.Members(v)
			return answer{Found: true, FromIndex: true, Rank: rk + 1, Size: len(nodes), Nodes: nodes}, true
		}
	}
	return answer{}, false
}

// sampleRestricted draws θ·|C_ℓ| RR graphs confined to C_ℓ from the query's
// stream, sources uniform over the members, into the shared arena.
func (r *replayer) sampleRestricted(rec *core.Reclustering, rng *rand.Rand) []*influence.RRGraph {
	members := rec.Sub.ToParent
	sp := r.tr.begin("influence.sample")
	in := r.memberMask(members)
	member := func(u graph.NodeID) bool { return in[u] }
	r.sampler.SetRand(rng)
	r.arena.Reset()
	for i := 0; i < r.p.Theta*len(members); i++ {
		r.sampler.RRGraphWithinInto(r.arena, members[rng.IntN(len(members))], member)
	}
	rrs := r.arena.Finalize()
	r.tr.end(sp)
	r.countSample(rrs)
	return rrs
}

// poolSeed mirrors the engine's sample-cache pool seed for a key at an
// epoch; a replay answer equal to the Searcher's confirms the mirror.
func poolSeed(seed uint64, k poolKey, epoch uint64) uint64 {
	base := seed ^ 0xcac4ed
	if k.hash != 0 {
		base ^= k.hash * 0x9e3779b97f4a7c15
	}
	return graph.ItemSeed(graph.ItemSeed(base, int(k.attr)+1), int(epoch))
}

// sampleShared returns the θ·N whole-graph pool. With the Searcher's sample
// cache on it is a pure function of (seed, key, epoch), generated once per
// key into an arena of its own, as the cache fills its pools; without it
// the query's stream draws it into the shared arena.
func (r *replayer) sampleShared(ctx context.Context, k poolKey, rng *rand.Rand) ([]*influence.RRGraph, error) {
	if rrs, ok := r.pools[k]; ok {
		return rrs, nil
	}
	if r.cached {
		defer func(t0 time.Time) { r.fill += time.Since(t0) }(time.Now())
	}
	count := r.p.Theta * r.g.N()
	sp := r.tr.begin("influence.sample")
	var (
		rrs []*influence.RRGraph
		err error
	)
	if r.cached {
		arena := influence.NewArena()
		src := graph.NewPCG(0)
		smp := influence.NewSampler(r.g, influence.NewWeightedCascade(r.g), rand.New(src))
		base := poolSeed(r.p.Seed, k, r.e.Epoch())
		for i := 0; i < count; i++ {
			graph.SeedPCG(src, graph.ItemSeed(base, i))
			smp.RRGraphInto(arena)
		}
		rrs = arena.Finalize()
		r.pools[k] = rrs
	} else {
		r.sampler.SetRand(rng)
		r.arena.Reset()
		rrs, err = influence.BatchIntoCtx(ctx, r.sampler, count, r.arena)
	}
	r.tr.end(sp)
	if err == nil {
		r.countSample(rrs)
	}
	return rrs, err
}

func (r *replayer) countSample(rrs []*influence.RRGraph) {
	r.samples++
	r.rrGraphs += int64(len(rrs))
	for _, rr := range rrs {
		r.rrNodes += int64(rr.Len())
	}
}

// attrTree is CODR's weight step: recluster the attribute-weighted graph
// (once per predicate, as the Searcher's hierarchy cache does).
func (r *replayer) attrTree(ctx context.Context, k poolKey, pl plan) (*hier.Tree, error) {
	if t, ok := r.trees[k]; ok {
		return t, nil
	}
	defer func(t0 time.Time) { r.fill += time.Since(t0) }(time.Now())
	var gl *graph.Graph
	if pl.pred != nil {
		gl = core.PredWeighted(r.g, r.predMask(pl.pred), r.p.Beta)
	} else {
		gl = core.AttributeWeighted(r.g, pl.attr, r.p.Beta)
	}
	sp := r.tr.begin("hac.recluster")
	t, err := hac.ClusterCtx(ctx, gl, r.p.Linkage)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.trees[k] = t
	return t, nil
}

// replay runs one plan for node q with the query stream seeded by seed.
func (r *replayer) replay(ctx context.Context, q graph.NodeID, pl plan, seed uint64) (answer, error) {
	rng := graph.NewRand(seed)
	key := poolKey{attr: pl.attr}
	if pl.pred != nil {
		key = poolKey{attr: -1, hash: pl.pred.Hash64()}
	}
	var (
		ch  *core.Chain
		rrs []*influence.RRGraph
		err error
	)
	switch pl.variant {
	case engine.VariantCODL:
		rec, err := r.lore(ctx, q, pl)
		if err != nil {
			return answer{}, err
		}
		if len(pl.filters) == 0 {
			if a, ok := r.probe(q, rec); ok {
				return a, nil
			}
		}
		sp := r.tr.begin("core.chain")
		ch = core.InnerChain(r.g, r.tree, rec, q)
		r.tr.end(sp)
		rrs = r.sampleRestricted(rec, rng)
	case engine.VariantCODLNoIndex:
		rec, err := r.lore(ctx, q, pl)
		if err != nil {
			return answer{}, err
		}
		sp := r.tr.begin("core.chain")
		ch = core.MergedChain(r.g, r.tree, rec, q)
		r.tr.end(sp)
	case engine.VariantCODU:
		sp := r.tr.begin("core.chain")
		ch = core.ChainFromTree(r.tree, q)
		r.tr.end(sp)
	case engine.VariantCODR:
		t, err := r.attrTree(ctx, key, pl)
		if err != nil {
			return answer{}, err
		}
		sp := r.tr.begin("core.chain")
		ch = core.ChainFromTree(t, q)
		r.tr.end(sp)
	}
	if rrs == nil {
		if rrs, err = r.sampleShared(ctx, key, rng); err != nil {
			return answer{}, err
		}
	}
	sp := r.tr.begin("core.eval")
	res, err := core.CompressedEvaluateScratchCtx(ctx, ch, rrs, r.p.K, r.eval)
	r.tr.end(sp)
	if err != nil {
		return answer{}, err
	}
	r.evals++
	r.buckets += int64(res.Buckets)
	level := res.Level
	if len(pl.filters) > 0 {
		fs := r.tr.begin("engine.filter")
		level = r.filterLevel(ch, res, pl.filters)
		r.tr.end(fs)
	}
	if level < 0 {
		return answer{}, nil
	}
	nodes := ch.Members(level)
	a := answer{Found: true, Size: len(nodes), Nodes: nodes}
	if res.Ranks != nil {
		a.Rank = int(res.Ranks[level])
	}
	return a, nil
}

// filterLevel is the filter step: the largest chain level where q is top-k
// and every filter accepts the level's measures, computed from its members.
func (r *replayer) filterLevel(ch *core.Chain, res core.EvalResult, filters []query.Filter) int {
	if ch.Len() == 0 || res.TopK == nil {
		return res.Level
	}
	best := -1
	for h := 0; h < ch.Len(); h++ {
		if !res.TopK[h] {
			continue
		}
		nodes := ch.Members(h)
		ok := true
		for _, f := range filters {
			v := measure(f.Field, len(nodes), graph.TopologyDensity(r.g, nodes), graph.Conductance(r.g, nodes))
			if !f.Accept(v) {
				ok = false
				break
			}
		}
		if ok {
			best = h
		}
	}
	return best
}

// fromEngine converts the engine's community to an answer.
func fromEngine(c engine.Community) answer {
	return answer{Found: c.Found, FromIndex: c.FromIndex, Rank: c.Rank, Size: c.Size(), Nodes: c.Nodes}
}

// layerSample is what the replay of a query sample measured.
type layerSample struct {
	compileUs, executeMs, prepareUs []float64
	executeTotal, replayTotal       float64
	replayed                        int
}

// replaySample runs each sampled query (list indices idx) twice with the
// seed the Searcher used for it — through the engine directly (CompileSpec
// then Execute, untraced) and as the traced step-by-step replay — and
// checks both answers against the Searcher's. The two take turns at going
// first, so neither is always the one that finds the query's data already
// in the CPU caches. seedOf gives the seed of list index i.
func replaySample(ctx context.Context, t *tally, r *replayer, list []benchQuery, want []answer, idx []int, seedOf func(i int) uint64) (layerSample, error) {
	var ls layerSample
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for k, i := range idx {
		q := list[i]
		pl, err := r.resolve(q)
		if err != nil {
			return ls, err
		}
		expr := q.Expr
		if expr == "" {
			expr = strconv.Itoa(int(q.Attr))
		}
		t0 := time.Now()
		if _, err := r.s.Prepare(expr); err != nil {
			return ls, err
		}
		ls.prepareUs = append(ls.prepareUs, ms(time.Since(t0))*1e3)

		var (
			exec, took float64
			ea, ra     answer
			eerr, rerr error
		)
		execute := func() {
			t0 := time.Now()
			compiled := r.e.CompileSpec(pl.spec(q.Node))
			t1 := time.Now()
			com, err := r.e.Execute(ctx, compiled, graph.NewRand(seedOf(i)))
			exec = ms(time.Since(t1))
			ls.compileUs = append(ls.compileUs, ms(t1.Sub(t0))*1e3)
			ls.executeMs = append(ls.executeMs, exec)
			ea, eerr = fromEngine(com), err
		}
		replay := func() {
			t0, fill := time.Now(), r.fill
			ra, rerr = r.replay(ctx, q.Node, pl, seedOf(i))
			took = ms(time.Since(t0) - (r.fill - fill))
		}
		replayable := pl.replayable()
		if replayable && k%2 == 1 {
			replay()
			execute()
		} else {
			execute()
			if replayable {
				replay()
			}
		}
		switch {
		case eerr != nil:
			t.fail(fmt.Sprintf("engine execute of query %d: %v", i, eerr))
		case !sameAnswer(ea, want[i]):
			t.fail(fmt.Sprintf("query %d: Engine.Execute answer differs from the Searcher's", i))
		case !replayable:
			t.ok()
		case rerr != nil:
			t.fail(fmt.Sprintf("replay of query %d: %v", i, rerr))
		case !sameAnswer(ra, want[i]):
			t.fail(fmt.Sprintf("query %d (%s %q node %d): replayed answer differs from the Searcher's", i, q.Kind, q.Expr, q.Node))
		default:
			ls.replayTotal += took
			ls.executeTotal += exec
			ls.replayed++
			t.ok()
		}
	}
	return ls, nil
}

// stride returns n indices spread evenly over [0, size): a sample of a
// list that covers every stratum of it, whatever order the list is in.
func stride(size, n int) []int {
	n = min(n, size)
	out := make([]int, n)
	for k := range out {
		out[k] = k * size / n
	}
	return out
}

// layerMetrics turns a replay into the per-layer metrics it measures.
func layerMetrics(m metrics, r *replayer, ls layerSample) {
	m["cod.prepare_us"] = median(ls.prepareUs)
	m["engine.compile_us"] = median(ls.compileUs)
	ex := summarize(ls.executeMs)
	m["engine.execute_ms"] = mean(ls.executeMs)
	m["engine.execute_p99_ms"] = quantile(ex.Sorted, 0.99)
	m["core.lore_ms"] = mean(r.tr.durations("core.lore"))
	m["core.probe_us"] = mean(r.tr.durations("core.probe")) * 1e3
	m["core.chain_us"] = mean(r.tr.durations("core.chain")) * 1e3
	m["influence.sample_ms"] = mean(r.tr.durations("influence.sample"))
	m["core.eval_ms"] = mean(r.tr.durations("core.eval"))
	if d := r.tr.durations("hac.recluster"); len(d) > 0 {
		m["hac.recluster_ms"] = mean(d)
	}
	if r.lores > 0 {
		m["core.lore_members"] = float64(r.members) / float64(r.lores)
	}
	if r.probes > 0 {
		m["core.probe_hit_frac"] = float64(r.hits) / float64(r.probes)
	}
	if r.samples > 0 {
		m["influence.rr_graphs"] = float64(r.rrGraphs) / float64(r.samples)
	}
	if r.rrGraphs > 0 {
		m["influence.rr_nodes"] = float64(r.rrNodes) / float64(r.rrGraphs)
	}
	if r.evals > 0 {
		m["core.eval_buckets"] = float64(r.buckets) / float64(r.evals)
	}
	if ls.executeTotal > 0 {
		m["trace.overhead_frac"] = (ls.replayTotal - ls.executeTotal) / ls.executeTotal
	}
}

// offlineLayers times the offline build's layers one call at a time:
// dataset generation, clustering and the HIMOR build.
func offlineLayers(ctx context.Context, cfg *config, m metrics) (*cod.Graph, error) {
	t0 := time.Now()
	g, err := cod.GenerateDataset(cfg.def.dataset, datasetSeed)
	if err != nil {
		return nil, err
	}
	m["dataset.gen_s"] = time.Since(t0).Seconds()
	ig, err := genGraph(cfg.def.dataset)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	tree, err := hac.ClusterCtx(ctx, ig, hac.UnweightedAverage)
	if err != nil {
		return nil, err
	}
	m["hac.cluster_s"] = time.Since(t0).Seconds()
	opts := searcherOptions(cfg)
	t0 = time.Now()
	idx, err := core.BuildHimorParallelCtx(ctx, ig, tree, influence.NewWeightedCascade(ig), opts.Theta, opts.Seed^0x51ed, opts.Workers)
	if err != nil {
		return nil, err
	}
	m["core.himor_build_s"] = time.Since(t0).Seconds()
	m["core.himor_mb"] = float64(idx.ApproxBytes()) / (1 << 20)
	return g, nil
}

// runtimeSnap is the in-process runtime state a phase is measured against.
type runtimeSnap struct {
	ms            runtime.MemStats
	gcCPU, allCPU float64
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapRuntime() runtimeSnap {
	var s runtimeSnap
	runtime.ReadMemStats(&s.ms)
	rtmetrics.Read(cpuSamples)
	s.gcCPU = cpuSamples[0].Value.Float64()
	s.allCPU = cpuSamples[1].Value.Float64()
	return s
}

// runtimeLayer records the runtime metrics of a phase of n queries.
func runtimeLayer(m metrics, before, after runtimeSnap, n int) {
	m["runtime.alloc_kb_per_query"] = float64(after.ms.TotalAlloc-before.ms.TotalAlloc) / 1024 / float64(n)
	m["runtime.gc_pause_ms"] = float64(after.ms.PauseTotalNs-before.ms.PauseTotalNs) / 1e6
	if d := after.allCPU - before.allCPU; d > 0 {
		m["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / d
	}
	m["runtime.peak_rss_mb"] = peakRSSMiB("self")
}

// traceBatch is the traced run of batch-dblp and variants-cora.
func traceBatch(ctx context.Context, cfg *config, t *tally) (metrics, []string, error) {
	list, _, warm, err := batchList(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	g, err := offlineLayers(ctx, cfg, m)
	if err != nil {
		return nil, nil, err
	}
	opts := searcherOptions(cfg)
	s, err := cod.NewSearcherCtx(ctx, g, opts)
	if err != nil {
		return nil, nil, err
	}
	queries := toCodQueries(list)
	if err := warmUp(ctx, cfg, s, toCodQueries(warm)); err != nil {
		return nil, nil, err
	}

	// One untraced pass for the runtime layer and the reference answers.
	before := snapRuntime()
	res := s.DiscoverBatchCtx(ctx, queries, cfg.nproc)
	after := snapRuntime()
	runtimeLayer(m, before, after, len(list))
	want := make([]answer, len(list))
	for i, r := range res {
		if r.Err != nil {
			t.fail(fmt.Sprintf("query %d: %v", i, r.Err))
			continue
		}
		want[i] = fromCommunity(r.Community)
		t.check(checkAnswer(s.Engine().Graph(), list[i], want[i], rankBound))
	}

	// The sample-cache counters the program exports, over one more pass.
	qm := newQueryMetrics()
	rctx := withRecorder(ctx, qm)
	s.DiscoverBatchCtx(rctx, queries, cfg.nproc)
	if hits, misses := qm.CacheHits.Value(), qm.CacheMisses.Value(); hits+misses > 0 {
		m["engine.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	_, rrgraphs := s.Engine().SampleCacheStats()
	m["engine.cache_rrgraphs"] = float64(rrgraphs)

	// Batch scaling: the same third of the list with one worker and with
	// nproc.
	var sub []cod.Query
	for _, i := range stride(len(queries), len(queries)/3) {
		sub = append(sub, queries[i])
	}
	t0 := time.Now()
	s.DiscoverBatchCtx(ctx, sub, 1)
	one := time.Since(t0).Seconds()
	t0 = time.Now()
	s.DiscoverBatchCtx(ctx, sub, cfg.nproc)
	all := time.Since(t0).Seconds()
	m["cod.batch_scaling"] = one / (float64(cfg.nproc) * all)
	_, allocated := s.Engine().PoolStats()
	m["engine.scratch_allocated"] = float64(allocated)

	// The traced replay of a fixed sample spread over the list (which runs
	// largest C_ℓ first), item i seeded as DiscoverBatch seeds it.
	n := 40
	if cfg.workload == "variants-cora" {
		n = 120
	}
	tr := &tracer{}
	r := newReplayer(s, opts.SampleCache > 0, tr)
	ls, err := replaySample(ctx, t, r, list, want, stride(len(list), n), func(i int) uint64 { return graph.ItemSeed(opts.Seed, i) })
	if err != nil {
		return nil, nil, err
	}
	layerMetrics(m, r, ls)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	notes := []string{fmt.Sprintf("replayed %d of %d sampled queries step by step; answers checked against DiscoverBatch", ls.replayed, n)}
	return m, notes, nil
}

// genGraph generates the dataset's internal graph (the one the library
// wraps), for the layers that take it directly.
func genGraph(name string) (*graph.Graph, error) {
	d, err := dataset.Load(name, datasetSeed)
	if err != nil {
		return nil, err
	}
	return d.G, nil
}

// newQueryMetrics returns the program's own query counters, unregistered
// anywhere else.
func newQueryMetrics() *obs.QueryMetrics { return obs.NewQueryMetrics(obs.NewRegistry()) }

// withRecorder attaches a counters-only recorder (no trace) to ctx.
func withRecorder(ctx context.Context, qm *obs.QueryMetrics) context.Context {
	return obs.WithRecorder(ctx, obs.NewRecorder(qm, nil))
}
