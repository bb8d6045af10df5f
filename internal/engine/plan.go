package engine

import (
	"context"
	"errors"
	"math/rand/v2"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
	"github.com/codsearch/cod/internal/query"
)

// Variant names the COD pipeline a plan realizes (§V-A of the paper, plus
// the CODL⁻ ablation of §V-D).
type Variant int

const (
	// VariantCODU evaluates over the non-attributed hierarchy.
	VariantCODU Variant = iota
	// VariantCODR globally reclusters the attribute-weighted graph.
	VariantCODR
	// VariantCODL is LORE + HIMOR + restricted sampling (Algorithm 3).
	VariantCODL
	// VariantCODLNoIndex is CODL⁻: LORE without the HIMOR index.
	VariantCODLNoIndex
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantCODU:
		return "CODU"
	case VariantCODR:
		return "CODR"
	case VariantCODL:
		return "CODL"
	case VariantCODLNoIndex:
		return "CODL-"
	}
	return "unknown"
}

// StepKind is one stage of a compiled plan.
type StepKind int

const (
	// StepWeight derives the attribute weighting from the plan's predicate
	// mask: a LORE local recluster or a global recluster of g_ℓ, per the
	// step's WeightMode.
	StepWeight StepKind = iota
	// StepIndexProbe scans the HIMOR index top-down over C_ℓ's ancestors;
	// a hit answers the query without evaluation.
	StepIndexProbe
	// StepChain builds the community chain the evaluation sweeps.
	StepChain
	// StepSample fills the RR sample pool (shared θ·N pool or sampling
	// restricted to C_ℓ, per the step's SampleMode).
	StepSample
	// StepEvaluate runs the compressed COD evaluation (Algorithm 1).
	StepEvaluate
	// StepFilter re-chooses the answering chain level under the plan's
	// community-level filters (largest level where q is top-k AND every
	// filter accepts). Compiled only when the plan carries filters.
	StepFilter
	// StepExtract materializes the community from the winning chain level.
	StepExtract
)

// String returns the snake_case step name used in step spans and logs.
func (k StepKind) String() string {
	switch k {
	case StepWeight:
		return "weight"
	case StepIndexProbe:
		return "index_probe"
	case StepChain:
		return "chain"
	case StepSample:
		return "sample"
	case StepEvaluate:
		return "evaluate"
	case StepFilter:
		return "filter"
	case StepExtract:
		return "extract"
	}
	return "unknown"
}

// WeightMode selects how StepWeight derives the attribute weighting.
type WeightMode int

const (
	// WeightLORE runs the LORE local recluster of C_ℓ.
	WeightLORE WeightMode = iota
	// WeightGlobal reclusters the whole attribute-weighted graph g_ℓ.
	WeightGlobal
)

// ChainMode selects StepChain's source.
type ChainMode int

const (
	// ChainTree walks the non-attributed hierarchy (CODU).
	ChainTree ChainMode = iota
	// ChainAttr walks the globally reclustered attribute hierarchy (CODR).
	ChainAttr
	// ChainInner is the reclustered chain inside C_ℓ (CODL).
	ChainInner
	// ChainMerged is the merged chain H_ℓ(q) (CODL⁻).
	ChainMerged
)

// SampleMode selects StepSample's pool.
type SampleMode int

const (
	// SampleShared draws θ·N RR graphs over the whole graph — from the
	// per-attribute cache when the engine has one, else from the query rng.
	SampleShared SampleMode = iota
	// SampleRestricted draws θ·|C_ℓ| RR graphs confined to C_ℓ from the
	// query rng (cache-exempt: the restriction depends on the query node).
	SampleRestricted
)

// Step is one stage of a plan; Mode fields beyond the Kind's are ignored.
type Step struct {
	Kind   StepKind
	Weight WeightMode
	Chain  ChainMode
	Sample SampleMode
}

// Plan is a compiled query: the ordered stages Execute runs plus the query
// itself. Plans are cheap values — compile per query, no caching needed.
type Plan struct {
	Variant Variant
	Q       graph.NodeID
	Attr    graph.AttrID
	// Pred is the compound attribute predicate, nil for single-attribute
	// plans (CompileSpec lowers a single positive-literal predicate onto
	// Attr, so the legacy pipeline — and its cache keys — serve it).
	Pred *query.DNF
	// Filters are the community-level constraints; non-empty filters compile
	// a StepFilter between evaluate and extract and drop the index probe
	// (the probe's answer ignores filters).
	Filters []query.Filter
	// K is the required influence rank for this plan (CompileSpec fills the
	// engine default when the query has no k= override).
	K int
	// Adaptive overrides the engine's adaptive configuration for this plan;
	// nil inherits the engine config.
	Adaptive *Adaptive
	Steps    []Step
}

// Spec is a typed query for CompileSpec: the variant and query node plus the
// optional predicate, community filters, rank override, and adaptive
// override the query DSL can carry. The zero values of the optional fields
// mean "engine default", so a Spec holding only (Variant, Q, Attr) compiles
// to exactly the legacy Compile plan.
type Spec struct {
	Variant Variant
	Q       graph.NodeID
	// Attr is the query attribute for predicate-less plans (and the target
	// of single-positive-literal predicate lowering).
	Attr graph.AttrID
	// Pred is the normalized attribute predicate, nil for none.
	Pred *query.DNF
	// Filters are community-level constraints (size/density/conductance).
	Filters []query.Filter
	// K overrides the required influence rank; 0 uses the engine default.
	K int
	// Adaptive overrides the engine's adaptive config; nil inherits it.
	Adaptive *Adaptive
}

// planSteps is the fixed stage list per variant; slices are shared,
// read-only.
var planSteps = map[Variant][]Step{
	VariantCODU: {
		{Kind: StepChain, Chain: ChainTree},
		{Kind: StepSample, Sample: SampleShared},
		{Kind: StepEvaluate},
		{Kind: StepExtract},
	},
	VariantCODR: {
		{Kind: StepWeight, Weight: WeightGlobal},
		{Kind: StepChain, Chain: ChainAttr},
		{Kind: StepSample, Sample: SampleShared},
		{Kind: StepEvaluate},
		{Kind: StepExtract},
	},
	VariantCODL: {
		{Kind: StepWeight, Weight: WeightLORE},
		{Kind: StepIndexProbe},
		{Kind: StepChain, Chain: ChainInner},
		{Kind: StepSample, Sample: SampleRestricted},
		{Kind: StepEvaluate},
		{Kind: StepExtract},
	},
	VariantCODLNoIndex: {
		{Kind: StepWeight, Weight: WeightLORE},
		{Kind: StepChain, Chain: ChainMerged},
		{Kind: StepSample, Sample: SampleShared},
		{Kind: StepEvaluate},
		{Kind: StepExtract},
	},
}

// Compile lowers a single-attribute query onto the variant's stage list.
func (e *Engine) Compile(v Variant, q graph.NodeID, attr graph.AttrID) *Plan {
	return e.CompileSpec(Spec{Variant: v, Q: q, Attr: attr})
}

// CompileSpec lowers a typed query onto the variant's stage list. A
// single-positive-literal predicate is lowered to its attribute, so those
// queries compile to — and cache like — the legacy single-attribute plans.
// Filters drop the index probe (whose answer would ignore them) and insert a
// filter step between evaluate and extract.
func (e *Engine) CompileSpec(sp Spec) *Plan {
	attr, pred := sp.Attr, sp.Pred
	if pred != nil {
		if a, ok := pred.Single(); ok {
			attr, pred = a, nil
		}
	}
	k := sp.K
	if k <= 0 {
		k = e.p.K
	}
	pl := &Plan{Variant: sp.Variant, Q: sp.Q, Attr: attr, Pred: pred,
		Filters: sp.Filters, K: k, Adaptive: sp.Adaptive, Steps: planSteps[sp.Variant]}
	if len(pl.Filters) > 0 {
		steps := make([]Step, 0, len(pl.Steps)+1)
		for _, st := range pl.Steps {
			if st.Kind == StepIndexProbe {
				continue
			}
			if st.Kind == StepExtract {
				steps = append(steps, Step{Kind: StepFilter})
			}
			steps = append(steps, st)
		}
		pl.Steps = steps
	}
	return pl
}

// predCacheKey is the plan's shared-pool cache identity: single-attribute
// plans keep the legacy (attr, hash 0) key so existing pools stay hot;
// compound predicates key by their canonical normal-form hash.
func (pl *Plan) predCacheKey() predKey {
	if pl.Pred != nil {
		return predKey{attr: -1, hash: pl.Pred.Hash64()}
	}
	return predKey{attr: pl.Attr}
}

// adaptiveFor returns the adaptive configuration in effect for pl.
func (e *Engine) adaptiveFor(pl *Plan) Adaptive {
	if pl.Adaptive != nil {
		return *pl.Adaptive
	}
	return e.cfg.Adaptive
}

// execState threads intermediate results between plan stages.
type execState struct {
	rec      *core.Reclustering // from WeightLORE
	attrTree *hier.Tree         // from WeightGlobal
	ch       *core.Chain
	pool     influence.Pool
	res      core.EvalResult
	// staged marks that an adaptive sample step already produced res (the
	// evaluate step then passes through); stages and gap annotate the sample
	// step's trace record and are cleared once recorded.
	staged bool
	stages int
	gap    float64
}

// Execute runs a compiled plan. rng is the query's deterministic stream;
// with the sample cache disabled, randomness is consumed in exactly the
// order the historical pipelines used, so answers are byte-identical to the
// pre-engine behavior for equal seeds. Error shapes match the historical
// pipelines: cancellation during sampling or evaluation wraps a
// *influence.CanceledError carrying partial progress.
//
// When the context carries a Recorder with a trace, every executed step
// emits a step span labeled (variant, kind, outcome), so the trace reads as
// the plan that actually ran. Step spans record no metrics and draw no
// randomness; instrumented execution stays byte-identical.
func (e *Engine) Execute(ctx context.Context, pl *Plan, rng *rand.Rand) (Community, error) {
	sc := e.acquire(rng)
	defer e.release(sc)
	r := obs.FromContext(ctx)
	variant := pl.Variant.String()
	var st execState
	for _, step := range pl.Steps {
		sp := r.StartStep(variant, step.Kind.String())
		com, outcome, done, err := e.runStep(ctx, pl, step, sc, rng, &st)
		// A staged sample step annotates its record with the realized stage
		// count and certified gap; every other step records zeros, which
		// EndStaged treats exactly as End.
		sp.EndStaged(outcome, st.stages, st.gap)
		st.stages, st.gap = 0, 0
		if err != nil {
			// Historical error shapes: a weight failure returns the zero
			// Community, sampling/evaluation failures mark Level -1.
			if step.Kind == StepWeight {
				return Community{}, err
			}
			return Community{Level: -1}, err
		}
		if done {
			return com, nil
		}
	}
	return Community{Level: -1}, nil
}

// runStep executes one plan step against st, returning the step's outcome
// label, whether the plan is done (com is then the answer), and any error.
// Factored out of Execute so the step span unconditionally Ends on every
// path (the spanend codvet shape).
func (e *Engine) runStep(ctx context.Context, pl *Plan, step Step, sc *queryScratch, rng *rand.Rand, st *execState) (com Community, outcome string, done bool, err error) {
	switch step.Kind {
	case StepWeight:
		if step.Weight == WeightGlobal {
			t, err := e.predTree(ctx, pl.Attr, pl.Pred, sc)
			if err != nil {
				return Community{}, errOutcome(err), false, err
			}
			st.attrTree = t
			if pl.Pred != nil {
				return Community{}, "predicate", false, nil
			}
			return Community{}, "global", false, nil
		}
		in := e.planMask(sc, pl.Attr, pl.Pred)
		rec, err := sc.lore.LorePredCtx(ctx, e.g, e.tree, pl.Q, in, e.p.Beta, e.p.Linkage)
		if err != nil {
			return Community{}, errOutcome(err), false, err
		}
		st.rec = rec
		if pl.Pred != nil {
			return Community{}, "predicate", false, nil
		}
		return Community{}, "lore", false, nil

	case StepIndexProbe:
		if com, ok := e.probeIndex(ctx, pl.Q, pl.K, st.rec); ok {
			return com, "hit", true, nil
		}
		return Community{}, "miss", false, nil

	case StepChain:
		switch step.Chain {
		case ChainTree:
			st.ch = sc.lore.ChainFromTree(e.tree, pl.Q)
			return Community{}, "tree", false, nil
		case ChainAttr:
			st.ch = sc.lore.ChainFromTree(st.attrTree, pl.Q)
			return Community{}, "attr", false, nil
		case ChainInner:
			st.ch = sc.lore.InnerChain(e.g, e.tree, st.rec, pl.Q)
			return Community{}, "inner", false, nil
		case ChainMerged:
			st.ch = sc.lore.MergedChain(e.g, e.tree, st.rec, pl.Q)
			return Community{}, "merged", false, nil
		}
		return Community{}, "unknown", false, nil

	case StepSample:
		src, err := e.newSampleSource(ctx, pl, step, sc, rng, st.rec)
		if err != nil {
			return Community{}, errOutcome(err), false, err
		}
		if ad := e.adaptiveFor(pl); ad.Enabled {
			// Bounded-error mode fuses sampling and evaluation: the pool
			// grows in stages, each swept and tested for certification, so
			// the step's outcome is the decision (early_stop/exhausted)
			// rather than the pool's provenance.
			outcome, stages, gap, err := runStaged(ctx, pl, &src, sc, st, ad)
			st.staged, st.stages, st.gap = true, stages, gap
			if err != nil {
				return Community{}, outcome, false, err
			}
			return Community{}, outcome, false, nil
		}
		pool, err := src.draw(ctx, sc, src.total)
		if err != nil {
			return Community{}, errOutcome(err), false, err
		}
		st.pool = pool
		return Community{}, src.outcome, false, nil

	case StepEvaluate:
		if st.staged {
			// The adaptive sample step already evaluated; st.res is final.
			return Community{}, "staged", false, nil
		}
		res, err := core.CompressedEvaluatePoolCtx(ctx, st.ch, st.pool, pl.K, sc.eval)
		if err != nil {
			return Community{}, errOutcome(err), false, err
		}
		st.res = res
		return Community{}, "ok", false, nil

	case StepFilter:
		lvl := e.applyFilters(st.ch, st.res, pl.Filters)
		if lvl == st.res.Level {
			return Community{}, "pass", false, nil
		}
		st.res.Level = lvl
		return Community{}, "cut", false, nil

	case StepExtract:
		com := communityFromChain(st.ch, st.res)
		if com.Found {
			return com, "found", true, nil
		}
		return com, "not_found", true, nil
	}
	return Community{}, "unknown", false, nil
}

// errOutcome labels a failed step: canceled for context errors (anywhere in
// the wrap chain), error otherwise.
func errOutcome(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "canceled"
	}
	return "error"
}

// probeIndex scans the HIMOR index top-down over the ancestors of C_ℓ (root
// first, C_ℓ last); the largest community where q is top-k answers directly.
// HIMOR ranks are exact sorted positions, so the probe is valid for any
// per-plan k override (plans with community filters skip it instead: the
// probe cannot honor them).
func (e *Engine) probeIndex(ctx context.Context, q graph.NodeID, k int, rec *core.Reclustering) (Community, bool) {
	r := obs.FromContext(ctx)
	lookup := r.StartSpan(obs.StageHimorLookup)
	anc := e.tree.Ancestors(rec.CL)
	for i := len(anc) - 1; i >= -1; i-- {
		v := rec.CL
		if i >= 0 {
			v = anc[i]
		}
		if rk := e.index.Rank(q, v); rk < k {
			lookup.EndItems(len(anc) - i)
			r.CountIndexHit()
			return Community{Nodes: e.tree.Members(v), Found: true, Level: -1,
				FromIndex: true, Rank: rk + 1}, true
		}
	}
	lookup.EndItems(len(anc) + 1)
	return Community{}, false
}

// sampleSource is a plan's RR sample pool, drawn up to a cumulative count:
// a plain plan draws it whole, the adaptive loop stage by stage. A draw
// continues exactly where the previous one paused and nothing between
// draws touches the query rng, so sample i is the same however the pool is
// drawn, and a run that draws the whole budget holds the full-budget pool.
type sampleSource struct {
	total int // the plan's budget: θ·|C_ℓ| restricted, θ·N shared
	// outcome labels a plain plan's sample step: restricted or sampled for
	// the query rng, cache_hit or cache_miss for a cached pool.
	outcome string

	// cached marks a shared pool fetched whole from the sample cache (its
	// content is a pure function of the predicate key and epoch); draws are
	// its prefixes.
	cached bool
	pool   influence.Pool

	// Otherwise samples come from the query rng, already bound to the
	// scratch sampler, into the scratch arena: confined to members when the
	// plan samples C_ℓ, over the whole graph when members is nil.
	op      string // the CanceledError's Op
	rng     *rand.Rand
	members []graph.NodeID
	member  func(graph.NodeID) bool
	drawn   int
}

// newSampleSource builds the sample step's source: θ·|C_ℓ| RR graphs
// confined to C_ℓ with sources drawn uniformly from its members by the
// query rng (the historical CODL loop), or the θ·N whole-graph pool — from
// the per-predicate cache when the engine has one, fetched here through
// sc's arena (which a miss Resets), else from the query rng in the
// influence.BatchPoolCtx draw order.
func (e *Engine) newSampleSource(ctx context.Context, pl *Plan, step Step, sc *queryScratch, rng *rand.Rand, rec *core.Reclustering) (sampleSource, error) {
	if step.Sample == SampleRestricted {
		members := rec.Sub.ToParent
		in := sc.memberMask(members)
		return sampleSource{total: e.p.Theta * len(members), outcome: "restricted",
			op: "engine: restricted rr sampling", rng: rng, members: members,
			member: func(u graph.NodeID) bool { return in[u] }}, nil
	}
	total := e.p.Theta * e.g.N()
	if e.cache == nil {
		return sampleSource{total: total, outcome: "sampled", op: "influence: rr batch"}, nil
	}
	pool, hit, err := e.cache.get(ctx, e, pl.predCacheKey(), total, sc.arena)
	if err != nil {
		return sampleSource{}, err
	}
	src := sampleSource{total: total, outcome: "cache_miss", cached: true, pool: pool}
	if hit {
		src.outcome = "cache_hit"
	}
	return src, nil
}

// draw extends the pool to cum cumulative samples and returns the pool so
// far; each draw's pool is a prefix of the next. Every draw from the query
// rng is one rr_sample span, and a cancel reports the samples drawn across
// all draws against the plan's budget. The returned pool aliases sc's
// arena (or the cache entry), so it lives until Execute releases sc.
func (src *sampleSource) draw(ctx context.Context, sc *queryScratch, cum int) (influence.Pool, error) {
	if src.cached {
		return src.pool.Prefix(cum), nil
	}
	span := obs.FromContext(ctx).StartSpan(obs.StageRRSample)
	start := src.drawn
	for ; src.drawn < cum; src.drawn++ {
		if src.drawn%influence.PollEvery == 0 {
			if err := ctx.Err(); err != nil {
				span.EndItems(src.drawn - start)
				return influence.Pool{}, &influence.CanceledError{
					Op: src.op, Done: src.drawn, Total: src.total, Cause: err}
			}
		}
		if src.members != nil {
			sc.sampler.RRGraphWithinInto(sc.arena, src.members[src.rng.IntN(len(src.members))], src.member)
		} else {
			sc.sampler.RRGraphInto(sc.arena)
		}
	}
	span.EndItems(src.drawn - start)
	return sc.arena.Pool(), nil
}

func communityFromChain(ch *core.Chain, res core.EvalResult) Community {
	if res.Level < 0 {
		return Community{Found: false, Level: -1}
	}
	com := Community{Nodes: ch.Members(res.Level), Found: true, Level: res.Level}
	if res.Ranks != nil {
		com.Rank = int(res.Ranks[res.Level])
	}
	return com
}

// planMask evaluates the plan's predicate over every node into the
// scratch's mask (or a fresh slice when sc is nil): HasAttr(v, attr) for a
// single-attribute plan, the normalized predicate otherwise. Consumers must
// finish with the mask before the scratch's member mask is next taken —
// both share storage.
func (e *Engine) planMask(sc *queryScratch, attr graph.AttrID, d *query.DNF) []bool {
	var in []bool
	if sc != nil {
		in = sc.mask
	} else {
		in = make([]bool, e.g.N())
	}
	if d == nil {
		return core.AttrMask(in, e.g, attr)
	}
	var node graph.NodeID
	has := func(a graph.AttrID) bool { return e.g.HasAttr(node, a) }
	for v := range in {
		node = graph.NodeID(v)
		in[v] = d.Eval(has)
	}
	return in
}

// applyFilters returns the largest chain level where q is top-k AND every
// community filter accepts the level's measures (-1 when none qualifies).
// Measures follow graph/metrics.go exactly: density = edges within / node
// pairs (0 below two nodes), conductance = cut / min(vol, 2M−vol) (0 for a
// whole zero-cut side, 1 otherwise on zero volume). All levels are measured
// in one O(N + M) pass: an edge is inside C_h iff both endpoint levels are
// ≤ h, and crosses C_h's cut iff exactly one is.
func (e *Engine) applyFilters(ch *core.Chain, res core.EvalResult, filters []query.Filter) int {
	L := ch.Len()
	if L == 0 || res.TopK == nil {
		return res.Level
	}
	within := make([]int64, L)  // edges whose outermost endpoint level is h
	cutDiff := make([]int64, L) // cut-interval difference array
	degSum := make([]int64, L)  // degree mass entering at level h
	e.g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		lo, hi := int(ch.Level(u)), int(ch.Level(v))
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi < L {
			within[hi]++
		}
		if lo < L && lo != hi {
			cutDiff[lo]++
			if hi < L {
				cutDiff[hi]--
			}
		}
	})
	for u := 0; u < e.g.N(); u++ {
		if l := int(ch.Level(graph.NodeID(u))); l < L {
			degSum[l] += int64(e.g.Degree(graph.NodeID(u)))
		}
	}
	total := 2 * int64(e.g.M())
	best := -1
	var withinCum, cutCum, volCum int64
	for h := 0; h < L; h++ {
		withinCum += within[h]
		cutCum += cutDiff[h]
		volCum += degSum[h]
		if !res.TopK[h] {
			continue
		}
		if filtersAccept(filters, ch.Size(h), withinCum, cutCum, volCum, total) {
			best = h
		}
	}
	return best
}

// filtersAccept evaluates every filter against one community's measures.
func filtersAccept(filters []query.Filter, size int, within, cut, vol, total int64) bool {
	for _, f := range filters {
		var v float64
		switch f.Field {
		case query.FieldSize:
			v = float64(size)
		case query.FieldDensity:
			if size >= 2 {
				pairs := float64(size) * float64(size-1) / 2
				v = float64(within) / pairs
			}
		case query.FieldConductance:
			minVol := vol
			if out := total - vol; out < minVol {
				minVol = out
			}
			switch {
			case minVol > 0:
				v = float64(cut) / float64(minVol)
			case cut != 0:
				v = 1
			}
		}
		if !f.Accept(v) {
			return false
		}
	}
	return true
}
