package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"math/rand/v2"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
	"github.com/codsearch/cod/internal/obs"
)

func TestStageSchedule(t *testing.T) {
	cases := []struct {
		total, stages int
		want          []int
	}{
		{800, 4, []int{100, 200, 400, 800}},
		{2048, 4, []int{256, 512, 1024, 2048}},
		{1000, 4, []int{125, 250, 500, 1000}},
		{7, 4, []int{1, 2, 4, 7}}, // ceils: ⌈7/8⌉=1, ⌈7/4⌉=2, ⌈7/2⌉=4
		{3, 4, []int{1, 2, 3}},    // ⌈3/8⌉=⌈3/4⌉=1 dedupes
		{1, 4, []int{1}},          // degenerate budget
		{0, 4, []int{1}},          // guarded up to 1
		{100, 1, []int{100}},      // single stage ≡ non-adaptive draw
		{6, 8, []int{1, 2, 3, 6}}, // more stages than distinct sizes
		{1 << 20, 2, []int{1 << 19, 1 << 20}},
	}
	for _, c := range cases {
		got := stageSchedule(c.total, c.stages)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("stageSchedule(%d, %d) = %v, want %v", c.total, c.stages, got, c.want)
		}
		if got[len(got)-1] != max(c.total, 1) {
			t.Errorf("stageSchedule(%d, %d) does not end at the budget: %v", c.total, c.stages, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("stageSchedule(%d, %d) not strictly increasing: %v", c.total, c.stages, got)
			}
		}
	}
}

// trialMargins simulates a single-level chain where q's per-sample hit is
// Bernoulli(pq) and the rank-k boundary's is Bernoulli(pb), and runs the
// staged certifier over the geometric schedule exactly as runStaged would:
// counts accumulate across stages and certify sees the cumulative totals. It
// returns the stage at which certification fired (0 = never, i.e. the run
// reached exhaustion) and whether the certified decision agreed in sign with
// the true gap pq−pb.
func trialMargins(a Adaptive, rng *rand.Rand, pq, pb float64, sched []int) (stoppedAt int, rightSide bool) {
	var qc, bc int32
	drawn := 0
	for si, cum := range sched {
		for ; drawn < cum; drawn++ {
			if rng.Float64() < pq {
				qc++
			}
			if rng.Float64() < pb {
				bc++
			}
		}
		if si == len(sched)-1 {
			return 0, true
		}
		m := []core.LevelMargin{{QCount: qc, Boundary: bc, InTopK: qc >= bc}}
		best := -1
		if m[0].InTopK {
			best = 0
		}
		if ok, _ := a.certify(m, best, cum, len(sched)); ok {
			empirical := qc >= bc
			truth := pq >= pb
			return si + 1, empirical == truth
		}
	}
	return 0, true
}

// TestAdaptiveCertifierPlantedGap drives the certifier over ≥1k seeded trials
// of a planted-gap distribution: the margin is real (pq−pb = 0.2), so the
// certifier should (a) never certify the wrong side — the 1−δ guarantee with
// lots of slack — and (b) stop early in the overwhelming majority of trials,
// or the bound is too loose to be worth shipping.
func TestAdaptiveCertifierPlantedGap(t *testing.T) {
	a := Adaptive{Delta: 0.05, Stages: 4} // Eps 0: pure margin certification
	sched := stageSchedule(2048, a.Stages)
	const trials = 1500
	wrong, early := 0, 0
	for i := 0; i < trials; i++ {
		stopped, right := trialMargins(a, graph.NewRand(graph.ItemSeed(4242, i)), 0.5, 0.3, sched)
		if stopped > 0 {
			early++
			if !right {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("planted gap: %d/%d early stops certified the wrong side", wrong, early)
	}
	if early < trials*9/10 {
		t.Errorf("planted gap: only %d/%d trials stopped early; the bound is uselessly loose", early, trials)
	}
}

// TestAdaptiveCertifierNearTie pins the adversarial regime: an exact tie
// (pq = pb) has no certifiable margin, so with Eps = 0 the certifier must
// essentially never fire and every run must fall through to exhaustion —
// never loop or block. A hair-width gap (0.401 vs 0.4) may legitimately
// certify either side near the boundary; the guarantee is only that
// wrong-side certifications stay within δ of the trials.
func TestAdaptiveCertifierNearTie(t *testing.T) {
	a := Adaptive{Delta: 0.05, Stages: 4}
	sched := stageSchedule(2048, a.Stages)
	const trials = 1500

	tieStops := 0
	for i := 0; i < trials; i++ {
		if stopped, _ := trialMargins(a, graph.NewRand(graph.ItemSeed(7711, i)), 0.4, 0.4, sched); stopped > 0 {
			tieStops++
		}
	}
	// δ′-level false certifications are possible but must be rare: allow the
	// full δ budget even though each trial only gets a δ′ slice of it.
	if maxStops := int(float64(trials) * a.Delta); tieStops > maxStops {
		t.Errorf("exact tie: %d/%d trials certified (> δ budget %d)", tieStops, trials, maxStops)
	}

	wrong := 0
	for i := 0; i < trials; i++ {
		if stopped, right := trialMargins(a, graph.NewRand(graph.ItemSeed(9913, i)), 0.401, 0.4, sched); stopped > 0 && !right {
			wrong++
		}
	}
	if maxWrong := int(float64(trials) * a.Delta); wrong > maxWrong {
		t.Errorf("adversarial near-tie: %d/%d wrong-side certifications (> δ budget %d)", wrong, trials, maxWrong)
	}
}

// TestAdaptiveCertifierEpsIndifference checks the PAC slack: with a generous
// Eps an exact tie is allowed to stop early once the radius shrinks below
// Eps, instead of burning the whole budget on an unresolvable margin.
func TestAdaptiveCertifierEpsIndifference(t *testing.T) {
	a := Adaptive{Eps: 0.2, Delta: 0.05, Stages: 4}
	sched := stageSchedule(2048, a.Stages)
	early := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		if stopped, _ := trialMargins(a, graph.NewRand(graph.ItemSeed(31337, i)), 0.4, 0.4, sched); stopped > 0 {
			early++
		}
	}
	if early < trials/2 {
		t.Errorf("eps indifference: only %d/%d tied trials stopped early with Eps=0.2", early, trials)
	}
}

// adaptiveExhaustive is an Adaptive config whose thresholds can never
// certify (subnormal Eps and Delta survive withDefaults' >0 checks), so
// every query runs the full stage schedule. By the staged-draw contract the
// result must then be byte-identical to the non-adaptive engine.
var adaptiveExhaustive = Adaptive{Enabled: true, Eps: 1e-300, Delta: 1e-300}

// TestAdaptiveExhaustedMatchesNonAdaptive locks the tentpole's core
// determinism promise: an adaptive run that reaches the final stage equals
// the non-adaptive run exactly — same community, on every variant, with and
// without the sample cache (prefix evaluation over a cached full pool).
func TestAdaptiveExhaustedMatchesNonAdaptive(t *testing.T) {
	for _, cache := range []int{0, 4} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			g, _ := attrGraph(t, 21)
			p := Params{K: 3, Theta: 3, Seed: 21}
			plain, err := Build(context.Background(), g, p, Config{SampleCache: cache})
			if err != nil {
				t.Fatal(err)
			}
			adaptive := New(g, plain.Tree(), plain.Index(), p, Config{SampleCache: cache, Adaptive: adaptiveExhaustive})
			for _, q := range queryNodes(g, 6) {
				for i, variant := range []Variant{VariantCODU, VariantCODR, VariantCODL, VariantCODLNoIndex} {
					seed := graph.ItemSeed(88, int(q)*4+i)
					want, err := plain.Execute(context.Background(), plain.Compile(variant, q, 0), graph.NewRand(seed))
					if err != nil {
						t.Fatalf("%v q=%d plain: %v", variant, q, err)
					}
					got, err := adaptive.Execute(context.Background(), adaptive.Compile(variant, q, 0), graph.NewRand(seed))
					if err != nil {
						t.Fatalf("%v q=%d adaptive: %v", variant, q, err)
					}
					if comBytes(got) != comBytes(want) {
						t.Errorf("%v q=%d: exhausted adaptive differs from non-adaptive:\n got %s\nwant %s",
							variant, q, comBytes(got), comBytes(want))
					}
				}
			}
		})
	}
}

// exactMargins replays the exact full-budget CODU evaluation for q and
// returns its per-level margins alongside the pool size, so a test can ask
// how wide the true (full-budget empirical) gap at a level really was.
func exactMargins(t *testing.T, g *graph.Graph, tree *hier.Tree, p Params, q graph.NodeID, seed uint64) ([]core.LevelMargin, int) {
	t.Helper()
	ch := core.ChainFromTree(tree, q)
	s := NewGraphSampler(g, p.Model, graph.NewRand(seed))
	total := p.Theta * g.N()
	pool, err := influence.BatchPoolCtx(context.Background(), s, total, influence.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	se := core.NewStagedEval(ch, p.K, nil)
	if err := se.Fold(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
	_, margins := se.Sweep(context.Background())
	return margins, total
}

// TestAdaptiveEarlyStopWithinEps checks the (ε, δ)-contract end to end at
// sane defaults on the planted-partition graph: queries may stop early, and
// whenever the early answer's level differs from the exact one, the exact
// margin at the flipped level must sit inside the indifference region — an
// early stop is only ever "wrong" about statistically near-tied levels.
// Theta is set high enough that the stage-1 pool can actually shrink the
// confidence radius below ε; certification is impossible at toy budgets
// (the EB radius's additive term alone exceeds ε), which is itself the
// bound working as intended.
func TestAdaptiveEarlyStopWithinEps(t *testing.T) {
	g, _ := attrGraph(t, 33)
	p := Params{K: 3, Theta: 64, Seed: 33}
	plain, err := Build(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ad := Adaptive{Enabled: true}.withDefaults()
	adaptive := New(g, plain.Tree(), plain.Index(), p, Config{Adaptive: ad})
	stops := 0
	for i, q := range queryNodes(g, 6) {
		seed := graph.ItemSeed(99, i)
		want, err := plain.Execute(context.Background(), plain.Compile(VariantCODU, q, 0), graph.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(nil, tr))
		got, err := adaptive.Execute(ctx, adaptive.Compile(VariantCODU, q, 0), graph.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range tr.Steps() {
			if st.Kind == "sample" && st.Outcome == "early_stop" {
				stops++
			}
		}
		if comBytes(got) == comBytes(want) {
			continue
		}
		// The answers differ, so the in-top-k decision flipped at the higher
		// of the two answer levels. The contract says that can only happen
		// when that level is a near-tie: its exact margin must be within the
		// indifference region (ε plus full-budget estimation slack).
		flipped := max(got.Level, want.Level)
		if flipped < 0 {
			t.Fatalf("q=%d: answers differ with no flipped level: got %s want %s", q, comBytes(got), comBytes(want))
		}
		margins, total := exactMargins(t, g, plain.Tree(), p, q, seed)
		m := margins[flipped]
		gap := math.Abs(float64(m.QCount-m.Boundary)) / float64(total)
		if gap > 2*ad.Eps {
			t.Errorf("q=%d: early stop flipped level %d whose exact margin %.4f is well outside ε=%.2f:\n got %s\nwant %s",
				q, flipped, gap, ad.Eps, comBytes(got), comBytes(want))
		}
	}
	if stops == 0 {
		t.Error("no query stopped early at defaults on a well-separated graph")
	}
}

// TestAdaptiveStepTrace locks the staged step-trace contract: the sample
// step carries the staged outcome vocabulary with a realized stage count,
// and the evaluate step reports "staged" (the work already happened inside
// the fused sample step).
func TestAdaptiveStepTrace(t *testing.T) {
	g, _ := attrGraph(t, 21)
	p := Params{K: 3, Theta: 3, Seed: 21}
	plain, err := Build(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(g, plain.Tree(), plain.Index(), p, Config{Adaptive: Adaptive{Enabled: true}})
	for _, variant := range []Variant{VariantCODU, VariantCODR, VariantCODL, VariantCODLNoIndex} {
		for _, q := range queryNodes(g, 4) {
			steps := traceSteps(t, eng, variant, q, 0, 7)
			sampled, evaluated := false, false
			for _, st := range steps {
				switch st.Kind {
				case "sample":
					sampled = true
					if st.Outcome != "early_stop" && st.Outcome != "exhausted" {
						t.Errorf("%v q=%d: sample outcome %q, want early_stop or exhausted", variant, q, st.Outcome)
					}
					if st.Stages < 1 {
						t.Errorf("%v q=%d: sample step records %d stages", variant, q, st.Stages)
					}
					if st.Outcome == "early_stop" && st.Gap <= 0 {
						t.Errorf("%v q=%d: early_stop with non-positive certified gap %v", variant, q, st.Gap)
					}
				case "evaluate":
					evaluated = true
					if st.Outcome != "staged" {
						t.Errorf("%v q=%d: evaluate outcome %q, want staged", variant, q, st.Outcome)
					}
					if st.Stages != 0 {
						t.Errorf("%v q=%d: evaluate step leaked stage count %d", variant, q, st.Stages)
					}
				}
			}
			if sampled != evaluated {
				t.Errorf("%v q=%d: sample step (%v) without matching staged evaluate (%v)", variant, q, sampled, evaluated)
			}
		}
	}
}

// TestAdaptiveMetrics checks the CountAdaptive plumbing end to end: early
// stops and exhaustions split the counter/histogram correctly and the
// realized-budget counters stay ≤ the budget counters.
func TestAdaptiveMetrics(t *testing.T) {
	g, _ := attrGraph(t, 21)
	p := Params{K: 3, Theta: 3, Seed: 21}
	plain, err := Build(context.Background(), g, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(g, plain.Tree(), plain.Index(), p, Config{Adaptive: adaptiveExhaustive})
	m := obs.NewQueryMetrics(obs.NewRegistry())
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))
	queries := 0
	for i, q := range queryNodes(g, 4) {
		if _, err := eng.Execute(ctx, eng.Compile(VariantCODU, q, 0), graph.NewRand(graph.ItemSeed(5, i))); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	if got := m.AdaptiveEarlyStops.Value(); got != 0 {
		t.Errorf("exhaustive config recorded %d early stops", got)
	}
	if got := int(m.AdaptiveStages.Count()); got != queries {
		t.Errorf("stage histogram has %d observations, want %d", got, queries)
	}
	used, budget := m.AdaptiveSamplesUsed.Value(), m.AdaptiveSamplesBudget.Value()
	if used != budget {
		t.Errorf("exhaustive runs must realize the full budget: used %d of %d", used, budget)
	}
	if budget == 0 {
		t.Error("no budget recorded")
	}
}
