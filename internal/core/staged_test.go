package core

import (
	"context"
	"errors"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/influence"
)

// stagedChain builds a random graph, chain and RR pool for staged tests.
func stagedChain(t *testing.T, seed uint64, n, m, pool int) (*Chain, influence.Pool) {
	t.Helper()
	rng := graph.NewRand(seed)
	g := graph.ErdosRenyi(n, m, rng)
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	q := graph.NodeID(rng.IntN(n))
	ch := ChainFromTree(tr, q)
	s := influence.NewSampler(g, influence.NewWeightedCascade(g), graph.NewRand(seed+900))
	return ch, drawPool(t, s, pool)
}

// A staged evaluation folding the pool in geometric stages must land on
// exactly the non-staged result once the full pool is folded, and its
// per-level decisions must match the reference semantics at every stage.
func TestStagedMatchesCompressed(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(0); seed < 6; seed++ {
		ch, pool := stagedChain(t, seed, 40, 110, 400)
		for _, k := range []int{1, 2, 5} {
			want := evaluate(t, ch, pool, k)
			se := NewStagedEval(ch, k, nil)
			var res EvalResult
			var margins []LevelMargin
			for _, cum := range []int{50, 100, 200, 400} {
				if err := se.Fold(ctx, pool.Prefix(cum)); err != nil {
					t.Fatal(err)
				}
				res, margins = se.Sweep(ctx)

				// Every stage's sweep must agree with the reference decisions
				// over the folded prefix.
				ref := referenceCounts(ch, pool.Prefix(cum))
				if res.Level != referenceBest(ch, ref, k) {
					t.Fatalf("seed=%d k=%d cum=%d: level = %d, want %d",
						seed, k, cum, res.Level, referenceBest(ch, ref, k))
				}
				for h, m := range margins {
					if int(m.QCount) != ref[h][ch.Q()] {
						t.Fatalf("seed=%d k=%d cum=%d h=%d: QCount = %d, want %d",
							seed, k, cum, h, m.QCount, ref[h][ch.Q()])
					}
				}
			}
			if se.Folded() != 400 {
				t.Fatalf("folded = %d, want 400", se.Folded())
			}
			if !res.Equal(want) {
				t.Fatalf("seed=%d k=%d: staged = %+v, want %+v", seed, k, res, want)
			}
		}
	}
}

// Folding the same pool twice adds nothing: Fold consumes only the suffix
// past Folded(), so re-presenting the grown pool each stage is idempotent.
func TestStagedFoldIdempotent(t *testing.T) {
	ctx := context.Background()
	ch, pool := stagedChain(t, 3, 30, 70, 200)
	se := NewStagedEval(ch, 2, nil)
	if err := se.Fold(ctx, pool); err != nil {
		t.Fatal(err)
	}
	res1, _ := se.Sweep(ctx)
	if err := se.Fold(ctx, pool); err != nil {
		t.Fatal(err)
	}
	res2, _ := se.Sweep(ctx)
	if !res1.Equal(res2) {
		t.Fatalf("refold changed the result: %+v vs %+v", res1, res2)
	}
	if want := evaluate(t, ch, pool, 2); !res1.Equal(want) {
		t.Fatalf("staged = %+v, want %+v", res1, want)
	}
}

// The per-level margins must agree with the decision they summarize: when
// Boundary is the filled rank-k boundary, QCount clearly above it implies
// in-top-k and clearly below implies out.
func TestStagedMarginsConsistent(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(10); seed < 14; seed++ {
		ch, pool := stagedChain(t, seed, 36, 90, 300)
		se := NewStagedEval(ch, 3, nil)
		if err := se.Fold(ctx, pool); err != nil {
			t.Fatal(err)
		}
		_, margins := se.Sweep(ctx)
		for h, m := range margins {
			if m.QCount > m.Boundary && !m.InTopK {
				t.Fatalf("seed=%d h=%d: QCount %d > boundary %d but not top-k", seed, h, m.QCount, m.Boundary)
			}
			if m.QCount < m.Boundary && m.InTopK {
				t.Fatalf("seed=%d h=%d: QCount %d < boundary %d but top-k", seed, h, m.QCount, m.Boundary)
			}
		}
	}
}

// A canceled Fold reports the RR graphs folded so far and the StagedEval
// can resume cleanly once the context pressure is gone.
func TestStagedFoldCanceled(t *testing.T) {
	ch, pool := stagedChain(t, 5, 30, 70, 200)
	se := NewStagedEval(ch, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := se.Fold(ctx, pool)
	var ce *influence.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *influence.CanceledError", err)
	}
	if ce.Done != se.Folded() || ce.Total != 200 {
		t.Fatalf("Done=%d Folded=%d Total=%d", ce.Done, se.Folded(), ce.Total)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err does not unwrap to context.Canceled: %v", err)
	}
	// Resume on a live context: the result must equal the non-staged one.
	if err := se.Fold(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
	res, _ := se.Sweep(context.Background())
	if want := evaluate(t, ch, pool, 2); !res.Equal(want) {
		t.Fatalf("resumed staged = %+v, want %+v", res, want)
	}
}
