package influence

import (
	"context"
	"errors"
	"testing"

	"github.com/codsearch/cod/internal/graph"
)

// An uncancelled BatchPoolCtx holds exactly the samples of the allocating
// reference's Batch: the context polling consumes no randomness.
func TestBatchCtxMatchesBatchWhenUncancelled(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	want := rrBytes(t, refSampler{NewSampler(g, model, graph.NewRand(9))}.Batch(300))
	pool, err := BatchPoolCtx(context.Background(), NewSampler(g, model, graph.NewRand(9)), 300, NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if rrBytes(t, poolRRs(pool)) != want {
		t.Error("BatchPoolCtx(Background) differs from the reference Batch")
	}
}

// BatchIntoCtx, the header lowering of BatchPoolCtx, reads the same samples
// as the pool BatchPoolCtx draws from the same seed.
func TestBatchIntoCtxMatchesBatchCtx(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	pool, err := BatchPoolCtx(context.Background(), NewSampler(g, model, graph.NewRand(9)), 300, NewArena())
	if err != nil {
		t.Fatal(err)
	}
	rrs, err := BatchIntoCtx(context.Background(), NewSampler(g, model, graph.NewRand(9)), 300, NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != pool.Len() {
		t.Fatalf("BatchIntoCtx = %d samples, BatchPoolCtx = %d", len(rrs), pool.Len())
	}
	if rrBytes(t, rrs) != rrBytes(t, poolRRs(pool)) {
		t.Error("BatchIntoCtx(Background) differs from BatchPoolCtx(Background)")
	}
}

// A canceled batch returns the samples completed so far, as many as its
// *CanceledError counts.
func TestBatchPoolCtxCancellation(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool, err := BatchPoolCtx(ctx, NewSampler(g, NewWeightedCascade(g), graph.NewRand(9)), 500, NewArena())
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError", err)
	}
	if ce.Done != pool.Len() || ce.Total != 500 {
		t.Errorf("progress %d/%d, got %d samples", ce.Done, ce.Total, pool.Len())
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
	rrs, err := BatchIntoCtx(ctx, NewSampler(g, NewWeightedCascade(g), graph.NewRand(9)), 500, NewArena())
	if !errors.As(err, &ce) || len(rrs) != ce.Done {
		t.Errorf("canceled BatchIntoCtx = %d samples, %v", len(rrs), err)
	}
}

func TestParallelBatchCtxMatchesParallelBatch(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	plain := ParallelBatch(g, model, 257, 11, 4)
	withCtx, err := ParallelBatchCtx(context.Background(), g, model, 257, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rrBytes(t, poolRRs(plain)) != rrBytes(t, poolRRs(withCtx)) {
		t.Error("ParallelBatchCtx differs from ParallelBatch across worker counts")
	}
}

func TestParallelBatchCtxCancellation(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ParallelBatchCtx(ctx, g, NewWeightedCascade(g), 10_000, 11, 4)
	if err == nil {
		t.Fatal("canceled parallel batch returned no error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError", err)
	}
	if ce.Done >= ce.Total {
		t.Errorf("progress %d/%d reports a complete run", ce.Done, ce.Total)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
}
