package influence

import (
	"context"
	"errors"
	"testing"

	"github.com/codsearch/cod/internal/graph"
)

func TestBatchCtxMatchesBatchWhenUncancelled(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	plain := NewSampler(g, model, graph.NewRand(9)).Batch(300)
	withCtx, err := BatchCtx(context.Background(), NewSampler(g, model, graph.NewRand(9)), 300)
	if err != nil {
		t.Fatal(err)
	}
	if rrBytes(t, plain) != rrBytes(t, withCtx) {
		t.Error("BatchCtx(Background) differs from Batch")
	}
}

func TestBatchCtxCancellation(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := BatchCtx(ctx, NewSampler(g, NewWeightedCascade(g), graph.NewRand(9)), 500)
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError", err)
	}
	if ce.Done != len(got) || ce.Total != 500 {
		t.Errorf("progress %d/%d, got %d samples", ce.Done, ce.Total, len(got))
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
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
