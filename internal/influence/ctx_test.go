package influence

import (
	"context"
	"errors"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
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

// TestParallelBatchRangeCtxStagedMatchesFull locks the stage-resumable
// contract: sampling a geometric schedule of ranges concatenates to the
// byte-identical pool of one full-range call, for any worker count.
func TestParallelBatchRangeCtxStagedMatchesFull(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	want := rrBytes(t, poolRRs(ParallelBatch(g, model, 400, 11, 4)))
	for _, workers := range []int{1, 3} {
		var pool []*RRGraph
		lo := 0
		for _, hi := range []int{50, 100, 200, 400} {
			part, err := ParallelBatchRangeCtx(context.Background(), g, model, lo, hi, 11, workers)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, poolRRs(part)...)
			lo = hi
		}
		if got := rrBytes(t, pool); got != want {
			t.Errorf("workers=%d: staged ranges differ from the full-range pool", workers)
		}
	}
}

func TestParallelBatchRangeCtxEdgeCases(t *testing.T) {
	g := graph.ErdosRenyi(10, 20, graph.NewRand(2))
	model := NewWeightedCascade(g)
	if got, err := ParallelBatchRangeCtx(context.Background(), g, model, 7, 7, 1, 4); err != nil || got.Len() != 0 {
		t.Errorf("empty range: got %d samples, err %v", got.Len(), err)
	}
	if got, err := ParallelBatchRangeCtx(context.Background(), g, model, 9, 3, 1, 4); err != nil || got.Len() != 0 {
		t.Errorf("inverted range: got %d samples, err %v", got.Len(), err)
	}
}

// TestParallelBatchRangeCtxCancelFlushesStageCounts extends the PR-3 fan-in
// lock to the staged path: each stage call is its own rr_sample span, and a
// cancel landing mid-stage must flush that stage's partial per-worker count
// through the Recorder — the earlier complete stages keep their exact spans,
// and the cumulative item count equals completed-stage samples plus the
// partial stage's Done, with nothing double-counted.
func TestParallelBatchRangeCtxCancelFlushesStageCounts(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	tr := obs.NewTrace()
	rctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, tr))

	// Two complete stages on a live context…
	if _, err := ParallelBatchRangeCtx(rctx, g, model, 0, 128, 11, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ParallelBatchRangeCtx(rctx, g, model, 128, 256, 11, 2); err != nil {
		t.Fatal(err)
	}
	// …then a stage whose context flips to Canceled mid-run: each of the 2
	// workers covers 384 samples with a poll every 64, so the flip lands
	// after some samples complete but before the stage can finish.
	fc := &flipCtx{Context: rctx, nilFor: 3}
	_, err := ParallelBatchRangeCtx(fc, g, model, 256, 1024, 11, 2)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError (err=%v)", err, err)
	}
	if ce.Done <= 0 || ce.Done >= ce.Total {
		t.Fatalf("progress %d/%d is not a partial stage", ce.Done, ce.Total)
	}
	if ce.Total != 1024-256 {
		t.Errorf("Total = %d, want the stage range size %d — staged callers sum stages, so a cumulative Total would double-count", ce.Total, 1024-256)
	}

	want := int64(128 + 128 + ce.Done)
	if got := m.StageItems(obs.StageRRSample).Value(); got != want {
		t.Errorf("rr_sample items counter = %d, want %d (two complete stages + partial)", got, want)
	}
	if got := m.StageSeconds(obs.StageRRSample).Count(); got != 3 {
		t.Errorf("rr_sample histogram count = %d, want 3 stage spans", got)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	for i, items := range []int64{128, 128, int64(ce.Done)} {
		if spans[i].Stage != obs.StageRRSample || spans[i].Items != items {
			t.Errorf("stage span %d = %+v, want rr_sample with %d items", i, spans[i], items)
		}
	}
}
