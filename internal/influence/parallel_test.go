package influence

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

func TestParallelBatchDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(50, 150, graph.NewRand(1))
	model := NewWeightedCascade(g)
	a := ParallelBatch(g, model, 200, 7, 4)
	b := ParallelBatch(g, model, 200, 7, 4)
	if a.Len() != 200 || b.Len() != 200 {
		t.Fatalf("lengths %d %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Nodes(i)[0] != b.Nodes(i)[0] || len(a.Nodes(i)) != len(b.Nodes(i)) {
			t.Fatalf("sample %d differs across runs", i)
		}
	}
}

// poolRRs returns header views of every sample of p, so pools compare with
// the []*RRGraph helpers.
func poolRRs(p Pool) []*RRGraph {
	out := make([]*RRGraph, p.Len())
	for i := range out {
		r := p.Sample(i)
		out[i] = &r
	}
	return out
}

// rrBytes serializes a batch of RR graphs exactly (nodes, offsets, adjacency),
// so two batches compare byte-for-byte.
func rrBytes(t *testing.T, rrs []*RRGraph) string {
	t.Helper()
	out := ""
	for i, r := range rrs {
		if r == nil {
			t.Fatalf("nil sample at %d", i)
		}
		out += fmt.Sprintf("%d:%v|%v|%v\n", i, r.Nodes, r.Off, r.Adj)
	}
	return out
}

func TestParallelBatchWorkerCountInvariant(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, graph.NewRand(4))
	model := NewWeightedCascade(g)
	want := rrBytes(t, poolRRs(ParallelBatch(g, model, 300, 11, 1)))
	for _, workers := range []int{2, 3, 8} {
		got := rrBytes(t, poolRRs(ParallelBatch(g, model, 300, 11, workers)))
		if got != want {
			t.Fatalf("workers=%d batch differs from sequential batch", workers)
		}
	}
}

func TestParallelBatchEdgeCases(t *testing.T) {
	g := graph.ErdosRenyi(10, 20, graph.NewRand(2))
	model := NewWeightedCascade(g)
	if got := ParallelBatch(g, model, 0, 1, 4); got.Len() != 0 {
		t.Error("count 0 should return empty")
	}
	if got := ParallelBatch(g, model, 3, 1, 16); got.Len() != 3 {
		t.Error("workers > count mishandled")
	}
	if got := ParallelBatch(g, model, 5, 1, 0); got.Len() != 5 {
		t.Error("workers 0 mishandled")
	}
}

// flipCtx is a context whose Err() flips to Canceled after a fixed number of
// calls, giving the cancellation a deterministic trigger point in the middle
// of a run (workers poll Err every PollEvery samples, so a plain canceled
// context would stop them before any work).
type flipCtx struct {
	context.Context
	calls  atomic.Int64
	nilFor int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.nilFor {
		return context.Canceled
	}
	return nil
}

// TestParallelBatchCtxCancelFlushesSampleCounts locks the fan-in fix: when a
// parallel batch is canceled mid-run, the per-worker completed-sample counts
// must still reach the Recorder's rr_sample counter — they must match the
// Done the CanceledError reports, not vanish with the discarded pool.
func TestParallelBatchCtxCancelFlushesSampleCounts(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	tr := obs.NewTrace()
	ctx := obs.WithRecorder(
		context.Background(), obs.NewRecorder(m, tr))
	// Err returns nil for the first 3 polls, Canceled from the 4th: each of
	// the 2 workers covers 512 samples with a poll every 64, so the flip
	// lands mid-run — some samples complete, the run cannot finish.
	fc := &flipCtx{Context: ctx, nilFor: 3}

	_, err := ParallelBatchCtx(fc, g, model, 1024, 11, 2)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CanceledError (err=%v)", err, err)
	}
	if ce.Done <= 0 || ce.Done >= ce.Total {
		t.Fatalf("progress %d/%d is not a partial run", ce.Done, ce.Total)
	}
	if got := m.StageItems(obs.StageRRSample).Value(); got != int64(ce.Done) {
		t.Errorf("rr_sample items counter = %d, want the %d completed samples the error reports", got, ce.Done)
	}
	if got := m.StageSeconds(obs.StageRRSample).Count(); got != 1 {
		t.Errorf("rr_sample histogram count = %d, want 1", got)
	}
	// The partial span also lands in the trace with the same item count.
	if tr.Len() != 1 {
		t.Fatalf("trace has %d spans, want 1", tr.Len())
	}
	if s := tr.Spans()[0]; s.Stage != obs.StageRRSample || s.Items != int64(ce.Done) {
		t.Errorf("trace span = %+v, want rr_sample with %d items", s, ce.Done)
	}
}

// TestParallelBatchCtxCompleteFlushesSampleCounts is the uncancelled
// counterpart: a full run flushes exactly count samples.
func TestParallelBatchCtxCompleteFlushesSampleCounts(t *testing.T) {
	g := graph.ErdosRenyi(60, 150, graph.NewRand(4))
	model := NewWeightedCascade(g)
	reg := obs.NewRegistry()
	m := obs.NewQueryMetrics(reg)
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(m, nil))
	if _, err := ParallelBatchCtx(ctx, g, model, 300, 11, 4); err != nil {
		t.Fatal(err)
	}
	if got := m.StageItems(obs.StageRRSample).Value(); got != 300 {
		t.Errorf("rr_sample items counter = %d, want 300", got)
	}
}

func TestParallelBatchStatisticallySane(t *testing.T) {
	g := graph.BarabasiAlbert(40, 2, graph.NewRand(3))
	model := NewWeightedCascade(g)
	rrs := ParallelBatch(g, model, 4000, 9, 8)
	counts := EstimateAll(g, poolRRs(rrs))
	// node 0 is a hub in BA graphs: its count should be well above average
	avg := 0
	for _, c := range counts {
		avg += c
	}
	avg /= len(counts)
	if counts[0] <= avg {
		t.Errorf("hub count %d not above average %d", counts[0], avg)
	}
}
