package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/codsearch/cod"
	"github.com/codsearch/cod/internal/blobstore"
	"github.com/codsearch/cod/internal/faultfs"
)

// TestChaosSwapUnderLoad is the robustness acceptance harness for index
// distribution: with deterministic fault injection on every blobstore
// operation (transport failures, torn writes, fsync errors, read-side bit
// rot), it drives 20+ epoch hot swaps under concurrent query load and
// asserts the serving contract never cracks:
//
//   - zero failed requests — every admitted query answers 200 throughout
//   - no swap ever installs an artifact that failed CRC/params verification
//     (asserted byte-for-byte: every response matches the reference answer
//     for the epoch its X-Cod-Epoch header names)
//   - epochs observed by one client are monotone non-decreasing
//
// Queries use method=codu with the sample cache on: pools derive from
// (Seed, attr, engine-epoch) only, so answers within one epoch are
// arrival-order invariant and byte-identity is assertable under load.
// The fault schedules are pure functions of an operation counter, so every
// failure replays identically under -race and -count=4.
func TestChaosSwapUnderLoad(t *testing.T) {
	const (
		totalEpochs = 22
		queryNodes  = 16
		workers     = 4
	)
	// Thousands of per-query slog lines would drown the -race -count=4 CI
	// output; the chaos run asserts on bodies and counters, not logs.
	prevLogger := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prevLogger) })
	dir := t.TempDir()
	clean, err := blobstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The publisher's store tears every 6th write at 16 bytes (reporting
	// success), fails every 11th fsync, and drops every 9th operation at
	// the transport. Read-back verification plus retries must absorb all
	// of it.
	pubOps := faultfs.NewSeq(func(n int64) error {
		if n%9 == 0 {
			return errors.New("chaos: publisher transport reset")
		}
		return nil
	})
	pubTears := faultfs.NewSeq(func(n int64) error {
		if n%6 == 0 {
			return errors.New("tear")
		}
		return nil
	})
	pubSyncs := faultfs.NewSeq(func(n int64) error {
		if n%11 == 0 {
			return errors.New("chaos: fsync I/O error")
		}
		return nil
	})
	publisher, err := blobstore.NewFSWithHooks(dir, blobstore.Hooks{
		BeforeOp: func(op, key string) error { return pubOps.Next() },
		WrapWriter: func(key string, w io.Writer) io.Writer {
			if pubTears.Next() != nil {
				return &faultfs.TornWriter{W: w, Keep: 16}
			}
			return w
		},
		SyncError: func(key string) error { return pubSyncs.Next() },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The replica's store drops every 7th operation and bit-flips every
	// 5th opened read stream. CRC verification must reject every corrupt
	// copy before it can reach a swap.
	repOps := faultfs.NewSeq(func(n int64) error {
		if n%7 == 0 {
			return errors.New("chaos: replica transport reset")
		}
		return nil
	})
	repRot := faultfs.NewSeq(func(n int64) error {
		if n%5 == 0 {
			return errors.New("rot")
		}
		return nil
	})
	replica, err := blobstore.NewFSWithHooks(dir, blobstore.Hooks{
		BeforeOp: func(op, key string) error { return repOps.Next() },
		WrapReader: func(key string, r io.Reader) io.Reader {
			if repRot.Next() != nil {
				return &faultfs.BitErrReader{R: r, Offsets: []int64{7, 23}, Mask: 0x10}
			}
			return r
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	sw, h := storeSwapper(t, replica)
	ctx := context.Background()
	base := cod.Options{SampleCache: 8}

	// expected maps epoch -> query node -> exact response body, computed
	// from a reference load of the same published epoch (clean reads)
	// before that epoch can ever be served.
	var expected sync.Map
	publish := func(epoch uint64) {
		t.Helper()
		g, err := cod.GenerateDataset("tiny", 7)
		if err != nil {
			t.Fatal(err)
		}
		src, err := cod.NewSearcher(g, cod.Options{K: 4, Theta: 4, Seed: 1000 + epoch, SampleCache: 8})
		if err != nil {
			t.Fatal(err)
		}
		// The faulty publisher may exhaust one key's retry budget on an
		// unlucky schedule alignment; a real builder would rerun, so the
		// harness does too.
		var perr error
		for attempt := 0; attempt < 4; attempt++ {
			if _, perr = cod.PublishSnapshot(ctx, publisher, "tiny", epoch, src, swapPolicy()); perr == nil {
				break
			}
		}
		if perr != nil {
			t.Fatalf("publish epoch %d: %v", epoch, perr)
		}
		cur, err := blobstore.FetchCurrent(ctx, clean, "tiny", swapPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if cur.Epoch != epoch {
			t.Fatalf("CURRENT epoch %d after publishing %d", cur.Epoch, epoch)
		}
		ref, err := cod.FetchSnapshotAt(ctx, clean, cur, base, swapPolicy())
		if err != nil {
			t.Fatal(err)
		}
		refH := NewHandler(nil, Config{})
		refH.SetServing(ref, cur.Epoch, cur.ParamsHash)
		bodies := make(map[int][]byte, queryNodes)
		for q := 0; q < queryNodes; q++ {
			rr := httptest.NewRecorder()
			refH.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/discover?q="+strconv.Itoa(q)+"&method=codu", nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("reference query epoch %d q=%d: status %d", epoch, q, rr.Code)
			}
			bodies[q] = rr.Body.Bytes()
		}
		expected.Store(epoch, bodies)
	}
	converge := func(epoch uint64) {
		t.Helper()
		for i := 0; h.Epoch() != epoch; i++ {
			if i > 200 {
				t.Fatalf("replica failed to converge on epoch %d after %d ticks", epoch, i)
			}
			sw.tick(ctx)
		}
	}

	publish(1)
	converge(1)

	// Query workers hammer the handler for the rest of the run. Every
	// response must be 200, match the reference body of the epoch its
	// header names, and epochs must never go backward for one client.
	var (
		stop     atomic.Bool
		requests atomic.Int64
		straddle atomic.Int64
		failed   atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failed.CompareAndSwap(nil, &msg)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			for i := 0; !stop.Load(); i++ {
				q := (w*queryNodes/workers + i) % queryNodes
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet,
					"/discover?q="+strconv.Itoa(q)+"&method=codu", nil))
				requests.Add(1)
				if rr.Code != http.StatusOK {
					fail("worker %d: status %d body %s", w, rr.Code, rr.Body.String())
					return
				}
				epoch, err := strconv.ParseUint(rr.Header().Get("X-Cod-Epoch"), 10, 64)
				if err != nil {
					fail("worker %d: bad X-Cod-Epoch %q", w, rr.Header().Get("X-Cod-Epoch"))
					return
				}
				if epoch < lastEpoch {
					fail("worker %d: epoch went backward %d -> %d", w, lastEpoch, epoch)
					return
				}
				if epoch > lastEpoch && lastEpoch != 0 {
					straddle.Add(1)
				}
				lastEpoch = epoch
				bodiesAny, ok := expected.Load(epoch)
				if !ok {
					fail("worker %d: served unpublished epoch %d", w, epoch)
					return
				}
				want := bodiesAny.(map[int][]byte)[q]
				if !bytes.Equal(rr.Body.Bytes(), want) {
					fail("worker %d: epoch %d q=%d: body diverged from reference\n got: %s\nwant: %s",
						w, epoch, q, rr.Body.String(), want)
					return
				}
			}
		}(w)
	}

	for e := uint64(2); e <= totalEpochs; e++ {
		publish(e)
		converge(e)
	}
	stop.Store(true)
	wg.Wait()

	if msg := failed.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if got := h.swapOK.Value(); got < totalEpochs {
		t.Fatalf("only %d successful swaps, want >= %d", got, totalEpochs)
	}
	if requests.Load() == 0 {
		t.Fatal("no queries ran during the chaos window")
	}
	// The fault schedules must actually have fired; otherwise the test
	// proves nothing.
	if repOps.Count() < 7 || repRot.Count() < 5 || pubTears.Count() < 6 {
		t.Fatalf("fault schedules barely consulted: repOps=%d repRot=%d pubTears=%d",
			repOps.Count(), repRot.Count(), pubTears.Count())
	}
	if h.fetchRetries.Value() == 0 {
		t.Fatal("no fetch retries under a faulting schedule")
	}
	t.Logf("chaos: %d requests, %d swaps, %d epoch transitions observed by clients, %d retries, verify failures %d, fetch failures %d",
		requests.Load(), h.swapOK.Value(), straddle.Load(), h.fetchRetries.Value(),
		h.swapVerify.Value(), h.swapFetch.Value())
}
