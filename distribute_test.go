package cod

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/blobstore"
	"github.com/codsearch/cod/internal/faultfs"
)

func distPolicy() blobstore.RetryPolicy {
	return blobstore.RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Jitter:      func(int, time.Duration) time.Duration { return 0 },
	}
}

func distSearcher(t *testing.T) *Searcher {
	t.Helper()
	g, err := GenerateDataset("tiny", 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(g, Options{K: 6, Seed: 11, SampleCache: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := distSearcher(t)
	store, err := blobstore.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := PublishSnapshot(ctx, store, "tiny", 1, src, distPolicy())
	if err != nil {
		t.Fatalf("PublishSnapshot: %v", err)
	}
	if m.ParamsHash != src.IndexParams().Hash() {
		t.Fatalf("manifest hash %s, searcher params hash %s", m.ParamsHash, src.IndexParams().Hash())
	}
	if len(m.Artifacts) != 2 {
		t.Fatalf("artifacts %v", m.Artifacts)
	}

	got, cur, err := FetchSnapshot(ctx, store, "tiny", Options{SampleCache: 8}, distPolicy())
	if err != nil {
		t.Fatalf("FetchSnapshot: %v", err)
	}
	if cur.Epoch != 1 || cur.ParamsHash != m.ParamsHash {
		t.Fatalf("CURRENT %+v", cur)
	}
	if got.IndexParams() != src.IndexParams() {
		t.Fatalf("params drifted: %+v vs %+v", got.IndexParams(), src.IndexParams())
	}
	// The fetched searcher answers identically to the source.
	for q := NodeID(0); q < 10; q++ {
		want, err1 := discoverVariant(context.Background(), src, "codu", q, 0)
		have, err2 := discoverVariant(context.Background(), got, "codu", q, 0)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("q=%d: err %v vs %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if len(want.Nodes) != len(have.Nodes) || want.Found != have.Found {
			t.Fatalf("q=%d: %d nodes found=%v, want %d nodes found=%v",
				q, len(have.Nodes), have.Found, len(want.Nodes), want.Found)
		}
		for i := range want.Nodes {
			if want.Nodes[i] != have.Nodes[i] {
				t.Fatalf("q=%d node %d: %d vs %d", q, i, have.Nodes[i], want.Nodes[i])
			}
		}
	}
}

func TestNextEpoch(t *testing.T) {
	store, err := blobstore.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e, err := NextEpoch(ctx, store, "tiny", distPolicy())
	if err != nil || e != 1 {
		t.Fatalf("empty store: epoch %d err %v", e, err)
	}
	src := distSearcher(t)
	if _, err := PublishSnapshot(ctx, store, "tiny", e, src, distPolicy()); err != nil {
		t.Fatal(err)
	}
	e, err = NextEpoch(ctx, store, "tiny", distPolicy())
	if err != nil || e != 2 {
		t.Fatalf("after publish: epoch %d err %v", e, err)
	}
}

func TestFetchSnapshotStageClassification(t *testing.T) {
	src := distSearcher(t)
	dir := t.TempDir()
	clean, err := blobstore.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := PublishSnapshot(ctx, clean, "tiny", 1, src, distPolicy()); err != nil {
		t.Fatal(err)
	}

	stageOf := func(t *testing.T, err error) string {
		t.Helper()
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("error %v is not a SnapshotError", err)
		}
		return se.Stage
	}

	t.Run("fetch on missing dataset", func(t *testing.T) {
		_, _, err := FetchSnapshot(ctx, clean, "ghost", Options{}, distPolicy())
		if stageOf(t, err) != "fetch" || !errors.Is(err, blobstore.ErrNotExist) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("fetch on dead transport", func(t *testing.T) {
		down, err := blobstore.NewFSWithHooks(dir, blobstore.Hooks{
			BeforeOp: func(op, key string) error { return errors.New("transport down") },
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, ferr := FetchSnapshot(ctx, down, "tiny", Options{}, distPolicy())
		if stageOf(t, ferr) != "fetch" {
			t.Fatalf("got %v", ferr)
		}
	})

	t.Run("verify on artifact corruption", func(t *testing.T) {
		rotten, err := blobstore.NewFSWithHooks(dir, blobstore.Hooks{
			WrapReader: func(key string, r io.Reader) io.Reader {
				if strings.HasSuffix(key, "/"+ArtifactIndex) {
					return &faultfs.FlipReader{R: r, Offset: 40}
				}
				return r
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, ferr := FetchSnapshot(ctx, rotten, "tiny", Options{}, distPolicy())
		if stageOf(t, ferr) != "verify" || !errors.Is(ferr, blobstore.ErrVerify) {
			t.Fatalf("got %v", ferr)
		}
	})

	t.Run("verify on params drift", func(t *testing.T) {
		// An index republished under a manifest whose params disagree with
		// the index header: the blobstore CRCs all pass, and the load-time
		// header comparison must still reject the swap.
		other := t.TempDir()
		drifted, err := blobstore.NewFS(other)
		if err != nil {
			t.Fatal(err)
		}
		spec := src.IndexParams()
		spec.Seed++ // lie about the seed
		arts := map[string][]byte{}
		for _, name := range []string{ArtifactGraph, ArtifactIndex} {
			b, err := blobstore.FetchArtifact(ctx, clean, mustManifest(t, ctx, clean), name, distPolicy())
			if err != nil {
				t.Fatal(err)
			}
			arts[name] = b
		}
		if _, err := blobstore.Publish(ctx, drifted, "tiny", 1, spec, arts, distPolicy()); err != nil {
			t.Fatal(err)
		}
		_, _, ferr := FetchSnapshot(ctx, drifted, "tiny", Options{}, distPolicy())
		if stageOf(t, ferr) != "verify" || !errors.Is(ferr, ErrIndexParams) {
			t.Fatalf("got %v", ferr)
		}
	})
}

func mustManifest(t *testing.T, ctx context.Context, s blobstore.Store) *blobstore.Manifest {
	t.Helper()
	cur, err := blobstore.FetchCurrent(ctx, s, "tiny", distPolicy())
	if err != nil {
		t.Fatal(err)
	}
	m, err := blobstore.FetchManifest(ctx, s, cur, distPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return m
}
