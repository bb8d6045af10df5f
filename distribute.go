package cod

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/codsearch/cod/internal/blobstore"
)

// Artifact names every published snapshot carries: the attributed graph and
// the codindx2 index built over it. The manifest records a CRC-32 and size
// for each, and the index file's own header additionally pins the offline
// parameters — two independent layers of verification between a blob store
// and a serving Searcher.
const (
	ArtifactGraph = "graph.codg"
	ArtifactIndex = "index.codindx2"
)

// IndexParams returns the offline parameters this Searcher's index was built
// with, in the canonical form the distribution manifest records. It matches
// what SaveIndex writes into the codindx2 header, so the params hash derived
// from it names exactly the semantics a loader will verify.
func (s *Searcher) IndexParams() blobstore.ParamsSpec {
	h := headerFor(s.eng.Params(), s.g.N())
	return blobstore.ParamsSpec{
		K:        int(h.K),
		Theta:    int(h.Theta),
		BetaBits: h.BetaBits,
		Linkage:  int(h.Linkage),
		Model:    int(h.Model),
		Balanced: h.Balanced == 1,
		Seed:     h.Seed,
		Nodes:    h.Nodes,
	}
}

// optionsFromSpec projects a manifest's recorded offline parameters onto
// base, which supplies the runtime-only knobs (workers, caches) the manifest
// deliberately does not pin. LoadSearcher then re-verifies the result
// against the index header, so a lying manifest still cannot smuggle in an
// index with different semantics.
func optionsFromSpec(spec blobstore.ParamsSpec, base Options) Options {
	base.K = spec.K
	base.Theta = spec.Theta
	base.Beta = math.Float64frombits(spec.BetaBits)
	base.Linkage = Linkage(spec.Linkage)
	base.Model = Model(spec.Model)
	base.Balanced = spec.Balanced
	base.Seed = spec.Seed
	return base
}

// SnapshotError classifies a FetchSnapshot failure by the stage it died in,
// so operators (and swap metrics) can tell a flaky transport from a
// corrupted artifact from a semantic load failure.
type SnapshotError struct {
	// Stage is "fetch" (the store could not deliver the bytes), "verify"
	// (the bytes failed integrity or parameter verification), or "load"
	// (verified bytes failed to reconstruct a Searcher).
	Stage string
	Err   error
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("cod: snapshot %s failed: %v", e.Stage, e.Err)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// snapshotErr wraps err with its stage, upgrading "fetch" to "verify" when
// the underlying cause is an integrity failure rather than a transport one.
func snapshotErr(stage string, err error) error {
	if stage == "fetch" && errors.Is(err, blobstore.ErrVerify) {
		stage = "verify"
	}
	return &SnapshotError{Stage: stage, Err: err}
}

// PublishSnapshot serializes the Searcher's graph and index and publishes
// them to the store as one epoch of dataset, returning the installed
// manifest. Artifact CRCs are recorded in the manifest and every write is
// verified by read-back; see blobstore.Publish for the ordering guarantees.
func PublishSnapshot(ctx context.Context, store blobstore.Store, dataset string, epoch uint64, s *Searcher, pol blobstore.RetryPolicy) (*blobstore.Manifest, error) {
	var gb bytes.Buffer
	if _, err := s.Graph().WriteTo(&gb); err != nil {
		return nil, fmt.Errorf("cod: encoding graph: %w", err)
	}
	var ib bytes.Buffer
	if err := s.SaveIndex(&ib); err != nil {
		return nil, err
	}
	artifacts := map[string][]byte{
		ArtifactGraph: gb.Bytes(),
		ArtifactIndex: ib.Bytes(),
	}
	return blobstore.Publish(ctx, store, dataset, epoch, s.IndexParams(), artifacts, pol)
}

// NextEpoch returns the epoch number a new publish to dataset should use:
// one past the current epoch, or 1 for a dataset nothing was published to.
func NextEpoch(ctx context.Context, store blobstore.Store, dataset string, pol blobstore.RetryPolicy) (uint64, error) {
	cur, err := blobstore.FetchCurrent(ctx, store, dataset, pol)
	if err != nil {
		if errors.Is(err, blobstore.ErrNotExist) {
			return 1, nil
		}
		return 0, err
	}
	return cur.Epoch + 1, nil
}

// FetchSnapshot resolves dataset's CURRENT pointer and loads that epoch; see
// FetchSnapshotAt.
func FetchSnapshot(ctx context.Context, store blobstore.Store, dataset string, base Options, pol blobstore.RetryPolicy) (*Searcher, blobstore.Current, error) {
	cur, err := blobstore.FetchCurrent(ctx, store, dataset, pol)
	if err != nil {
		return nil, blobstore.Current{}, snapshotErr("fetch", err)
	}
	s, err := FetchSnapshotAt(ctx, store, cur, base, pol)
	if err != nil {
		return nil, cur, err
	}
	return s, cur, nil
}

// FetchSnapshotAt fetches, verifies, and loads the epoch cur names: the
// manifest (CRC-checked against CURRENT), then both artifacts (CRC-checked
// against the manifest), then a Searcher reconstructed under the manifest's
// recorded parameters — which LoadSearcher independently re-verifies against
// the index file's own header. base supplies runtime-only options; the
// offline parameters always come from the manifest. Every failure is a
// *SnapshotError naming the stage, and no partially-verified state escapes:
// the caller either gets a fully-verified Searcher or keeps serving what it
// had.
func FetchSnapshotAt(ctx context.Context, store blobstore.Store, cur blobstore.Current, base Options, pol blobstore.RetryPolicy) (*Searcher, error) {
	m, err := blobstore.FetchManifest(ctx, store, cur, pol)
	if err != nil {
		return nil, snapshotErr("fetch", err)
	}
	graphBytes, err := blobstore.FetchArtifact(ctx, store, m, ArtifactGraph, pol)
	if err != nil {
		return nil, snapshotErr("fetch", err)
	}
	indexBytes, err := blobstore.FetchArtifact(ctx, store, m, ArtifactIndex, pol)
	if err != nil {
		return nil, snapshotErr("fetch", err)
	}
	g, err := LoadGraph(bytes.NewReader(graphBytes))
	if err != nil {
		return nil, snapshotErr("load", err)
	}
	if int64(g.N()) != m.Params.Nodes {
		return nil, snapshotErr("verify", fmt.Errorf("%w: graph has %d nodes, manifest records %d",
			blobstore.ErrVerify, g.N(), m.Params.Nodes))
	}
	s, err := LoadSearcher(g, bytes.NewReader(indexBytes), optionsFromSpec(m.Params, base))
	if err != nil {
		stage := "load"
		if errors.Is(err, ErrIndexVersion) || errors.Is(err, ErrIndexTruncated) ||
			errors.Is(err, ErrIndexChecksum) || errors.Is(err, ErrIndexParams) {
			stage = "verify"
		}
		return nil, snapshotErr(stage, err)
	}
	return s, nil
}
