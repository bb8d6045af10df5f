package cod

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/codsearch/cod/internal/faultfs"
)

func TestSaveLoadIndexRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	opts := Options{K: 3, Theta: 5, Seed: 21}
	s1, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s1.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadSearcher(g, &buf, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The loaded searcher must expose identical index state...
	if s1.IndexBytes() != s2.IndexBytes() {
		t.Errorf("index size changed: %d vs %d", s1.IndexBytes(), s2.IndexBytes())
	}
	for q := NodeID(0); int(q) < g.N(); q++ {
		d1, _ := s1.HierarchyDepth(q)
		d2, _ := s2.HierarchyDepth(q)
		if d1 != d2 {
			t.Fatalf("hierarchy depth differs for %d: %d vs %d", q, d1, d2)
		}
		for i := 0; i < d1; i++ {
			r1, sz1, _ := s1.InfluenceRank(q, i)
			r2, sz2, _ := s2.InfluenceRank(q, i)
			if r1 != r2 || sz1 != sz2 {
				t.Fatalf("rank differs for node %d level %d: (%d,%d) vs (%d,%d)", q, i, r1, sz1, r2, sz2)
			}
		}
	}

	// ...and answer queries identically for identical seeds.
	q := NodeID(0)
	attr := g.Attrs(q)[0]
	c1, err := s1.Discover(q, attr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.Discover(q, attr)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Found != c2.Found || c1.Size() != c2.Size() {
		t.Errorf("answers differ after reload: %+v vs %+v", c1, c2)
	}
}

func TestLoadSearcherRejectsCorruption(t *testing.T) {
	g := buildTestGraph(t)
	s, err := NewSearcher(g, Options{Theta: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// truncated
	if _, err := LoadSearcher(g, bytes.NewReader(raw[:len(raw)/2]), Options{}); err == nil {
		t.Error("truncated index accepted")
	}
	// bad magic
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := LoadSearcher(g, bytes.NewReader(bad), Options{}); err == nil {
		t.Error("corrupted magic accepted")
	}
	// wrong graph
	other, err := GenerateDataset("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSearcher(other, bytes.NewReader(raw), Options{}); err == nil {
		t.Error("index for a different graph accepted")
	}
	// empty graph
	if _, err := LoadSearcher(nil, bytes.NewReader(raw), Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

// savedIndex builds a small searcher once and returns it with its serialized
// index, shared across the typed-error tests below.
func savedIndex(t *testing.T) (*Graph, *Searcher, Options, []byte) {
	t.Helper()
	g := buildTestGraph(t)
	opts := Options{K: 3, Theta: 4, Seed: 11}
	s, err := NewSearcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return g, s, opts, buf.Bytes()
}

func TestLoadSearcherTypedErrors(t *testing.T) {
	g, _, opts, raw := savedIndex(t)

	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[3] ^= 0x20
		if _, err := LoadSearcher(g, bytes.NewReader(bad), opts); !errors.Is(err, ErrIndexVersion) {
			t.Errorf("bad magic: err = %v, want ErrIndexVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every truncation point must produce ErrIndexTruncated (never a
		// checksum error or silent success): header, section header, and
		// mid-payload cuts.
		for _, n := range []int{0, 4, 20, 70, len(raw) / 2, len(raw) - 1} {
			r := &faultfs.TruncateReader{R: bytes.NewReader(raw), N: int64(n)}
			if _, err := LoadSearcher(g, r, opts); !errors.Is(err, ErrIndexTruncated) {
				t.Errorf("truncated at %d: err = %v, want ErrIndexTruncated", n, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// A flip anywhere after the magic must be caught by a CRC — in the
		// header or in either section payload.
		for _, off := range []int64{9, 40, 80, int64(len(raw)) - 2} {
			r := &faultfs.FlipReader{R: bytes.NewReader(raw), Offset: off}
			if _, err := LoadSearcher(g, r, opts); !errors.Is(err, ErrIndexChecksum) {
				t.Errorf("bit flip at %d: err = %v, want ErrIndexChecksum", off, err)
			}
		}
	})
	t.Run("params", func(t *testing.T) {
		cases := []Options{
			{K: 4, Theta: 4, Seed: 11}, // different K
			{K: 3, Theta: 4, Seed: 12}, // different seed
			{K: 3, Theta: 4, Seed: 11, Model: ModelLT},
			{K: 3, Theta: 4, Seed: 11, Linkage: Single},
			{K: 3, Theta: 4, Seed: 11, Beta: 2},
		}
		for _, o := range cases {
			if _, err := LoadSearcher(g, bytes.NewReader(raw), o); !errors.Is(err, ErrIndexParams) {
				t.Errorf("options %+v: err = %v, want ErrIndexParams", o, err)
			}
		}
		// Defaults-filled options are the same parameters: the zero Beta
		// normalizes to the recorded 1.
		if _, err := LoadSearcher(g, bytes.NewReader(raw), Options{K: 3, Theta: 4, Seed: 11, Beta: 1}); err != nil {
			t.Errorf("normalized-equal options rejected: %v", err)
		}
	})
	t.Run("read error", func(t *testing.T) {
		r := &faultfs.ErrReader{R: bytes.NewReader(raw), FailAfter: 100}
		if _, err := LoadSearcher(g, r, opts); !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("injected read error not surfaced: %v", err)
		}
	})
}

func TestSaveIndexWriteFailures(t *testing.T) {
	_, s, _, raw := savedIndex(t)
	// A write failure at any offset must surface; exhaustive small offsets
	// cover the magic, header, and both section paths.
	for _, n := range []int64{0, 4, 30, 70, int64(len(raw)) / 2} {
		var buf bytes.Buffer
		w := &faultfs.ErrWriter{W: &buf, FailAfter: n}
		if err := s.SaveIndex(w); !errors.Is(err, faultfs.ErrInjected) {
			t.Errorf("FailAfter=%d: err = %v, want ErrInjected", n, err)
		}
	}
	var buf bytes.Buffer
	if err := s.SaveIndex(&faultfs.ShortWriter{W: &buf, Max: 3}); err == nil {
		t.Error("short writes reported no error")
	}
}

// TestLegacyV1IndexRejected locks the removal of the hierarchy-only v1
// stream: it records no offline parameters, so LoadSearcher cannot tell a
// stream built with another θ, k or seed from a matching one, and must
// refuse it rather than answer wrong.
func TestLegacyV1IndexRejected(t *testing.T) {
	g, s, opts, _ := savedIndex(t)
	// The pre-v2 layout: raw hierarchy blob followed by the HIMOR blob, no
	// header and no checksums.
	var v1 bytes.Buffer
	if _, err := s.eng.Tree().WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.eng.Index().WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v1.Bytes(), []byte("codtree1")) {
		t.Fatalf("hierarchy blob starts with %q, want the v1 magic", v1.Bytes()[:8])
	}
	other := opts
	other.Theta++
	for _, o := range []Options{opts, other} {
		if _, err := LoadSearcher(g, bytes.NewReader(v1.Bytes()), o); !errors.Is(err, ErrIndexVersion) {
			t.Errorf("v1 stream under θ=%d: err = %v, want ErrIndexVersion", o.Theta, err)
		}
	}
}

func TestSaveIndexAtomic(t *testing.T) {
	g, s, opts, _ := savedIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.cod")
	if err := s.SaveIndexAtomic(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := LoadSearcher(g, f, opts); err != nil {
		t.Fatalf("atomic save produced unloadable index: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.cod" {
		t.Errorf("directory not clean after atomic save: %v", entries)
	}

	// Overwrite an existing good file with a failing write: the original
	// must survive untouched and no temp file may remain.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	failed := writeFileAtomic(path, func(w io.Writer) error {
		ew := &faultfs.ErrWriter{W: w, FailAfter: 64}
		if err := s.SaveIndex(ew); err != nil {
			return err
		}
		return nil
	})
	if !errors.Is(failed, faultfs.ErrInjected) {
		t.Fatalf("injected failure not surfaced: %v", failed)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed atomic save modified the published file")
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("failed atomic save left temp file %s", e.Name())
		}
	}
}
