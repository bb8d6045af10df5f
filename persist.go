package cod

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/hier"
)

// Index file format v2 ("codindx2"):
//
//	magic   [8]byte  "codindx2"
//	header  indexHeader (little-endian, fixed size)
//	hcrc    uint32   CRC-32 (IEEE) of the encoded header
//	2 sections, each:
//	  length  uint64  payload byte count
//	  crc     uint32  CRC-32 (IEEE) of the payload
//	  payload []byte  section 1 = hierarchy blob, section 2 = HIMOR blob
//
// The header carries the offline parameters the index was built with, so a
// loading process cannot silently query an index built under different
// semantics. Any other format is rejected with ErrIndexVersion — including
// the legacy hierarchy-only v1 stream ("codtree1"), which records no
// parameters to check: one built with another θ, k or seed would load and
// answer wrong.

const indexMagic = "codindx2"

var (
	// ErrIndexVersion reports an index whose magic bytes are not a known
	// format — wrong file, or a future/corrupted header.
	ErrIndexVersion = errors.New("cod: unrecognized index format")
	// ErrIndexTruncated reports an index that ends before a declared
	// section does — a torn write or a partial copy.
	ErrIndexTruncated = errors.New("cod: truncated index")
	// ErrIndexChecksum reports a section whose CRC-32 does not match its
	// payload — bit rot or in-place corruption.
	ErrIndexChecksum = errors.New("cod: index checksum mismatch")
	// ErrIndexParams reports an index whose recorded offline parameters
	// disagree with the Options passed to LoadSearcher.
	ErrIndexParams = errors.New("cod: index parameters mismatch")
)

// indexHeader is the fixed-size v2 header. Beta is stored as IEEE-754 bits
// so the match check is exact. Nodes pins the graph the index was built for.
type indexHeader struct {
	K        int64
	Theta    int64
	BetaBits uint64
	Linkage  int32
	Model    int32
	Balanced uint8
	_        [7]byte
	Seed     uint64
	Nodes    int64
}

// headerFor records default-filled parameters p (an engine's own, or an
// Options' engineConfig through WithDefaults) for a graph of nodes nodes.
func headerFor(p engine.Params, nodes int) indexHeader {
	var balanced uint8
	if p.Balanced {
		balanced = 1
	}
	return indexHeader{
		K:        int64(p.K),
		Theta:    int64(p.Theta),
		BetaBits: math.Float64bits(p.Beta),
		Linkage:  int32(p.Linkage),
		Model:    int32(p.Model),
		Balanced: balanced,
		Seed:     p.Seed,
		Nodes:    int64(nodes),
	}
}

// SaveIndex persists the Searcher's offline state (the community hierarchy
// and the HIMOR index) in format v2 so a later process can skip the offline
// phase with LoadSearcher. The file records the offline parameters and a
// CRC-32 per section, so corruption and parameter drift are caught at load
// time. The graph itself is not included; persist it separately with
// Graph.WriteTo.
func (s *Searcher) SaveIndex(w io.Writer) error {
	if _, err := io.WriteString(w, indexMagic); err != nil {
		return fmt.Errorf("cod: saving index magic: %w", err)
	}
	var hdr bytes.Buffer
	if err := binary.Write(&hdr, binary.LittleEndian, headerFor(s.eng.Params(), s.g.N())); err != nil {
		return fmt.Errorf("cod: encoding index header: %w", err)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("cod: saving index header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(hdr.Bytes())); err != nil {
		return fmt.Errorf("cod: saving header checksum: %w", err)
	}

	var blob bytes.Buffer
	if _, err := s.eng.Tree().WriteTo(&blob); err != nil {
		return fmt.Errorf("cod: encoding hierarchy: %w", err)
	}
	if err := writeSection(w, blob.Bytes()); err != nil {
		return fmt.Errorf("cod: saving hierarchy: %w", err)
	}
	blob.Reset()
	if _, err := s.eng.Index().WriteTo(&blob); err != nil {
		return fmt.Errorf("cod: encoding index: %w", err)
	}
	if err := writeSection(w, blob.Bytes()); err != nil {
		return fmt.Errorf("cod: saving index: %w", err)
	}
	return nil
}

func writeSection(w io.Writer, payload []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(payload))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readSection reads one length-prefixed, checksummed section. Short data
// maps to ErrIndexTruncated, a CRC mismatch to ErrIndexChecksum.
func readSection(r io.Reader, name string) ([]byte, error) {
	var length uint64
	var crc uint32
	if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
		return nil, fmt.Errorf("%w: %s section header: %v", ErrIndexTruncated, name, err)
	}
	if err := binary.Read(r, binary.LittleEndian, &crc); err != nil {
		return nil, fmt.Errorf("%w: %s section header: %v", ErrIndexTruncated, name, err)
	}
	// ReadAll over a LimitReader grows with the data actually present, so a
	// corrupted (huge) length cannot force a matching allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("cod: reading %s section: %w", name, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: %s section has %d of %d bytes", ErrIndexTruncated, name, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("%w: %s section crc %08x, want %08x", ErrIndexChecksum, name, got, crc)
	}
	return payload, nil
}

// SaveIndexAtomic writes the index to path so that a crash at any moment
// leaves either the previous file intact or the new one complete — never a
// partial file. It writes to a temporary file in path's directory, fsyncs,
// and renames over path.
func (s *Searcher) SaveIndexAtomic(path string) error {
	return writeFileAtomic(path, s.SaveIndex)
}

// writeFileAtomic streams write into a temp file next to path, fsyncs it,
// and renames it onto path. Any failure removes the temp file.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("cod: creating temp index: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("cod: syncing index: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("cod: closing index: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cod: publishing index: %w", err)
	}
	// Sync the directory so the rename itself survives a crash. Some
	// filesystems reject fsync on directories; the rename is still atomic
	// there, so that failure is not fatal.
	if d, dErr := os.Open(dir); dErr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadSearcher reconstructs a Searcher for g from state saved by SaveIndex.
// The recorded offline parameters must match opts (both are compared after
// default-filling), sections must pass their checksums, and the hierarchy
// must span exactly g's nodes; violations surface as ErrIndexParams,
// ErrIndexChecksum / ErrIndexTruncated, and ErrIndexVersion sentinels.
func LoadSearcher(g *Graph, r io.Reader, opts Options) (*Searcher, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("cod: empty graph")
	}
	magic := make([]byte, 8)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrIndexTruncated, err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrIndexVersion, magic)
	}
	hdrBytes := make([]byte, binary.Size(indexHeader{}))
	if _, err := io.ReadFull(r, hdrBytes); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrIndexTruncated, err)
	}
	var hcrc uint32
	if err := binary.Read(r, binary.LittleEndian, &hcrc); err != nil {
		return nil, fmt.Errorf("%w: reading header checksum: %v", ErrIndexTruncated, err)
	}
	if got := crc32.ChecksumIEEE(hdrBytes); got != hcrc {
		return nil, fmt.Errorf("%w: header crc %08x, want %08x", ErrIndexChecksum, got, hcrc)
	}
	var hdr indexHeader
	if err := binary.Read(bytes.NewReader(hdrBytes), binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("cod: decoding index header: %w", err)
	}
	params, cfg := opts.engineConfig()
	if want := headerFor(params.WithDefaults(), g.N()); hdr != want {
		return nil, fmt.Errorf("%w: saved {k=%d θ=%d βbits=%x linkage=%d model=%d balanced=%d seed=%d n=%d}, "+
			"requested {k=%d θ=%d βbits=%x linkage=%d model=%d balanced=%d seed=%d n=%d}",
			ErrIndexParams,
			hdr.K, hdr.Theta, hdr.BetaBits, hdr.Linkage, hdr.Model, hdr.Balanced, hdr.Seed, hdr.Nodes,
			want.K, want.Theta, want.BetaBits, want.Linkage, want.Model, want.Balanced, want.Seed, want.Nodes)
	}

	treeBlob, err := readSection(r, "hierarchy")
	if err != nil {
		return nil, err
	}
	himorBlob, err := readSection(r, "himor")
	if err != nil {
		return nil, err
	}
	t, err := hier.ReadTree(bytes.NewReader(treeBlob))
	if err != nil {
		return nil, fmt.Errorf("cod: loading hierarchy: %w", err)
	}
	if t.N() != g.N() {
		return nil, fmt.Errorf("%w: hierarchy spans %d nodes, graph has %d", ErrIndexParams, t.N(), g.N())
	}
	idx, err := core.ReadHimor(bytes.NewReader(himorBlob), t)
	if err != nil {
		return nil, fmt.Errorf("cod: loading index: %w", err)
	}
	return &Searcher{newQueryCore(g, engine.New(g.internalGraph(), t, idx, params, cfg))}, nil
}
