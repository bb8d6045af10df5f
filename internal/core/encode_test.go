package core

import (
	"bytes"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
)

func TestHimorRoundTrip(t *testing.T) {
	g := graph.ErdosRenyi(25, 70, graph.NewRand(80))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	idx := himorFrom(t, g, tr, 5, graph.NewRand(81))
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadHimor(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Theta() != idx.Theta() || got.ApproxBytes() != idx.ApproxBytes() {
		t.Error("metadata changed in round trip")
	}
	for q := graph.NodeID(0); int(q) < g.N(); q++ {
		for _, v := range tr.Ancestors(tr.LeafOf(q)) {
			if got.Rank(q, v) != idx.Rank(q, v) {
				t.Fatalf("rank differs at q=%d v=%d", q, v)
			}
		}
	}
}

func TestReadHimorRejectsMismatch(t *testing.T) {
	g := graph.ErdosRenyi(25, 70, graph.NewRand(82))
	tr, err := hac.Cluster(g, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	idx := himorFrom(t, g, tr, 3, graph.NewRand(83))
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// wrong tree
	g2 := graph.ErdosRenyi(30, 90, graph.NewRand(84))
	tr2, err := hac.Cluster(g2, hac.UnweightedAverage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHimor(bytes.NewReader(raw), tr2); err == nil {
		t.Error("mismatched tree accepted")
	}
	// bad magic
	bad := append([]byte(nil), raw...)
	bad[3] ^= 0x7f
	if _, err := ReadHimor(bytes.NewReader(bad), tr); err == nil {
		t.Error("bad magic accepted")
	}
	// truncated
	if _, err := ReadHimor(bytes.NewReader(raw[:len(raw)/3]), tr); err == nil {
		t.Error("truncated index accepted")
	}
	if _, err := ReadHimor(bytes.NewReader(nil), tr); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestChainVertexAccess(t *testing.T) {
	tr := fig2Tree(t)
	ch := ChainFromTree(tr, 0)
	if ch.Vertex(0) != 10 || ch.Vertex(3) != 16 {
		t.Errorf("tree-backed vertices wrong: %d %d", ch.Vertex(0), ch.Vertex(3))
	}
	merged := &Chain{q: 0, level: make([]int32, 10), sizes: []int{10}, depks: []int{1}}
	if merged.Vertex(0) != -1 {
		t.Error("vertexless chain should report -1")
	}
	if m := merged.Members(-1); m != nil {
		t.Error("out-of-range Members should be nil")
	}
	if m := merged.Members(5); m != nil {
		t.Error("out-of-range Members should be nil")
	}
}

func TestChainValidateCatchesCorruption(t *testing.T) {
	tr := fig2Tree(t)
	ch := ChainFromTree(tr, 0)
	if err := ch.Validate(); err != nil {
		t.Fatal(err)
	}
	// corrupt: q not at level 0
	bad := &Chain{q: 0, level: []int32{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, sizes: []int{10}, depks: []int{1}}
	if err := bad.Validate(); err == nil {
		t.Error("bad q level accepted")
	}
	// corrupt: declared sizes disagree with levels
	bad2 := &Chain{q: 0, level: make([]int32, 10), sizes: []int{9}, depks: []int{1}}
	if err := bad2.Validate(); err == nil {
		t.Error("size mismatch accepted")
	}
	empty := &Chain{q: 0}
	if err := empty.Validate(); err == nil {
		t.Error("empty chain accepted")
	}
}
