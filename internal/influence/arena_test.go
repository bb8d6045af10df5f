package influence

import (
	"fmt"
	"testing"

	"github.com/codsearch/cod/internal/graph"
)

func rrStr(r *RRGraph) string {
	return fmt.Sprintf("nodes=%v off=%v adj=%v", r.Nodes, r.Off, r.Adj)
}

// sampleRRs draws count RR graphs from s into a fresh arena and returns
// headers over them.
func sampleRRs(s ArenaSampler, count int) []*RRGraph {
	a := NewArena()
	for i := 0; i < count; i++ {
		s.RRGraphInto(a)
	}
	return poolRRs(a.Pool())
}

// sampleFrom draws one IC RR graph rooted at src.
func sampleFrom(s *Sampler, src graph.NodeID) *RRGraph {
	a := NewArena()
	s.RRGraphFromInto(a, src)
	return poolRRs(a.Pool())[0]
}

// sampleWithin draws one RR graph rooted at src confined to member nodes.
func sampleWithin(s ArenaSampler, src graph.NodeID, member func(graph.NodeID) bool) *RRGraph {
	a := NewArena()
	s.RRGraphWithinInto(a, src, member)
	return poolRRs(a.Pool())[0]
}

// TestArenaSamplerByteIdentical locks the arena samplers to the allocating
// reference samplers of ref_test.go: the same rng consumption and CSR
// layouts equal field-by-field. Every sample must read the same from the
// arena's Pool, from Finalize and from the reference, unrestricted and
// restricted, under IC and LT.
func TestArenaSamplerByteIdentical(t *testing.T) {
	g := graph.ErdosRenyi(60, 220, graph.NewRand(41))
	member := func(u graph.NodeID) bool { return u%3 != 0 }

	t.Run("ic", func(t *testing.T) {
		ref := refSampler{NewSampler(g, NewWeightedCascade(g), graph.NewRand(7))}
		got := NewSampler(g, NewWeightedCascade(g), graph.NewRand(7))
		a := NewArena()
		var want []*RRGraph
		for i := 0; i < 50; i++ {
			want = append(want, ref.RRGraph())
			got.RRGraphInto(a)
		}
		for i := 0; i < 30; i++ {
			src := graph.NodeID(i % g.N())
			want = append(want, ref.RRGraphWithin(src, member))
			got.RRGraphWithinInto(a, src, member)
		}
		compareArena(t, a, want)
	})

	t.Run("lt", func(t *testing.T) {
		ref := refLTSampler{NewLTSampler(g, UniformLT{G: g}, graph.NewRand(9))}
		got := NewLTSampler(g, UniformLT{G: g}, graph.NewRand(9))
		a := NewArena()
		var want []*RRGraph
		for i := 0; i < 50; i++ {
			want = append(want, ref.RRGraph())
			got.RRGraphInto(a)
		}
		for i := 0; i < 30; i++ {
			src := graph.NodeID(i % g.N())
			want = append(want, ref.RRGraphWithin(src, member))
			got.RRGraphWithinInto(a, src, member)
		}
		compareArena(t, a, want)
	})
}

// TestArenaResetReuse locks the recycling contract: a Reset arena refilled
// with a re-seeded sampler reproduces its first run exactly, and the second
// run's headers never alias stale spans from the first.
func TestArenaResetReuse(t *testing.T) {
	g := graph.ErdosRenyi(40, 150, graph.NewRand(43))
	a := NewArena()
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(11))
	for i := 0; i < 40; i++ {
		s.RRGraphInto(a)
	}
	first := make([]string, 0, 40)
	for _, r := range a.Finalize() {
		first = append(first, rrStr(r))
	}
	a.Reset()
	s.SetRand(graph.NewRand(11))
	for i := 0; i < 40; i++ {
		s.RRGraphInto(a)
	}
	second := a.Finalize()
	if len(second) != len(first) {
		t.Fatalf("reused arena yielded %d rr graphs, want %d", len(second), len(first))
	}
	for i, r := range second {
		if rrStr(r) != first[i] {
			t.Errorf("rr %d differs after Reset:\n got %s\nwant %s", i, rrStr(r), first[i])
		}
	}
}

// compareArena checks a's samples against want three ways: through the
// Pool, through Finalize's headers, and through a Clone of the Pool.
func compareArena(t *testing.T, a *Arena, want []*RRGraph) {
	t.Helper()
	pool := a.Pool()
	compareRRs(t, poolRRs(pool), want)
	compareRRs(t, a.Finalize(), want)
	compareRRs(t, poolRRs(pool.Clone()), want)
	for i, r := range want {
		if nodes := pool.Nodes(i); len(nodes) != r.Len() || nodes[0] != r.Source() {
			t.Errorf("rr %d: pool nodes %v, want %v", i, nodes, r.Nodes)
		}
	}
}

func compareRRs(t *testing.T, got, want []*RRGraph) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rr graphs, want %d", len(got), len(want))
	}
	for i := range got {
		if rrStr(got[i]) != rrStr(want[i]) {
			t.Errorf("rr %d differs:\n got %s\nwant %s", i, rrStr(got[i]), rrStr(want[i]))
		}
	}
}

// TestPoolLayout locks the flat layout: prefixes share the pool's arrays
// and read the same samples, a Clone is exact-size with no per-sample
// header (its bytes are its array lengths), and PoolOf of Finalize's
// headers reproduces the pool.
func TestPoolLayout(t *testing.T) {
	g := graph.ErdosRenyi(50, 180, graph.NewRand(53))
	a := NewArena()
	s := NewSampler(g, NewWeightedCascade(g), graph.NewRand(17))
	for i := 0; i < 120; i++ {
		s.RRGraphInto(a)
	}
	pool := a.Pool()
	all := poolRRs(pool)
	for _, n := range []int{0, 1, 37, 120} {
		compareRRs(t, poolRRs(pool.Prefix(n)), all[:n])
	}
	c := pool.Clone()
	nodes, off, adj, at := c.Arrays()
	if cap(nodes) != len(nodes) || cap(off) != len(off) || cap(adj) != len(adj) || cap(at) != len(at) {
		t.Errorf("clone is not exact-size: caps %d/%d/%d/%d, lens %d/%d/%d/%d",
			cap(nodes), cap(off), cap(adj), cap(at), len(nodes), len(off), len(adj), len(at))
	}
	var data int
	for _, r := range all {
		data += 4 * (len(r.Nodes) + len(r.Off) + len(r.Adj))
	}
	if got, want := 4*(len(nodes)+len(off)+len(adj))+8*len(at), data+8*(len(all)+1); got != want {
		t.Errorf("clone holds %d bytes, want %d: the samples' data plus one start per sample", got, want)
	}
	compareRRs(t, poolRRs(PoolOf(a.Finalize())), all)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append accepted an RR graph without offsets")
			}
		}()
		NewArena().Append(&RRGraph{Nodes: []graph.NodeID{3}})
	}()
	if (Pool{}).Len() != 0 || NewArena().Pool().Len() != 0 {
		t.Error("empty pools report samples")
	}
}
