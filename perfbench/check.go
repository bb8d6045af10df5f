package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/query"
)

// answer is one query's result in the form every surface can give: the
// library's Community, the engine's, the replay's, or a codserve response.
type answer struct {
	Found     bool
	FromIndex bool
	Rank      int
	Size      int
	// Nodes is nil when a codserve response omitted them (communities over
	// 1000 nodes); the reported measures below then stand in for them.
	Nodes       []int32
	Density     float64
	Conductance float64
}

// checkAnswer returns "" when a is a valid answer to q on g with rank bound
// k, else the first violation: a found community must be sorted,
// duplicate-free, in range and contain the query node; its rank must lie in
// [1,k]; and it must pass the query's community filters, recomputed from its
// nodes.
func checkAnswer(g *graph.Graph, q benchQuery, a answer, k int) string {
	if !a.Found {
		if a.Size != 0 || len(a.Nodes) != 0 {
			return "a not-found answer carries nodes"
		}
		return ""
	}
	if a.Rank < 1 || a.Rank > k {
		return fmt.Sprintf("rank %d outside [1,%d]", a.Rank, k)
	}
	size, density, conductance := a.Size, a.Density, a.Conductance
	if a.Nodes != nil {
		if len(a.Nodes) != a.Size {
			return fmt.Sprintf("size %d but %d nodes", a.Size, len(a.Nodes))
		}
		hasQ := false
		for i, v := range a.Nodes {
			if v < 0 || int(v) >= g.N() {
				return fmt.Sprintf("node %d out of range [0,%d)", v, g.N())
			}
			if i > 0 && v <= a.Nodes[i-1] {
				return fmt.Sprintf("nodes not strictly ascending at %d", i)
			}
			hasQ = hasQ || v == q.Node
		}
		if !hasQ {
			return fmt.Sprintf("community does not contain the query node %d", q.Node)
		}
		size = len(a.Nodes)
		density = graph.TopologyDensity(g, a.Nodes)
		conductance = graph.Conductance(g, a.Nodes)
	} else if a.Size < 1 || a.Size > g.N() {
		return fmt.Sprintf("size %d out of range [1,%d]", a.Size, g.N())
	}
	for _, f := range q.Filters {
		if !f.Accept(measure(f.Field, size, density, conductance)) {
			return fmt.Sprintf("community violates filter %s", f)
		}
	}
	return ""
}

// measure picks the community measure a filter constrains.
func measure(field query.FilterField, size int, density, conductance float64) float64 {
	switch field {
	case query.FieldDensity:
		return density
	case query.FieldConductance:
		return conductance
	}
	return float64(size)
}

// digest folds answers, in order, into a 64-bit FNV-1a hash: found, rank
// and member list of each. Equal answers in equal order give equal digests.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: fnv.New64a().Sum64()} }

func (d *digest) add(a answer) {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], d.h)
	h.Write(buf[:])
	flag := uint64(0)
	if a.Found {
		flag = 1
	}
	binary.LittleEndian.PutUint64(buf[:], flag<<32|uint64(uint32(a.Rank)))
	h.Write(buf[:])
	for _, v := range a.Nodes {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	d.h = h.Sum64()
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// sameAnswer reports whether two answers name the same community at the
// same rank, both from the index or both from evaluation.
func sameAnswer(a, b answer) bool {
	if a.Found != b.Found || a.FromIndex != b.FromIndex || a.Rank != b.Rank || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}
