package cod

import (
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/hin"
)

// Heterogeneous information network (HIN) support: typed graphs projected
// onto a homogeneous weighted graph along a symmetric meta-path, with COD
// running on the projection — the paper's first future-work direction.

// HeteroSchema declares node and edge types (see HeteroEdgeType).
type HeteroSchema = hin.Schema

// HeteroEdgeType is one edge type of a HeteroSchema.
type HeteroEdgeType = hin.EdgeTypeSpec

// MetaPath is a symmetric sequence of edge types anchored at one node type.
type MetaPath = hin.MetaPath

// HeteroGraph is an undirected typed attributed multigraph.
type HeteroGraph struct{ h *hin.HeteroGraph }

// HeteroBuilder accumulates a HeteroGraph.
type HeteroBuilder struct{ b *hin.Builder }

// NewHeteroBuilder starts a typed graph over the schema; nodeTypes assigns
// each node's type, numAttrs sizes the attribute universe.
func NewHeteroBuilder(schema HeteroSchema, nodeTypes []int32, numAttrs int) (*HeteroBuilder, error) {
	b, err := hin.NewBuilder(schema, nodeTypes, numAttrs)
	if err != nil {
		return nil, err
	}
	return &HeteroBuilder{b: b}, nil
}

// AddEdge records a typed undirected edge (endpoint types must match the
// edge type's declaration).
func (hb *HeteroBuilder) AddEdge(u, v NodeID, edgeType int32) error {
	return hb.b.AddEdge(u, v, edgeType)
}

// SetAttrs assigns node v's attributes.
func (hb *HeteroBuilder) SetAttrs(v NodeID, attrs ...AttrID) error {
	return hb.b.SetAttrs(v, attrs...)
}

// Build assembles the immutable HeteroGraph.
func (hb *HeteroBuilder) Build() *HeteroGraph { return &HeteroGraph{h: hb.b.Build()} }

// N returns the number of nodes; M the number of typed edges.
func (g *HeteroGraph) N() int { return g.h.N() }

// M returns the number of typed undirected edges.
func (g *HeteroGraph) M() int { return g.h.M() }

// TypeOf returns v's node type.
func (g *HeteroGraph) TypeOf(v NodeID) int32 { return g.h.TypeOf(v) }

// Attrs returns v's attributes.
func (g *HeteroGraph) Attrs(v NodeID) []AttrID { return g.h.Attrs(v) }

// HeteroSearcher answers COD queries on a HIN through a meta-path
// projection (anchor-type nodes only).
type HeteroSearcher struct{ s *hin.Searcher }

// NewHeteroSearcher projects g along the meta-path and builds the COD
// offline state on the projection.
func NewHeteroSearcher(g *HeteroGraph, path MetaPath, opts Options) (*HeteroSearcher, error) {
	params := engine.Params{K: opts.K, Theta: opts.Theta, Beta: opts.Beta, Linkage: opts.Linkage,
		Seed: opts.Seed, Model: opts.Model, Balanced: opts.Balanced}
	s, err := hin.NewSearcher(g.h, path, params, 0)
	if err != nil {
		return nil, err
	}
	return &HeteroSearcher{s: s}, nil
}

// Discover finds the characteristic community of the anchor-type node q
// for the query attribute; the result holds HIN node ids.
func (hs *HeteroSearcher) Discover(q NodeID, attr AttrID) (Community, error) {
	com, err := hs.s.Discover(q, attr)
	if err != nil {
		return Community{}, err
	}
	return Community{Nodes: com.Nodes, Found: com.Found, FromIndex: com.FromIndex, Rank: com.Rank}, nil
}

// ProjectionSize reports the projected homogeneous graph's nodes and edges.
func (hs *HeteroSearcher) ProjectionSize() (nodes, edges int) {
	p := hs.s.Projection()
	return p.G.N(), p.G.M()
}
