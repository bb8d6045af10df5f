package cod

import (
	"context"
	"fmt"

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
// projection (anchor-type nodes only). Its queries take Searcher's path on
// the projected graph; it only checks and maps HIN node ids.
type HeteroSearcher struct {
	core queryCore // over the projection
	path MetaPath
	proj *hin.Projection
}

// NewHeteroSearcher projects g along the meta-path and builds the COD
// offline state on the projection.
func NewHeteroSearcher(g *HeteroGraph, path MetaPath, opts Options) (*HeteroSearcher, error) {
	proj, err := hin.Project(g.h, path, 0)
	if err != nil {
		return nil, err
	}
	params, cfg := opts.engineConfig()
	eng, err := engine.Build(context.Background(), proj.G, params, cfg)
	if err != nil {
		return nil, err
	}
	return &HeteroSearcher{core: newQueryCore(&Graph{g: proj.G}, eng), path: path, proj: proj}, nil
}

// Discover finds the characteristic community of the anchor-type node q
// for the query attribute; the result holds HIN node ids. An out-of-range
// node or attribute is a *RangeError, as on a Searcher.
func (hs *HeteroSearcher) Discover(q NodeID, attr AttrID) (Community, error) {
	if n := len(hs.proj.FromHIN); q < 0 || int(q) >= n {
		return Community{}, &RangeError{What: "query node", Value: int64(q), N: n}
	}
	lq := hs.proj.FromHIN[q]
	if lq < 0 {
		return Community{}, fmt.Errorf("cod: query node %d is not of the meta-path anchor type %d",
			q, hs.path.Start)
	}
	com, err := hs.core.Discover(lq, attr)
	// The answer's node slice is freshly built, so it maps in place.
	for i, lv := range com.Nodes {
		com.Nodes[i] = hs.proj.ToHIN[lv]
	}
	return com, err
}

// ProjectionSize reports the projected homogeneous graph's nodes and edges.
func (hs *HeteroSearcher) ProjectionSize() (nodes, edges int) {
	return hs.proj.G.N(), hs.proj.G.M()
}
