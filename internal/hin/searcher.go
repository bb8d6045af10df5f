package hin

import (
	"context"
	"fmt"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
)

// Searcher answers COD queries on a HIN: the meta-path projection is built
// once, then the standard CODL pipeline (LORE + HIMOR) runs on it. Query
// nodes must be of the meta-path's anchor type; answers are reported in HIN
// node ids.
type Searcher struct {
	h    *HeteroGraph
	path MetaPath
	proj *Projection
	eng  *engine.Engine
	seq  uint64
	seed uint64
}

// NewSearcher projects h along the meta-path and builds the COD state.
func NewSearcher(h *HeteroGraph, m MetaPath, params engine.Params, maxExpansion int) (*Searcher, error) {
	proj, err := Project(h, m, maxExpansion)
	if err != nil {
		return nil, err
	}
	eng, err := engine.Build(context.Background(), proj.G, params, engine.Config{})
	if err != nil {
		return nil, err
	}
	return &Searcher{h: h, path: m, proj: proj, eng: eng, seed: params.Seed}, nil
}

// Projection exposes the homogeneous projection for inspection.
func (s *Searcher) Projection() *Projection { return s.proj }

// Community is a COD answer over the HIN.
type Community struct {
	// Nodes are HIN node ids of the anchor type, ascending.
	Nodes []graph.NodeID
	// Found reports whether any projected community had q top-k.
	Found bool
	// FromIndex is true when the HIMOR index answered directly.
	FromIndex bool
	// Rank is q's influence rank within the community (1 = most
	// influential); 0 when not found.
	Rank int
}

// Discover finds the characteristic community of HIN node q (anchor type)
// for the query attribute over the meta-path projection.
func (s *Searcher) Discover(q graph.NodeID, attr graph.AttrID) (Community, error) {
	if q < 0 || int(q) >= s.h.N() {
		return Community{}, fmt.Errorf("hin: query node %d out of range", q)
	}
	lq := s.proj.FromHIN[q]
	if lq < 0 {
		return Community{}, fmt.Errorf("hin: query node %d is not of the meta-path anchor type %d",
			q, s.path.Start)
	}
	rng := graph.NewRand(graph.ItemSeed(s.seed, int(s.seq)))
	s.seq++
	com, err := s.eng.Execute(context.Background(), s.eng.Compile(engine.VariantCODL, lq, attr), rng)
	if err != nil {
		return Community{}, err
	}
	out := Community{Found: com.Found, FromIndex: com.FromIndex, Rank: com.Rank}
	for _, lv := range com.Nodes {
		out.Nodes = append(out.Nodes, s.proj.ToHIN[lv])
	}
	return out, nil
}
