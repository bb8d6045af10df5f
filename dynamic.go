package cod

import "github.com/codsearch/cod/internal/dynamic"

// FlushStrategy selects how DynamicSearcher.Flush rebuilds its state.
type FlushStrategy = dynamic.Strategy

// FlushStrategy values.
const (
	// FlushAuto reclusters locally when the updates are confined to a small
	// community, fully otherwise.
	FlushAuto = dynamic.Auto
	// FlushLocal forces the local subtree recluster.
	FlushLocal = dynamic.RebuildLocal
	// FlushFull forces a full recluster.
	FlushFull = dynamic.RebuildFull
)

// DynamicSearcher answers COD queries over a graph that receives edge
// insertions: updates are buffered with AddEdge and folded in with Flush,
// which reclusters either the affected subtree or the whole graph and
// rebuilds the influence index (see the paper's future-work discussion on
// dynamic graphs). Queries take the same path as Searcher's — Discover,
// Prepare, DiscoverBatch, ReplaySeededCtx — so before any Flush a
// DynamicSearcher answers exactly as a Searcher with the same Options.
// Not safe for concurrent use.
type DynamicSearcher struct {
	// queryCore validates against the original graph: edge insertions keep
	// its node and attribute ranges.
	queryCore
	u *dynamic.Updater
}

// NewDynamicSearcher builds the initial state for g. Options.Balanced is
// rejected: Flush reclusters without rebalancing.
func NewDynamicSearcher(g *Graph, opts Options) (*DynamicSearcher, error) {
	params, cfg, err := opts.engineConfig()
	if err != nil {
		return nil, err
	}
	u, err := dynamic.New(g.internalGraph(), params, cfg)
	if err != nil {
		return nil, err
	}
	return &DynamicSearcher{queryCore: newQueryCore(g, u.Engine()), u: u}, nil
}

// AddEdge buffers an undirected edge insertion; it becomes visible to
// queries after the next Flush.
func (d *DynamicSearcher) AddEdge(u, v NodeID) error { return d.u.AddEdge(u, v) }

// Pending returns the number of buffered insertions.
func (d *DynamicSearcher) Pending() int { return d.u.Pending() }

// Flush applies buffered insertions and rebuilds the hierarchy and index.
func (d *DynamicSearcher) Flush(s FlushStrategy) error { return d.u.Flush(s) }

// N returns the current node count; M the current edge count (excluding
// pending insertions).
func (d *DynamicSearcher) N() int { return d.u.Graph().N() }

// M returns the current number of edges, excluding pending insertions.
func (d *DynamicSearcher) M() int { return d.u.Graph().M() }
