// Package cod discovers personalized characteristic communities in
// attributed graphs: given a query node q and a query attribute, it finds
// the largest community in a community hierarchy within which q is one of
// the top-k most influential nodes under the independent cascade model.
//
// It implements the COD framework of Niu, Li, Karras, Wang and Li
// ("Discovering Personalized Characteristic Communities in Attributed
// Graphs", ICDE 2024): compressed COD evaluation over shared
// reverse-reachable (RR) graphs, LORE local hierarchical reclustering for
// attribute awareness, and the HIMOR influence-rank index for fast queries.
//
// # Quick start
//
//	b := cod.NewGraphBuilder(n, numAttrs)
//	b.AddEdge(u, v)                // build the topology
//	b.SetAttrs(v, attr)            // attach categorical attributes
//	g, err := b.Build()
//
//	s, err := cod.NewSearcher(g, cod.Options{K: 5})
//	community, err := s.Discover(q, attr)   // CODL: LORE + HIMOR
//
//	pq, err := s.Prepare("ML and variant=codr")  // CODR, by expression
//	community, err = pq.Discover(q)
//
// Searcher construction performs the offline work (agglomerative
// clustering of the graph and HIMOR index construction); Discover then
// answers queries in milliseconds on graphs with tens of thousands of
// nodes. Discover is the single-attribute CODL shorthand; query
// expressions (Prepare, and Query.Expr in DiscoverBatch) pick the paper's
// CODU and CODR variants and CODL⁻ for comparison, and add compound
// predicates, community filters and per-query knobs. Searcher,
// DynamicSearcher and HeteroSearcher all run their queries through one
// path, so each honours the same Options and validation.
package cod
