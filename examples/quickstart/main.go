// Quickstart: build a small attributed graph by hand, construct a Searcher
// and discover the characteristic community of a query node.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/codsearch/cod"
)

func main() {
	// A toy collaboration network: two tightly knit groups (a "databases"
	// group around node 0 and a "machine learning" group around node 6)
	// joined by a few cross-edges. Attribute 0 = DB, attribute 1 = ML.
	const (
		db = cod.AttrID(0)
		ml = cod.AttrID(1)
	)
	b := cod.NewGraphBuilder(12, 2)
	edges := [][2]cod.NodeID{
		// DB group: node 0 is the local star
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {3, 4},
		// ML group: node 6 is the local star
		{6, 7}, {6, 8}, {6, 9}, {6, 10}, {6, 11}, {7, 8}, {9, 10},
		// bridges
		{5, 6}, {4, 11},
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	for v := cod.NodeID(0); v <= 5; v++ {
		if err := b.SetAttrs(v, db); err != nil {
			log.Fatal(err)
		}
	}
	for v := cod.NodeID(6); v <= 11; v++ {
		if err := b.SetAttrs(v, ml); err != nil {
			log.Fatal(err)
		}
	}
	g := b.Build()
	// Register attribute names so query expressions can reference them.
	if err := g.SetAttrNames("DB", "ML"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges, %d attributes\n", g.N(), g.M(), g.NumAttrs())

	// Offline phase: hierarchical clustering + HIMOR index.
	s, err := cod.NewSearcher(g, cod.Options{K: 1, Theta: 50, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Where is node 0 a top-1 influencer on the DB topic?
	com, err := s.Discover(0, db)
	if err != nil {
		log.Fatal(err)
	}
	if !com.Found {
		fmt.Println("node 0 is not top-1 influential in any community")
		return
	}
	fmt.Printf("characteristic community of node 0 (DB, k=1): %v\n", com.Nodes)
	fmt.Printf("  size=%d  ρ=%.3f  φ(DB)=%.3f  conductance=%.3f\n",
		com.Size(),
		g.TopologyDensity(com.Nodes),
		g.AttributeDensity(com.Nodes, db),
		g.Conductance(com.Nodes))

	// Node 1 is not a hub: its characteristic community is much smaller.
	com1, err := s.Discover(1, db)
	if err != nil {
		log.Fatal(err)
	}
	if com1.Found {
		fmt.Printf("characteristic community of node 1 (DB, k=1): %v\n", com1.Nodes)
	} else {
		fmt.Println("node 1 is not top-1 influential in any community")
	}

	// The same queries in the expression DSL: attribute names, boolean
	// predicates, community filters, and execution knobs in one string.
	// A single-attribute expression runs byte-identically to Discover.
	pq, err := s.Prepare("DB and node=0")
	if err != nil {
		log.Fatal(err)
	}
	comQ, err := pq.Discover(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q (canonical %q): found=%t nodes=%v\n", "DB and node=0", pq.Expr(), comQ.Found, comQ.Nodes)

	// A compound predicate with a community filter: nodes on either topic,
	// but only accept a community with at least 3 members. Filtered queries
	// always certify by sampling (the index probe cannot honor filters), and
	// equal predicates normalize to one canonical form — and one
	// sample-cache entry — however they are spelled.
	const orExpr = "(DB or ML) and size>=3"
	pqOr, err := s.Prepare(orExpr)
	if err != nil {
		log.Fatal(err)
	}
	comOr, err := pqOr.Discover(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %q: found=%t rank=%d nodes=%v\n", orExpr, comOr.Found, comOr.Rank, comOr.Nodes)

	// Influence introspection via the HIMOR index.
	infl, err := s.EstimateInfluence(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated global influence of node 0: %.2f nodes\n", infl)
	depth, _ := s.HierarchyDepth(0)
	for i := 0; i < depth; i++ {
		rank, size, _ := s.InfluenceRank(0, i)
		fmt.Printf("  community #%d (size %2d): rank %d\n", i, size, rank)
	}
}
