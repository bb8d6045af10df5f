// Academic: the conference-invitation scenario from the paper (§IV): to
// organize a workshop on a research area, invite the widest community of
// researchers in which the organizing PC chair actually carries weight —
// their characteristic community for the area attribute.
//
// The example compares the three hierarchy variants on a citation-network
// stand-in: CODL (attribute-aware local reclustering), CODU (topology only)
// and CODR (global reclustering), reproducing the paper's qualitative
// finding that CODL serves lower-influence query nodes with denser,
// more on-topic communities. Discover runs CODL; the other variants are
// picked by query expression (variant=codu, variant=codr).
//
// Run with: go run ./examples/academic
package main

import (
	"fmt"
	"log"

	"github.com/codsearch/cod"
)

func main() {
	g, err := cod.GenerateDataset("cora", 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("citation network: %d papers, %d citations, %d areas\n", g.N(), g.M(), g.NumAttrs())

	s, err := cod.NewSearcher(g, cod.Options{K: 5, Theta: 10, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Pick a handful of mid-degree "PC chairs": influential locally, but not
	// global celebrities.
	var chairs []cod.NodeID
	for v := cod.NodeID(0); int(v) < g.N() && len(chairs) < 5; v++ {
		if d := g.Degree(v); d >= 5 && d <= 12 && len(g.Attrs(v)) > 0 {
			chairs = append(chairs, v)
		}
	}

	fmt.Println("\nchair  area  method  found  size  ρ       φ       conductance")
	for _, q := range chairs {
		area := g.Attrs(q)[0]
		for _, m := range []struct{ name, expr string }{
			{"CODL", fmt.Sprintf("%d", area)},
			{"CODU", "variant=codu"},
			{"CODR", fmt.Sprintf("%d and variant=codr", area)},
		} {
			pq, err := s.Prepare(m.expr)
			if err != nil {
				log.Fatal(err)
			}
			com, err := pq.Discover(q)
			if err != nil {
				log.Fatal(err)
			}
			if !com.Found {
				fmt.Printf("%5d  %4d  %-6s  no\n", q, area, m.name)
				continue
			}
			fmt.Printf("%5d  %4d  %-6s  yes   %4d  %.4f  %.4f  %.4f\n",
				q, area, m.name, com.Size(),
				g.TopologyDensity(com.Nodes),
				g.AttributeDensity(com.Nodes, area),
				g.Conductance(com.Nodes))
		}
	}

	fmt.Println("\ninterpretation: CODL's community is the invitation list — the widest")
	fmt.Println("group, dense on the workshop's area, in which the chair is top-5 influential.")

	// A cross-area workshop as one query expression: the built-in cora
	// dataset registers its class names, so the predicate can say
	// "Neural_Networks or Theory" directly, add a minimum invitation-list
	// size, and relax k — all without touching the Searcher's options.
	if len(chairs) > 0 {
		expr := fmt.Sprintf("(Neural_Networks or Theory) and size>=10 and k=7 and node=%d", chairs[0])
		pq, err := s.Prepare(expr)
		if err != nil {
			log.Fatal(err)
		}
		com, err := pq.Discover(chairs[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncompound query %q:\n", expr)
		if com.Found {
			fmt.Printf("  %d invitees, chair ranked #%d, ρ=%.4f conductance=%.4f\n",
				com.Size(), com.Rank,
				g.TopologyDensity(com.Nodes), g.Conductance(com.Nodes))
		} else {
			fmt.Println("  no community of that size has the chair in its top-7")
		}
	}
}
