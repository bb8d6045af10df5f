package hin

import (
	"context"
	"testing"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
)

// biblioSchema: authors (0), papers (1), venues (2); writes (0): A-P,
// published (1): P-V.
func biblioSchema() Schema {
	return Schema{
		NodeTypes: []string{"author", "paper", "venue"},
		EdgeTypes: []EdgeTypeSpec{
			{Name: "writes", From: 0, To: 1},
			{Name: "published", From: 1, To: 2},
		},
	}
}

// smallBiblio: 4 authors (0-3), 3 papers (4-6), 2 venues (7-8).
// paper 4: authors 0,1 (venue 7); paper 5: authors 1,2 (venue 7);
// paper 6: authors 2,3 (venue 8).
func smallBiblio(t *testing.T) *HeteroGraph {
	t.Helper()
	types := []NodeType{0, 0, 0, 0, 1, 1, 1, 2, 2}
	b, err := NewBuilder(biblioSchema(), types, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges := [][3]int32{
		{0, 4, 0}, {1, 4, 0}, {1, 5, 0}, {2, 5, 0}, {2, 6, 0}, {3, 6, 0},
		{4, 7, 1}, {5, 7, 1}, {6, 8, 1},
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], EdgeType(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	for a := graph.NodeID(0); a < 4; a++ {
		attr := graph.AttrID(0)
		if a >= 2 {
			attr = 1
		}
		if err := b.SetAttrs(a, attr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	types := []NodeType{0, 1}
	b, err := NewBuilder(biblioSchema(), types, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 0, 0); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(0, 1, 1); err == nil {
		t.Error("type-mismatched edge accepted (author-paper via published)")
	}
	if err := b.AddEdge(0, 1, 9); err == nil {
		t.Error("unknown edge type accepted")
	}
	if _, err := NewBuilder(biblioSchema(), []NodeType{7}, 0); err == nil {
		t.Error("unknown node type accepted")
	}
	if _, err := NewBuilder(Schema{}, nil, 0); err == nil {
		t.Error("empty schema accepted")
	}
}

func TestHeteroGraphShape(t *testing.T) {
	h := smallBiblio(t)
	if h.N() != 9 || h.M() != 9 {
		t.Fatalf("shape %d/%d", h.N(), h.M())
	}
	if h.TypeOf(0) != 0 || h.TypeOf(4) != 1 || h.TypeOf(8) != 2 {
		t.Error("node types wrong")
	}
	if got := h.NodesOfType(0); len(got) != 4 {
		t.Errorf("authors = %v", got)
	}
	if ns := h.Neighbors(4, 0); len(ns) != 2 { // paper 4's authors
		t.Errorf("writes-neighbors of paper 4 = %v", ns)
	}
	if ns := h.Neighbors(4, 1); len(ns) != 1 || ns[0] != 7 {
		t.Errorf("published-neighbors of paper 4 = %v", ns)
	}
	if !h.HasAttr(0, 0) || h.HasAttr(0, 1) {
		t.Error("attrs wrong")
	}
}

func TestMetaPathValidate(t *testing.T) {
	s := biblioSchema()
	apa := MetaPath{Edges: []EdgeType{0, 0}, Start: 0}
	types, err := apa.Validate(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeType{0, 1, 0}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("APA types = %v", types)
		}
	}
	apvpa := MetaPath{Edges: []EdgeType{0, 1, 1, 0}, Start: 0}
	if _, err := apvpa.Validate(s); err != nil {
		t.Fatalf("APVPA: %v", err)
	}
	// asymmetric path rejected
	ap := MetaPath{Edges: []EdgeType{0}, Start: 0}
	if _, err := ap.Validate(s); err == nil {
		t.Error("asymmetric path accepted")
	}
	// unwalkable
	bad := MetaPath{Edges: []EdgeType{1, 1}, Start: 0}
	if _, err := bad.Validate(s); err == nil {
		t.Error("unwalkable path accepted")
	}
	if _, err := (MetaPath{}).Validate(s); err == nil {
		t.Error("empty path accepted")
	}
}

func TestProjectAPA(t *testing.T) {
	h := smallBiblio(t)
	p, err := Project(h, MetaPath{Edges: []EdgeType{0, 0}, Start: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.G.N() != 4 {
		t.Fatalf("projection N = %d", p.G.N())
	}
	// co-authorships: (0,1) via paper4, (1,2) via paper5, (2,3) via paper6
	if p.G.M() != 3 {
		t.Fatalf("projection M = %d, want 3", p.G.M())
	}
	l := func(hid graph.NodeID) graph.NodeID { return graph.NodeID(p.FromHIN[hid]) }
	if !p.G.HasEdge(l(0), l(1)) || !p.G.HasEdge(l(1), l(2)) || !p.G.HasEdge(l(2), l(3)) {
		t.Error("co-author edges missing")
	}
	if p.G.HasEdge(l(0), l(2)) {
		t.Error("phantom co-author edge")
	}
	// attributes carried over
	if !p.G.HasAttr(l(3), 1) {
		t.Error("attrs lost in projection")
	}
}

func TestProjectAPVPA(t *testing.T) {
	h := smallBiblio(t)
	p, err := Project(h, MetaPath{Edges: []EdgeType{0, 1, 1, 0}, Start: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := func(hid graph.NodeID) graph.NodeID { return graph.NodeID(p.FromHIN[hid]) }
	// venue 7 hosts papers 4,5 -> authors {0,1} x {1,2} connected
	if !p.G.HasEdge(l(0), l(2)) {
		t.Error("APVPA should connect authors 0 and 2 via venue 7")
	}
	// venue 8 hosts only paper 6: authors 2,3 connected via APVPA too
	if !p.G.HasEdge(l(2), l(3)) {
		t.Error("APVPA should connect authors 2 and 3")
	}
	// authors 0 and 3 share no venue
	if p.G.HasEdge(l(0), l(3)) {
		t.Error("APVPA phantom edge 0-3")
	}
	// multiplicity: (1,2) share venue-7 paths (1-4-7-5-2 and 1-5-7-4-2? plus
	// 1-5-7-5-2 closed through same paper is valid) — weight must be >= 1
	if w := p.G.EdgeWeight(l(1), l(2)); w < 1 {
		t.Errorf("weight(1,2) = %f", w)
	}
}

// TestHINSearcherEndToEnd runs CODL on the meta-path projection of a
// bibliographic HIN, the way the facade's HeteroSearcher does: the answer,
// mapped back to HIN ids, stays within the query author's research area.
func TestHINSearcherEndToEnd(t *testing.T) {
	// A larger bibliographic HIN with two planted research communities.
	rng := graph.NewRand(55)
	const authors, papersPer = 40, 60
	types := make([]NodeType, 0, authors+2*papersPer+2)
	for i := 0; i < authors; i++ {
		types = append(types, 0)
	}
	for i := 0; i < 2*papersPer; i++ {
		types = append(types, 1)
	}
	types = append(types, 2, 2)
	b, err := NewBuilder(biblioSchema(), types, 2)
	if err != nil {
		t.Fatal(err)
	}
	paper0 := graph.NodeID(authors)
	venue0 := graph.NodeID(authors + 2*papersPer)
	for p := 0; p < 2*papersPer; p++ {
		comm := p / papersPer // 0 or 1
		pid := paper0 + graph.NodeID(p)
		// 2-3 authors from the paper's community
		na := 2 + rng.IntN(2)
		for i := 0; i < na; i++ {
			a := graph.NodeID(comm*authors/2 + rng.IntN(authors/2))
			_ = b.AddEdge(a, pid, 0) // duplicates merged
		}
		_ = b.AddEdge(pid, venue0+graph.NodeID(comm), 1)
	}
	for a := 0; a < authors; a++ {
		_ = b.SetAttrs(graph.NodeID(a), graph.AttrID(a/(authors/2)))
	}
	h := b.Build()

	proj, err := Project(h, MetaPath{Edges: []EdgeType{0, 0}, Start: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only authors are projected: papers have no projection id.
	if proj.FromHIN[paper0] >= 0 || proj.ToHIN[proj.FromHIN[3]] != 3 {
		t.Fatal("projection id maps wrong")
	}
	eng, err := engine.Build(context.Background(), proj.G, engine.Params{K: 5, Theta: 5, Seed: 55}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	com, err := eng.Execute(context.Background(), eng.Compile(engine.VariantCODL, proj.FromHIN[3], 0),
		graph.NewRand(graph.ItemSeed(55, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if com.Found {
		inComm0 := 0
		for _, lv := range com.Nodes {
			if int(proj.ToHIN[lv]) < authors/2 {
				inComm0++
			}
		}
		if inComm0*2 < len(com.Nodes) {
			t.Errorf("community leaked across research areas: %d/%d in community 0",
				inComm0, len(com.Nodes))
		}
	}
}
