package cod

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/obs"
)

// The golden answer corpus pins answers across versions. The determinism
// suite compares two paths of one build (pooled against fresh, one worker
// against four), so a change that moves every path alike — a new tie-break
// in the top-k sweep, a reordered pool, a new seed derivation — still passes
// it. TestGoldenAnswers replays a fixed query matrix and compares one digest
// per case with testdata/golden_answers.json. A change that alters answers on
// purpose regenerates the file with
//
//	go test -run TestGoldenAnswers -update-golden .
//
// and names the changed cases and the reason in CHANGES.md. If a digest ever
// differs by GOARCH (Go may fuse multiply-adds on arm64), key the file by
// GOARCH; never loosen the comparison.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_answers.json from the current code")

const goldenFile = "testdata/golden_answers.json"

// goldenDigest hashes a case's answers, in query order, in a fixed text form.
type goldenDigest struct{ h hash.Hash64 }

func newGoldenDigest() goldenDigest { return goldenDigest{fnv.New64a()} }

func (d goldenDigest) add(c Community) {
	fmt.Fprintf(d.h, "found=%t from_index=%t rank=%d nodes=%v\n", c.Found, c.FromIndex, c.Rank, c.Nodes)
}

func (d goldenDigest) addf(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

// addTrace hashes the trace ID and the recorded query seed.
func (d goldenDigest) addTrace(rec *obs.Recorder) {
	seed, ok := rec.Trace().Seed()
	d.addf("trace=%s seed=%d/%t", rec.TraceID(), seed, ok)
}

func (d goldenDigest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// goldenQuery is one query node with its first attribute and a second one
// for compound predicates.
type goldenQuery struct {
	node        NodeID
	attr, other AttrID
}

// goldenQueries spreads n queries evenly over g's attributed nodes.
func goldenQueries(g *Graph, n int) []goldenQuery {
	var cands []NodeID
	for v := NodeID(0); int(v) < g.N(); v++ {
		if len(g.Attrs(v)) > 0 {
			cands = append(cands, v)
		}
	}
	out := make([]goldenQuery, n)
	for i := range out {
		v := cands[i*len(cands)/n]
		a := g.Attrs(v)[0]
		out[i] = goldenQuery{node: v, attr: a, other: (a + 1) % AttrID(g.NumAttrs())}
	}
	return out
}

// goldenKind is one query shape of the matrix: an attribute predicate (a
// single attribute, or "(A or B)" when compound) plus an optional filter or
// knob suffix rendered for a graph of n nodes.
type goldenKind struct {
	name     string
	compound bool
	suffix   func(n int) string
}

var goldenKinds = []goldenKind{
	{name: "attr"},
	{name: "compound", compound: true},
	{name: "size", suffix: func(n int) string { return fmt.Sprintf("size<=%d", n/8) }},
	{name: "density", suffix: func(int) string { return "density>=0.05" }},
	{name: "conductance", suffix: func(int) string { return "conductance<=0.5" }},
	{name: "adaptive", suffix: func(int) string { return "adaptive=true and eps=0.2" }},
}

var goldenVariants = []string{"codu", "codr", "codl", "codl-"}

// goldenExpr renders one matrix cell's expression for query q. CODU takes no
// predicate: its cells drop the attribute term, and it has no compound cell.
func goldenExpr(variant string, kind goldenKind, q goldenQuery, n int) (string, bool) {
	terms := []string{fmt.Sprintf("node=%d", q.node), "variant=" + variant}
	switch {
	case variant == "codu" && kind.compound:
		return "", false
	case variant == "codu":
	case kind.compound:
		terms = append(terms, fmt.Sprintf("(%d or %d)", q.attr, q.other))
	default:
		terms = append(terms, fmt.Sprintf("%d", q.attr))
	}
	if kind.suffix != nil {
		terms = append(terms, kind.suffix(n))
	}
	return strings.Join(terms, " and "), true
}

// goldenCorpus computes every case's digest.
func goldenCorpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	ctx := context.Background()
	for _, ds := range []string{"tiny", "small"} {
		g, err := GenerateDataset(ds, 11)
		if err != nil {
			t.Fatal(err)
		}
		qs := goldenQueries(g, 3)
		for _, model := range []struct {
			name  string
			model Model
		}{{"ic", ModelIC}, {"lt", ModelLT}} {
			for _, balanced := range []bool{false, true} {
				for _, cache := range []int{0, 16} {
					opts := Options{Theta: 4, Seed: 3, Model: model.model, Balanced: balanced, SampleCache: cache}
					s, err := NewSearcher(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					prefix := fmt.Sprintf("%s/model=%s/balanced=%t", ds, model.name, balanced)
					if cache == 0 {
						out[prefix+"/tree"], out[prefix+"/himor"] = offlineDigests(s)
					}
					if ds == "small" && !balanced && cache == 0 {
						out[fmt.Sprintf("%s/model=%s/influence", ds, model.name)] = influenceDigest(t, s, qs)
					}
					prefix += fmt.Sprintf("/cache=%t", cache > 0)
					for _, variant := range goldenVariants {
						for _, kind := range goldenKinds {
							if _, ok := goldenExpr(variant, kind, qs[0], g.N()); !ok {
								continue
							}
							d := newGoldenDigest()
							for i, q := range qs {
								expr, _ := goldenExpr(variant, kind, q, g.N())
								com, err := s.ReplaySeededCtx(ctx, expr, graph.ItemSeed(0x601d, i))
								if err != nil {
									t.Fatalf("%s %q: %v", prefix, expr, err)
								}
								d.add(com)
							}
							out[prefix+"/"+variant+"/"+kind.name] = d.sum()
						}
					}
					if ds == "small" && model.model == ModelIC && !balanced {
						out[prefix+"/batch"] = batchDigest(t, s, g, qs)
					}
				}
			}
		}
	}
	coraCases(t, out)
	out["hetero"] = heteroDigest(t)
	return out
}

// offlineDigests hashes the hierarchy's parent array and the HIMOR rank of
// every node in every community containing it.
func offlineDigests(s *Searcher) (tree, himor string) {
	tr, idx := s.eng.Tree(), s.eng.Index()
	td, hd := newGoldenDigest(), newGoldenDigest()
	for v := 0; v < tr.NumVertices(); v++ {
		td.addf("%d", tr.Parent(int32(v)))
	}
	for q := 0; q < tr.N(); q++ {
		for _, v := range tr.Ancestors(tr.LeafOf(graph.NodeID(q))) {
			hd.addf("%d %d %d", q, v, idx.Rank(graph.NodeID(q), v))
		}
	}
	return td.sum(), hd.sum()
}

// influenceDigest hashes, per golden query i, the query node's estimated
// influence and the seeds and spread of an (i+1)-seed maximization, in
// call order: both draw from the Searcher's own seed sequence.
func influenceDigest(t *testing.T, s *Searcher, qs []goldenQuery) string {
	t.Helper()
	d := newGoldenDigest()
	for i, q := range qs {
		est, err := s.EstimateInfluence(q.node)
		if err != nil {
			t.Fatal(err)
		}
		seeds, spread, err := s.MaximizeInfluence(i + 1)
		if err != nil {
			t.Fatal(err)
		}
		d.addf("estimate q=%d %v seeds=%v spread=%v", q.node, est, seeds, spread)
	}
	return d.sum()
}

// batchDigest runs one DiscoverBatch of mixed legacy and expression items
// and hashes the answers plus the batch's trace ID and recorded seed.
func batchDigest(t *testing.T, s *Searcher, g *Graph, qs []goldenQuery) string {
	t.Helper()
	var batch []Query
	for _, q := range qs {
		batch = append(batch,
			Query{Node: q.node, Attr: q.attr},
			Query{Node: q.node, Expr: fmt.Sprintf("(%d or %d)", q.attr, q.other)},
			Query{Node: q.node, Expr: fmt.Sprintf("variant=codr and %d and size<=%d", q.attr, g.N()/8)},
			Query{Node: 0, Expr: fmt.Sprintf("node=%d and variant=codu", q.node)},
			Query{Node: q.node, Expr: fmt.Sprintf("variant=codl- and %d", q.other)})
	}
	rec := obs.NewRecorder(nil, obs.NewTrace())
	d := newGoldenDigest()
	for i, r := range s.DiscoverBatchCtx(obs.WithRecorder(context.Background(), rec), batch, 2) {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
		d.add(r.Community)
	}
	d.addTrace(rec)
	return d.sum()
}

// coraCases runs the four variants with IC defaults on cora through the live
// entry points — Discover for CODL, a prepared expression for the others —
// so the Searcher's own seed sequence and each query's trace ID and
// recorded seed are pinned too.
func coraCases(t *testing.T, out map[string]string) {
	t.Helper()
	g, err := GenerateDataset("cora", 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out["cora/tree"], out["cora/himor"] = offlineDigests(s)
	digests := map[string]goldenDigest{}
	for _, v := range []string{"CODU", "CODR", "CODL", "CODL-"} {
		digests[v] = newGoldenDigest()
	}
	for _, q := range goldenQueries(g, 3) {
		for _, v := range []string{"CODL", "CODR", "CODU", "CODL-"} {
			rec := obs.NewRecorder(nil, obs.NewTrace())
			ctx := obs.WithRecorder(context.Background(), rec)
			var com Community
			var err error
			if v == "CODL" {
				com, err = s.DiscoverCtx(ctx, q.node, q.attr)
			} else {
				com, err = discoverVariant(ctx, s, strings.ToLower(v), q.node, q.attr)
			}
			if err != nil {
				t.Fatalf("cora %s q=%d: %v", v, q.node, err)
			}
			digests[v].add(com)
			digests[v].addTrace(rec)
		}
	}
	for v, d := range digests {
		out["cora/"+v] = d.sum()
	}
}

// heteroDigest runs one HeteroSearcher query set over a HIN built from tiny:
// one paper node per edge, written by both endpoints, so the author-paper-
// author projection recovers tiny's topology.
func heteroDigest(t *testing.T) string {
	t.Helper()
	g, err := GenerateDataset("tiny", 11)
	if err != nil {
		t.Fatal(err)
	}
	types := make([]int32, g.N()+g.M())
	for i := g.N(); i < len(types); i++ {
		types[i] = 1
	}
	schema := HeteroSchema{
		NodeTypes: []string{"author", "paper"},
		EdgeTypes: []HeteroEdgeType{{Name: "writes", From: 0, To: 1}},
	}
	b, err := NewHeteroBuilder(schema, types, g.NumAttrs())
	if err != nil {
		t.Fatal(err)
	}
	paper := NodeID(g.N())
	g.internalGraph().ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if err := b.AddEdge(u, paper, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(v, paper, 0); err != nil {
			t.Fatal(err)
		}
		paper++
	})
	for v := NodeID(0); int(v) < g.N(); v++ {
		if err := b.SetAttrs(v, g.Attrs(v)...); err != nil {
			t.Fatal(err)
		}
	}
	hs, err := NewHeteroSearcher(b.Build(), MetaPath{Edges: []int32{0, 0}, Start: 0}, Options{Theta: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := newGoldenDigest()
	for _, q := range goldenQueries(g, 4) {
		com, err := hs.Discover(q.node, q.attr)
		if err != nil {
			t.Fatalf("hetero q=%d: %v", q.node, err)
		}
		d.add(com)
	}
	return d.sum()
}

func TestGoldenAnswers(t *testing.T) {
	got := goldenCorpus(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenFile)
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(got) {
		if w, ok := want[name]; !ok {
			t.Errorf("case %s: not in %s", name, goldenFile)
		} else if got[name] != w {
			t.Errorf("case %s: digest %s, golden %s", name, got[name], w)
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			t.Errorf("case %s: in %s but no longer computed", name, goldenFile)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
