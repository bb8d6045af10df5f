package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/query"
)

// Query kinds the generators emit.
const (
	kindLegacy   = "codl"          // single-attribute CODL (legacy form)
	kindCompound = "codl-compound" // compound predicate plus a size or density filter
	kindAdaptive = "codl-adaptive" // single attribute with adaptive=true
	kindCODU     = "codu"
	kindCODR     = "codr"
	kindCODLNoIx = "codl-"
)

// benchQuery is one generated request. Node and Attr come from the paper's
// protocol (a uniform node among those with attributes, then one of its
// attributes); Expr is the DSL form without a node= knob, empty for the
// legacy single-attribute CODL form.
type benchQuery struct {
	Kind    string
	Node    int32
	Attr    int32
	Expr    string
	Class   int            // |C_ℓ| stratum
	Filters []query.Filter // the expression's community filters, for checks
	// Key names the query's predicate as the engine's caches key it (CODU
	// pools under attribute 0).
	Key string
}

// mixEntry is one query kind and its share of a block.
type mixEntry struct {
	kind  string
	share float64
}

// workloadDef fixes what a workload sends. Requests are drawn in blocks of a
// fixed composition: every block holds the same number of queries of each
// kind and, within a kind, of each |C_ℓ| stratum. C_ℓ is the community LORE
// picks for (node, predicate); its size sets most of a query's cost and is
// heavy-tailed, so a block drawn without strata would swing the throughput
// of one seed against another by far more than any change worth detecting.
type workloadDef struct {
	name    string
	dataset string
	// names references attributes by name in expressions. serve-cora uses
	// numeric ids: the graph codserve loads from a snapshot carries no names.
	names bool
	mix   []mixEntry
	// classBounds are the upper edges of the strata as fractions of N; the
	// last stratum runs from the last edge to N.
	classBounds []float64
	// classShares is each stratum's share of a kind's quota; a zero share
	// excludes the stratum.
	classShares []float64
	// compoundFilters are the community filters compound queries draw from.
	compoundFilters []string
}

var workloads = map[string]*workloadDef{
	"serve-cora": {
		name: "serve-cora", dataset: "cora",
		mix:             []mixEntry{{kindLegacy, 0.6}, {kindCompound, 0.3}, {kindAdaptive, 0.1}},
		compoundFilters: []string{"size>=5", "density>=0.05"},
		// Shares of 1000 paper-protocol draws per kind on cora at graph seed
		// 42, classified as classify does: C_ℓ spans over a quarter of the
		// graph (in practice all of it) for 9-12% of draws, by kind.
		classBounds: []float64{0.25},
		classShares: []float64{0.88, 0.12},
	},
	"batch-dblp": {
		name: "batch-dblp", dataset: "dblp", names: true,
		mix:             []mixEntry{{kindLegacy, 0.7}, {kindCompound, 0.3}},
		compoundFilters: []string{"size>=5"},
		// Shares of 3000 paper-protocol draws per kind on dblp at graph seed
		// 42, classified as classify does (the two kinds agree within 0.007
		// per stratum). C_ℓ spans over a quarter of the graph for 1.3% of
		// draws, and one such query costs 50 to 100 typical ones (0.3 s at
		// 28% of N, 1.2-1.5 s at 75%, 1.8-2.5 s above 88% on a 2-core VM), so
		// those queries hold about half of the list's work. Three strata
		// above 0.25 keep the cost of each alike; in a list of 300 the
		// single-attribute queries get one query of each and the compound
		// ones, by rounding, none.
		classBounds: []float64{0.002, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.8, 0.93},
		classShares: []float64{0.622, 0.094, 0.046, 0.072, 0.064, 0.011, 0.033, 0.046, 0.0037, 0.0043, 0.0047},
	},
	"variants-cora": {
		name: "variants-cora", dataset: "cora", names: true,
		mix: []mixEntry{{kindCODU, 1.0 / 3}, {kindCODR, 1.0 / 3}, {kindCODLNoIx, 1.0 / 3}},
		// The strata of serve-cora. CODU and CODR run no LORE; for them the
		// stratum of the drawn node and attribute still spreads the nodes
		// over the hierarchy the same way in every list.
		classBounds: []float64{0.25},
		classShares: []float64{0.88, 0.12},
	},
}

// workloadNames lists every workload perfbench runs. BENCHMARK.json gives
// serve-cora and variants-cora; batch-dblp is run by hand, since on a
// shared 2-core VM its spreads across seeds exceed the bounds (README.md,
// "Steadiness and bounds").
var workloadNames = []string{"serve-cora", "batch-dblp", "variants-cora"}

// generator draws benchQueries for one workload from one seeded stream.
type generator struct {
	def   *workloadDef
	g     *graph.Graph
	tree  *hier.Tree
	names []string
	rng   *rand.Rand
	mask  []bool
}

// newGenerator loads the workload's dataset at the registry seed and
// clusters it. Both are deterministic, so the strata are a property of the
// graph alone; the workload seed only drives which queries are drawn.
func newGenerator(ctx context.Context, def *workloadDef, seed uint64) (*generator, error) {
	d, err := dataset.Load(def.dataset, datasetSeed)
	if err != nil {
		return nil, err
	}
	t, err := hac.ClusterCtx(ctx, d.G, hac.UnweightedAverage)
	if err != nil {
		return nil, err
	}
	return &generator{def: def, g: d.G, tree: t, names: d.AttrNames,
		rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), mask: make([]bool, d.G.N())}, nil
}

// quotas splits total over shares by largest remainder, so the counts always
// sum to total and equal shares never differ by more than one.
func quotas(total int, shares []float64) []int {
	var sum float64
	for _, s := range shares {
		sum += s
	}
	out := make([]int, len(shares))
	rem := make([]float64, len(shares))
	given := 0
	for i, s := range shares {
		exact := float64(total) * s / sum
		out[i] = int(exact)
		rem[i] = exact - float64(out[i])
		given += out[i]
	}
	for ; given < total; given++ {
		best := -1
		for i := range rem {
			if shares[i] > 0 && (best < 0 || rem[i] > rem[best]) {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// block draws size queries of the workload's fixed composition, shuffled.
func (gen *generator) block(size int) ([]benchQuery, error) {
	return gen.blockOf(size, gen.def.classShares)
}

// smallBlock draws size queries of the workload's kind mix from the
// smallest-C_ℓ stratum only: a warm-up of fixed, small cost.
func (gen *generator) smallBlock(size int) ([]benchQuery, error) {
	shares := make([]float64, len(gen.def.classShares))
	shares[0] = 1
	return gen.blockOf(size, shares)
}

// blockOf draws size queries with the kind mix and the given stratum
// shares, shuffled.
func (gen *generator) blockOf(size int, classShares []float64) ([]benchQuery, error) {
	shares := make([]float64, len(gen.def.mix))
	for i, m := range gen.def.mix {
		shares[i] = m.share
	}
	out := make([]benchQuery, 0, size)
	for i, n := range quotas(size, shares) {
		need := quotas(n, classShares)
		left := n
		for tries := 0; left > 0; tries++ {
			if tries > 200*size {
				return nil, fmt.Errorf("workload %s: cannot fill the %s strata %v", gen.def.name, gen.def.mix[i].kind, need)
			}
			q := gen.draw(gen.def.mix[i].kind)
			if need[q.Class] == 0 {
				continue
			}
			need[q.Class]--
			left--
			out = append(out, q)
		}
	}
	gen.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// blocks concatenates n blocks of size queries.
func (gen *generator) blocks(n, size int) ([]benchQuery, error) {
	var out []benchQuery
	for i := 0; i < n; i++ {
		b, err := gen.block(size)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// draw makes one query of the kind from a paper-protocol (node, attribute)
// draw and classifies it by |C_ℓ|.
func (gen *generator) draw(kind string) benchQuery {
	pq := dataset.Queries(gen.g, 1, gen.rng)[0]
	q := benchQuery{Kind: kind, Node: pq.Node, Attr: pq.Attr}
	other := gen.otherAttr(pq.Attr)
	pred, compound := gen.ref(pq.Attr), false
	pair := "(" + gen.ref(pq.Attr) + " or " + gen.ref(other) + ")"

	switch kind {
	case kindCompound:
		fs := gen.def.compoundFilters
		pred, compound = pair, true
		q.Expr = pred + " and " + fs[gen.rng.IntN(len(fs))]
	case kindAdaptive:
		q.Expr = pred + " and adaptive=true"
	case kindCODU, kindCODR, kindCODLNoIx:
		q.Expr = "variant=" + kind
		if kind != kindCODU {
			if gen.rng.IntN(2) == 0 {
				pred, compound = pair, true
			}
			q.Expr = pred + " and " + q.Expr
		}
		if gen.rng.IntN(3) == 0 {
			q.Expr += " and size>=3"
		}
	}
	if q.Expr != "" {
		p, err := query.Parse(q.Expr)
		if err != nil {
			panic(fmt.Sprintf("generated expression %q does not parse: %v", q.Expr, err))
		}
		q.Filters = p.Filters
	}
	switch {
	case compound:
		q.Key = fmt.Sprintf("p%d,%d", min(pq.Attr, other), max(pq.Attr, other))
	case kind == kindCODU:
		q.Key = "a0"
	default:
		q.Key = fmt.Sprintf("a%d", pq.Attr)
	}
	q.Class = gen.classify(pq.Node, pq.Attr, other, compound)
	return q
}

// otherAttr draws an attribute different from a.
func (gen *generator) otherAttr(a int32) int32 {
	n := int32(gen.g.NumAttrs())
	return (a + 1 + int32(gen.rng.IntN(int(n-1)))) % n
}

// ref names attribute a in an expression.
func (gen *generator) ref(a int32) string {
	if gen.def.names && int(a) < len(gen.names) {
		return gen.names[a]
	}
	return strconv.Itoa(int(a))
}

// classify returns the stratum of |C_ℓ| for the query's predicate: a or b
// for compound queries, a alone otherwise.
func (gen *generator) classify(q, a, b int32, compound bool) int {
	var best int
	if compound {
		for v := range gen.mask {
			gen.mask[v] = gen.g.HasAttr(int32(v), a) || gen.g.HasAttr(int32(v), b)
		}
		_, best = core.ReclusterScoresPred(gen.g, gen.tree, q, gen.mask)
	} else {
		_, best = core.ReclusterScores(gen.g, gen.tree, q, a)
	}
	size := float64(core.ChainFromTree(gen.tree, q).Size(best))
	n := float64(gen.g.N())
	for i, b := range gen.def.classBounds {
		if size < b*n {
			return i
		}
	}
	return len(gen.def.classBounds)
}
