package eval

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/hac"
	"github.com/codsearch/cod/internal/hier"
	"github.com/codsearch/cod/internal/influence"
)

// Config parameterizes the experiment runners. Zero values take the paper's
// defaults (k ∈ 1..5, θ = 10, β = 1, 100 queries).
type Config struct {
	Dataset       string
	Seed          uint64
	NumQueries    int
	Theta         int
	Ks            []int
	Beta          float64
	Thetas        []int // Fig. 8 sweep; default {10, 20, 40, 80}
	PrecisionSets int   // ground-truth RR sets per community node; default 200
	Linkage       hac.Linkage
}

func (c Config) withDefaults() Config {
	if c.Dataset == "" {
		c.Dataset = "cora"
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 100
	}
	if c.Theta <= 0 {
		c.Theta = 10
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 2, 3, 4, 5}
	}
	if c.Beta <= 0 {
		c.Beta = 1
	}
	if len(c.Thetas) == 0 {
		c.Thetas = []int{10, 20, 40, 80}
	}
	if c.PrecisionSets <= 0 {
		c.PrecisionSets = 200
	}
	return c
}

// env bundles the per-dataset state shared across experiment runners.
type env struct {
	cfg     Config
	ds      *dataset.Dataset
	g       *graph.Graph
	model   influence.Model
	tree    *hier.Tree
	index   *core.Himor
	queries []dataset.Query
	// glInfl[v] is the estimated influence of v on the whole graph.
	glInfl []float64
}

// newEnv loads the dataset, clusters it, optionally builds the HIMOR index,
// samples the query workload and precomputes global influences.
func newEnv(cfg Config, buildIndex bool) (*env, error) {
	cfg = cfg.withDefaults()
	ds, err := dataset.Load(cfg.Dataset, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, ds: ds, g: ds.G, model: influence.NewWeightedCascade(ds.G)}
	e.tree, err = hac.Cluster(e.g, cfg.Linkage)
	if err != nil {
		return nil, fmt.Errorf("eval: clustering %s: %w", cfg.Dataset, err)
	}
	if buildIndex {
		e.index = core.BuildHimor(e.g, e.tree, e.model, cfg.Theta, graph.NewRand(cfg.Seed^0xbeef))
	}
	e.queries = dataset.Queries(e.g, cfg.NumQueries, graph.NewRand(cfg.Seed^0xcafe))
	e.glInfl = GlobalInfluences(e.g, cfg.Theta, graph.NewRand(cfg.Seed^0xfeed))
	return e, nil
}

func (e *env) rng(salt uint64) *rand.Rand { return graph.NewRand(e.cfg.Seed ^ salt) }

// sharedPool samples one Θ = θ·n pool of RR graphs reused across queries in
// effectiveness experiments (sampling is query-independent, so reuse is
// unbiased per query; timing experiments sample per query instead).
func (e *env) sharedPool(salt uint64) []*influence.RRGraph {
	s := influence.NewSampler(e.g, e.model, e.rng(salt))
	return s.Batch(e.cfg.Theta * e.g.N())
}

// attrTrees returns an engine that reclusters the attribute-weighted graph
// g_ℓ once per attribute and keeps each tree resident (CODR's hierarchies).
func (e *env) attrTrees() *engine.Engine {
	return engine.New(e.g, nil, nil, engine.Params{Beta: e.cfg.Beta, Linkage: e.cfg.Linkage},
		engine.Config{CacheAttrTrees: true})
}

// lore runs LORE (Algorithm 2) for one query against the non-attributed
// tree.
func (e *env) lore(q dataset.Query) (*core.Reclustering, error) {
	return core.LoreCtx(context.Background(), e.g, e.tree, q.Node, q.Attr, e.cfg.Beta, e.cfg.Linkage)
}

// codlAnswer evaluates Algorithm 3 for one query and every k in ks, reusing
// the LORE reclustering and one restricted sample pool across the ks.
func codlAnswer(e *env, q dataset.Query, ks []int, salt uint64) (map[int][]graph.NodeID, error) {
	rec, err := e.lore(q)
	if err != nil {
		return nil, err
	}
	out := make(map[int][]graph.NodeID, len(ks))
	anc := e.tree.Ancestors(rec.CL)
	var innerRes map[int]int // k -> level, computed lazily
	var inner *core.Chain
	for _, k := range ks {
		served := false
		for i := len(anc) - 1; i >= -1; i-- {
			v := rec.CL
			if i >= 0 {
				v = anc[i]
			}
			if e.index.Rank(q.Node, v) < k {
				out[k] = e.tree.Members(v)
				served = true
				break
			}
		}
		if served {
			continue
		}
		if innerRes == nil {
			innerRes = map[int]int{}
			inner = core.InnerChain(e.g, e.tree, rec, q.Node)
			members := rec.Sub.ToParent
			in := make([]bool, e.g.N())
			for _, v := range members {
				in[v] = true
			}
			member := func(u graph.NodeID) bool { return in[u] }
			rng := e.rng(salt ^ uint64(q.Node)<<16)
			s := influence.NewSampler(e.g, e.model, rng)
			rrs := make([]*influence.RRGraph, e.cfg.Theta*len(members))
			for i := range rrs {
				rrs[i] = s.RRGraphWithin(members[rng.IntN(len(members))], member)
			}
			for _, kk := range ks {
				innerRes[kk] = core.CompressedEvaluate(inner, rrs, kk).Level
			}
		}
		if lvl := innerRes[k]; lvl >= 0 {
			out[k] = inner.Members(lvl)
		}
	}
	return out, nil
}
