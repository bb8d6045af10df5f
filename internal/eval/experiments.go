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
		e.index, err = core.BuildHimorWithSamplerCtx(context.Background(), e.g, e.tree,
			influence.NewSampler(e.g, e.model, graph.NewRand(cfg.Seed^0xbeef)), cfg.Theta)
		if err != nil {
			return nil, err
		}
	}
	e.queries = dataset.Queries(e.g, cfg.NumQueries, graph.NewRand(cfg.Seed^0xcafe))
	e.glInfl = GlobalInfluences(e.g, cfg.Theta, graph.NewRand(cfg.Seed^0xfeed))
	return e, nil
}

func (e *env) rng(salt uint64) *rand.Rand { return graph.NewRand(e.cfg.Seed ^ salt) }

// sharedPool samples one Θ = θ·n pool of RR graphs reused across queries in
// effectiveness experiments (sampling is query-independent, so reuse is
// unbiased per query; timing experiments sample per query instead). Its
// arena is never Reset, so the pool stays valid for as long as it is held.
func (e *env) sharedPool(salt uint64) influence.Pool {
	s := influence.NewSampler(e.g, e.model, e.rng(salt))
	pool, _ := influence.BatchPoolCtx(context.Background(), s, e.cfg.Theta*e.g.N(), influence.NewArena())
	return pool
}

// evalLevel runs Algorithm 1 for ch over pool at rank k in sc and returns
// the chain level of C*(q), -1 when q is top-k at no level.
func evalLevel(ch *core.Chain, pool influence.Pool, k int, sc *core.EvalScratch) int {
	res, _ := core.CompressedEvaluatePoolCtx(context.Background(), ch, pool, k, sc)
	return res.Level
}

// attrTrees returns an engine that reclusters the attribute-weighted graph
// g_ℓ once per attribute and keeps each tree resident (CODR's hierarchies).
func (e *env) attrTrees() *engine.Engine {
	return engine.New(e.g, nil, nil, engine.Params{Beta: e.cfg.Beta, Linkage: e.cfg.Linkage},
		engine.Config{CacheAttrTrees: true})
}

// queryEngine returns an engine over the env's tree and HIMOR index (nil
// when the env built none) with the harness's θ, β and linkage; plans set
// their own k. Its caches are off, so every query pays its own sampling
// and reclustering, as the paper's per-query pipelines do.
func (e *env) queryEngine() *engine.Engine {
	return engine.New(e.g, e.tree, e.index,
		engine.Params{Theta: e.cfg.Theta, Beta: e.cfg.Beta, Linkage: e.cfg.Linkage}, engine.Config{})
}

// lore runs LORE (Algorithm 2) for one query against the non-attributed
// tree.
func (e *env) lore(q dataset.Query) (*core.Reclustering, error) {
	return core.LoreCtx(context.Background(), e.g, e.tree, q.Node, q.Attr, e.cfg.Beta, e.cfg.Linkage)
}

// codlAnswer runs CODL for one query at every k in ks through eng, an
// engine from queryEngine. Each k executes from a fresh stream of the same
// seed, so every k that misses the index samples the same restricted pool.
func codlAnswer(eng *engine.Engine, e *env, q dataset.Query, ks []int, salt uint64) (map[int][]graph.NodeID, error) {
	out := make(map[int][]graph.NodeID, len(ks))
	for _, k := range ks {
		pl := eng.CompileSpec(engine.Spec{Variant: engine.VariantCODL, Q: q.Node, Attr: q.Attr, K: k})
		com, err := eng.Execute(context.Background(), pl, e.rng(salt^uint64(q.Node)<<16))
		if err != nil {
			return nil, err
		}
		if com.Found {
			out[k] = com.Nodes
		}
	}
	return out, nil
}
