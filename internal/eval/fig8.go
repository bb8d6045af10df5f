package eval

import (
	"context"
	"time"

	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/influence"
)

// Fig8Row is one point of the Compressed-vs-Independent comparison (§V-C):
// one dataset, one θ, one method.
type Fig8Row struct {
	Dataset   string
	Theta     int
	Method    string // "Compressed" | "Independent"
	Precision float64
	AvgSize   float64
	MinSize   int
	MaxSize   int
	AvgTime   time.Duration
	Served    int
	Total     int
	// TimedOut counts queries where Independent exceeded its budget.
	TimedOut int
}

// CompressedMethod and IndependentMethod label Fig. 8 rows.
const (
	CompressedMethod  = "Compressed"
	IndependentMethod = "Independent"
)

// RunCompressedVsIndependent regenerates Fig. 8 for one dataset: for each θ
// in cfg.Thetas, the top-k precision, size distribution and execution time
// of the compressed evaluation versus the per-community Independent
// baseline, both running over the CODR-style attribute-aware hierarchy. The
// budget caps Independent's total RR sets per query (0 = unlimited) so large
// configurations terminate, mirroring the paper's 36-hour cutoff.
func RunCompressedVsIndependent(cfg Config, k int, budget int) ([]Fig8Row, error) {
	cfg = cfg.withDefaults()
	if k <= 0 {
		k = 5
	}
	e, err := newEnv(cfg, false)
	if err != nil {
		return nil, err
	}
	codr := e.attrTrees()

	var rows []Fig8Row
	for _, theta := range cfg.Thetas {
		comp := Fig8Row{Dataset: cfg.Dataset, Theta: theta, Method: CompressedMethod, MinSize: 1 << 30}
		ind := Fig8Row{Dataset: cfg.Dataset, Theta: theta, Method: IndependentMethod, MinSize: 1 << 30}
		precRng := e.rng(uint64(theta) * 7919)
		for qi, q := range e.queries {
			t, err := codr.AttrTree(context.Background(), q.Attr)
			if err != nil {
				return nil, err
			}
			ch := core.ChainFromTree(t, q.Node)

			// Compressed: θ·n shared RR graphs, one pass.
			start := time.Now()
			s := influence.NewSampler(e.g, e.model, e.rng(uint64(qi)<<8^uint64(theta)))
			rrs := s.Batch(theta * e.g.N())
			lvl := core.CompressedEvaluate(ch, rrs, k).Level
			comp.AvgTime += time.Since(start)
			comp.Total++
			if lvl >= 0 {
				nodes := ch.Members(lvl)
				comp.Served++
				comp.AvgSize += float64(len(nodes))
				comp.MinSize = min(comp.MinSize, len(nodes))
				comp.MaxSize = max(comp.MaxSize, len(nodes))
				rank := core.ExactRankWithin(e.g, e.model, nodes, q.Node, cfg.PrecisionSets, precRng)
				if rank < k {
					comp.Precision++
				}
			}

			// Independent: θ·|C| RR sets per community, from scratch each.
			start = time.Now()
			res, done := core.IndependentEvaluate(e.g, e.model, ch, k, theta,
				e.rng(uint64(qi)<<8^uint64(theta)^0x5555), budget)
			ind.AvgTime += time.Since(start)
			ind.Total++
			if !done {
				ind.TimedOut++
			}
			if res.Level >= 0 {
				nodes := ch.Members(res.Level)
				ind.Served++
				ind.AvgSize += float64(len(nodes))
				ind.MinSize = min(ind.MinSize, len(nodes))
				ind.MaxSize = max(ind.MaxSize, len(nodes))
				rank := core.ExactRankWithin(e.g, e.model, nodes, q.Node, cfg.PrecisionSets, precRng)
				if rank < k {
					ind.Precision++
				}
			}
		}
		finalizeFig8Row(&comp)
		finalizeFig8Row(&ind)
		rows = append(rows, comp, ind)
	}
	return rows, nil
}

func finalizeFig8Row(r *Fig8Row) {
	if r.Served > 0 {
		r.Precision /= float64(r.Served)
		r.AvgSize /= float64(r.Served)
	}
	if r.MinSize == 1<<30 {
		r.MinSize = 0
	}
	if r.Total > 0 {
		r.AvgTime /= time.Duration(r.Total)
	}
}
