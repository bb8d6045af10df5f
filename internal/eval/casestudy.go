package eval

import (
	"github.com/codsearch/cod/internal/acs"
	"github.com/codsearch/cod/internal/core"
	"github.com/codsearch/cod/internal/dataset"
	"github.com/codsearch/cod/internal/graph"
)

// CaseCommunity describes one method's answer in the §V-E case study.
type CaseCommunity struct {
	Method      string
	Size        int
	QueryRank   int // ground-truth influence rank of q inside the community (0-based)
	Conductance float64
	Found       bool
}

// CaseStudy is the §V-E comparison for one query node at k=1.
type CaseStudy struct {
	Query   graph.NodeID
	Attr    graph.AttrID
	Results []CaseCommunity
}

// RunCaseStudy mirrors §V-E: for up to maxCases query nodes where CODL (at
// k=1) discovers a characteristic community, compare the communities found
// by CODL, ATC, ACQ and CAC on size, the query node's ground-truth influence
// rank inside each community, and conductance.
func RunCaseStudy(cfg Config, maxCases int) ([]CaseStudy, error) {
	cfg = cfg.withDefaults()
	e, err := newEnv(cfg, true)
	if err != nil {
		return nil, err
	}
	acsIdx := acs.NewIndex(e.g)
	rankRng := e.rng(0x9999)
	codl := e.queryEngine()

	build := func(q dataset.Query, requireATC bool) (CaseStudy, bool, error) {
		codlAns, err := codlAnswer(codl, e, q, []int{1}, 0xaaaa)
		if err != nil {
			return CaseStudy{}, false, err
		}
		codlNodes := codlAns[1]
		if len(codlNodes) < 5 || len(codlNodes) == e.g.N() {
			return CaseStudy{}, false, nil // uninformative case
		}
		atc, _ := acsIdx.ATC(q.Node, q.Attr)
		if requireATC && len(atc) == 0 {
			return CaseStudy{}, false, nil
		}
		cs := CaseStudy{Query: q.Node, Attr: q.Attr}
		add := func(method string, nodes []graph.NodeID) {
			cc := CaseCommunity{Method: method, Found: len(nodes) > 0}
			if cc.Found {
				cc.Size = len(nodes)
				cc.QueryRank = core.ExactRankWithin(e.g, e.model, nodes, q.Node, cfg.PrecisionSets, rankRng)
				cc.Conductance = graph.Conductance(e.g, nodes)
			}
			cs.Results = append(cs.Results, cc)
		}
		add(MethodCODL, codlNodes)
		add(MethodATC, atc)
		acq, _ := acsIdx.ACQ(q.Node, q.Attr)
		add(MethodACQ, acq)
		cac, _ := acsIdx.CAC(q.Node, q.Attr)
		add(MethodCAC, cac)
		return cs, true, nil
	}

	var out []CaseStudy
	used := map[graph.NodeID]bool{}
	// First pass prefers queries where ATC also answers, like the paper's
	// side-by-side comparison; the second pass fills with CODL-only cases.
	for _, requireATC := range []bool{true, false} {
		for _, q := range e.queries {
			if len(out) >= maxCases {
				return out, nil
			}
			if used[q.Node] {
				continue
			}
			cs, ok, err := build(q, requireATC)
			if err != nil {
				return nil, err
			}
			if ok {
				used[q.Node] = true
				out = append(out, cs)
			}
		}
	}
	return out, nil
}
