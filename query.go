package cod

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/codsearch/cod/internal/engine"
	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/query"
)

// ParseError is a positioned query-expression error. Error() reports the
// byte offset; Caret() renders the expression with a caret under the
// offending token. HTTP front ends map it to a 400 with both.
type ParseError = query.ParseError

// ErrUnsatisfiable is wrapped by Prepare when the expression's predicate is
// a contradiction no node can satisfy (e.g. "ML AND NOT ML").
var ErrUnsatisfiable = query.ErrUnsatisfiable

// PreparedQuery is a parsed, resolved and normalized query expression bound
// to a searcher: parse once, discover many times. Preparation is pure — it
// consumes no query seed — so preparing an expression never perturbs the
// searcher's deterministic query sequence.
//
// Expression language (see also the README's query-language section):
//
//	ML AND (ICDE OR KDD) AND size>=20 AND k=7
//
// Attributes are referenced by registered name (case-insensitive; see
// Graph.SetAttrNames) or numeric id, combined with AND/OR/NOT (&,|,!) and
// parentheses. Top-level conjuncts may also be community filters
// (size/density/conductance against a threshold) and execution knobs
// (node=, k=, variant=codl|codu|codr|codl-, adaptive=, eps=, delta=).
// Semantically equal predicates normalize to one canonical form — and one
// sample-cache key — however they are spelled.
type PreparedQuery struct {
	c        *queryCore
	variant  engine.Variant
	attr     AttrID     // lowered single-attribute target (pred == nil)
	pred     *query.DNF // compound predicate, nil when lowered
	filters  []query.Filter
	k        int
	adaptive *engine.Adaptive
	node     NodeID
	hasNode  bool
	expr     string // canonical serialization
}

// Prepare parses, resolves and normalizes a query expression against the
// searcher's graph. Errors are *ParseError values positioned in the input
// (syntax, unknown or out-of-range attributes, misplaced filters/knobs),
// or wrap ErrUnsatisfiable for contradictory predicates. Expressions are
// the one way to pick a variant (variant=codu|codr|codl-), a compound
// predicate, community filters or per-query knobs.
func (c *queryCore) Prepare(expr string) (*PreparedQuery, error) {
	p, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	var lookup func(string) (graph.AttrID, bool)
	if c.g.names != nil {
		lookup = c.g.AttrByName
	}
	if err := p.Resolve(lookup, c.g.NumAttrs()); err != nil {
		return nil, err
	}

	pq := &PreparedQuery{c: c, variant: engine.VariantCODL, k: p.Knobs.K}
	switch strings.ToLower(p.Knobs.Variant) {
	case "", "codl":
		pq.variant = engine.VariantCODL
	case "codu":
		pq.variant = engine.VariantCODU
	case "codr":
		pq.variant = engine.VariantCODR
	case "codl-":
		pq.variant = engine.VariantCODLNoIndex
	default:
		// Parse validates the variant value; this guards future drift.
		return nil, fmt.Errorf("cod: unknown variant %q", p.Knobs.Variant)
	}

	if p.Pred != nil {
		d, err := query.Normalize(p.Pred)
		if err != nil {
			return nil, err
		}
		if pq.variant == engine.VariantCODU {
			return nil, fmt.Errorf("cod: variant codu ignores attributes; drop the predicate or pick codl/codr/codl-")
		}
		// Single positive literals lower to the single-attribute query here
		// (not just in the engine) so validation, error shapes and cache keys
		// match Discover's exactly.
		if a, ok := d.Single(); ok {
			pq.attr = a
		} else {
			pq.pred = d
		}
	} else if pq.variant != engine.VariantCODU {
		return nil, fmt.Errorf("cod: variant %s needs an attribute predicate (use variant=codu for attribute-free discovery)", pq.variant)
	}

	pq.filters = append([]query.Filter(nil), p.Filters...)
	query.SortFilters(pq.filters)
	if p.Knobs.HasNode {
		pq.node, pq.hasNode = NodeID(p.Knobs.Node), true
	}
	if p.Knobs.HasAdaptive || p.Knobs.Eps > 0 || p.Knobs.Delta > 0 {
		enabled := true
		if p.Knobs.HasAdaptive {
			enabled = p.Knobs.Adaptive
		}
		pq.adaptive = &engine.Adaptive{Enabled: enabled, Eps: p.Knobs.Eps, Delta: p.Knobs.Delta}
	}
	pq.expr = pq.render()
	return pq, nil
}

// render builds the canonical serialization: the normalized predicate
// (parenthesized when disjunctive, so the string re-parses), then sorted
// filters, then set knobs, joined as top-level conjuncts. Two expressions
// with equal semantics render identically.
func (pq *PreparedQuery) render() string {
	var parts []string
	switch {
	case pq.pred != nil && pq.pred.NumClauses() > 1:
		parts = append(parts, "("+pq.pred.String()+")")
	case pq.pred != nil:
		parts = append(parts, pq.pred.String())
	case pq.variant != engine.VariantCODU:
		parts = append(parts, strconv.Itoa(int(pq.attr)))
	}
	for _, f := range pq.filters {
		parts = append(parts, f.String())
	}
	if pq.hasNode {
		parts = append(parts, fmt.Sprintf("node=%d", pq.node))
	}
	if pq.k > 0 {
		parts = append(parts, fmt.Sprintf("k=%d", pq.k))
	}
	if pq.variant != engine.VariantCODL {
		parts = append(parts, "variant="+strings.ToLower(pq.variant.String()))
	}
	if ad := pq.adaptive; ad != nil {
		parts = append(parts, fmt.Sprintf("adaptive=%t", ad.Enabled))
		if ad.Eps > 0 {
			parts = append(parts, "eps="+strconv.FormatFloat(ad.Eps, 'g', -1, 64))
		}
		if ad.Delta > 0 {
			parts = append(parts, "delta="+strconv.FormatFloat(ad.Delta, 'g', -1, 64))
		}
	}
	return strings.Join(parts, " and ")
}

// Expr returns the canonical serialization of the prepared query:
// normalized predicate, sorted filters, then knobs. Semantically equal
// expressions share it, and re-preparing it yields the same query.
func (pq *PreparedQuery) Expr() string { return pq.expr }

// Variant returns the pipeline the query selects (CODL unless overridden
// with variant=).
func (pq *PreparedQuery) Variant() string { return pq.variant.String() }

// Node returns the node= knob's value, false when the expression carries
// none (the node then comes from the Discover call).
func (pq *PreparedQuery) Node() (NodeID, bool) { return pq.node, pq.hasNode }

// PredicateHash returns the 16-hex canonical hash of the compound
// predicate, "" for single-attribute (or attribute-free) queries. Queries
// with equal hashes share sample pools and reclustered hierarchies.
func (pq *PreparedQuery) PredicateHash() string {
	if pq.pred == nil {
		return ""
	}
	return pq.pred.Hash()
}

// PredKey returns the query's predicate aggregation key — the stable
// identity query-event digests group by: the 16-hex canonical hash for
// compound predicates, "attr:<id>" for lowered single-attribute queries
// (the key front ends log a Discover query under), and "none" for
// attribute-free (codu) queries.
func (pq *PreparedQuery) PredKey() string {
	switch {
	case pq.pred != nil:
		return pq.pred.Hash()
	case pq.variant == engine.VariantCODU:
		return "none"
	default:
		return "attr:" + strconv.Itoa(int(pq.attr))
	}
}

// lower is the one lowering of a prepared query that Discover, the batch
// and replay share: the engine spec for node q — overridden by the
// expression's node= knob — with its validation error.
func (pq *PreparedQuery) lower(q NodeID) (engine.Spec, error) {
	if pq.hasNode {
		q = pq.node
	}
	return engine.Spec{Variant: pq.variant, Q: q, Attr: pq.attr, Pred: pq.pred,
		Filters: pq.filters, K: pq.k, Adaptive: pq.adaptive}, pq.c.g.validate(q, pq.attr)
}

// DiscoverCtx answers the prepared query for node q (overridden by the
// expression's node= knob when present), with the same validation,
// cancellation and determinism contract as DiscoverCtx on the searcher. A
// prepared single-attribute CODL query with no filters or knobs is
// byte-identical — trace IDs included — to Discover.
func (pq *PreparedQuery) DiscoverCtx(ctx context.Context, q NodeID) (Community, error) {
	sp, err := pq.lower(q)
	return pq.c.discover(ctx, sp, err)
}

// Discover is DiscoverCtx without cancellation.
func (pq *PreparedQuery) Discover(q NodeID) (Community, error) {
	return pq.DiscoverCtx(context.Background(), q)
}
