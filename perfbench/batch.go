package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/codsearch/cod"
)

// List sizes of the DiscoverBatch workloads and of variants-cora's
// latency phase.
const (
	dblpList        = 300
	dblpWarm        = 10
	variantsList    = 400
	variantsLatency = 1500
	minPasses       = 3
	maxPasses       = 1000
)

// rankBound is the k every workload queries with (the paper's default).
const rankBound = 5

// searcherOptions returns the Options every Searcher of the run uses.
func searcherOptions(cfg *config) cod.Options {
	o := cod.Options{K: rankBound, Theta: 10, Seed: cfg.seed, Workers: cfg.nproc}
	if cfg.workload == "variants-cora" {
		// Room for every predicate key the list can hold: 7 attributes plus
		// 21 unordered pairs, so after warm-up no pool is ever evicted.
		o.SampleCache = 32
		o.CacheHierarchies = true
	}
	return o
}

// batchList draws the workload's fixed list, the queries its latency phase
// answers, and its warm-up set. batch-dblp's latency phase answers its list;
// variants-cora's answers a list of its own, 1500 queries drawn like the
// first, so its median rests on more distinct queries than the 400 a pass
// holds.
func batchList(ctx context.Context, cfg *config) (list, latency, warm []benchQuery, err error) {
	gen, err := newGenerator(ctx, cfg.def, cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	size := dblpList
	if cfg.workload == "variants-cora" {
		size = variantsList
	}
	if list, err = gen.block(size); err != nil {
		return nil, nil, nil, err
	}
	// Largest C_ℓ first, so a pass ends on the cheapest queries and both
	// workers finish together. Shuffled, a 2 s giant query drawn near the
	// end of a dblp list leaves the other worker idle for up to a quarter
	// of the pass, and where the draw put it moves qps by more than most
	// program changes would.
	sort.SliceStable(list, func(i, j int) bool { return list[i].Class > list[j].Class })
	latency = list
	if cfg.workload == "variants-cora" {
		if latency, err = gen.block(variantsLatency); err != nil {
			return nil, nil, nil, err
		}
	}
	all := append(append([]benchQuery(nil), list...), latency...)
	if warm, err = warmSet(cfg, gen, all); err != nil {
		return nil, nil, nil, err
	}
	return list, latency, warm, nil
}

// warmSet is the fixed warm-up of the run's queries. On variants-cora it is
// one query per predicate key they touch, a CODR one where the key has any, so
// it fills every sample pool and reclustered hierarchy the run uses; on
// batch-dblp it is a few queries of the smallest stratum, which fill the
// scratch pools at a small, steady cost.
func warmSet(cfg *config, gen *generator, list []benchQuery) ([]benchQuery, error) {
	if cfg.workload != "variants-cora" {
		return gen.smallBlock(dblpWarm)
	}
	pick := map[string]int{}
	var keys []string
	for i, q := range list {
		j, ok := pick[q.Key]
		if !ok {
			keys = append(keys, q.Key)
		}
		if !ok || (list[j].Kind != kindCODR && q.Kind == kindCODR) {
			pick[q.Key] = i
		}
	}
	out := make([]benchQuery, len(keys))
	for i, k := range keys {
		out[i] = list[pick[k]]
	}
	return out, nil
}

func toCodQueries(list []benchQuery) []cod.Query {
	out := make([]cod.Query, len(list))
	for i, q := range list {
		out[i] = cod.Query{Node: q.Node, Attr: q.Attr, Expr: q.Expr}
	}
	return out
}

func fromCommunity(c cod.Community) answer {
	return answer{Found: c.Found, FromIndex: c.FromIndex, Rank: c.Rank, Size: c.Size(), Nodes: c.Nodes}
}

// setupBatch is one timed set-up: generate the dataset, run the offline
// build, and run the warm-up batch.
func setupBatch(ctx context.Context, cfg *config, warm []cod.Query) (*cod.Searcher, float64, error) {
	start := time.Now()
	g, err := cod.GenerateDataset(cfg.def.dataset, datasetSeed)
	if err != nil {
		return nil, 0, err
	}
	s, err := cod.NewSearcherCtx(ctx, g, searcherOptions(cfg))
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(ctx, cfg, s, warm); err != nil {
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

// warmUp runs the warm-up batch; any query error aborts the run.
func warmUp(ctx context.Context, cfg *config, s *cod.Searcher, warm []cod.Query) error {
	for _, r := range s.DiscoverBatchCtx(ctx, warm, cfg.nproc) {
		if r.Err != nil {
			return fmt.Errorf("warm-up query %+v: %w", r.Query, r.Err)
		}
	}
	return nil
}

// setupRepeated sets the workload up as moreSetups asks and keeps the last
// Searcher; it returns each set-up's time.
func setupRepeated(ctx context.Context, cfg *config, warm []cod.Query) (*cod.Searcher, []float64, error) {
	var (
		s     *cod.Searcher
		times []float64
	)
	for moreSetups(times) {
		s = nil
		runtime.GC() // drop the previous rep's Searcher before timing the next
		var (
			secs float64
			err  error
		)
		s, secs, err = setupBatch(ctx, cfg, warm)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs)
	}
	return s, times, nil
}

// capacityPasses runs DiscoverBatch over the list with nproc workers until
// the phase has lasted cfg.seconds (and at least minPasses passes). Every
// answer of the first pass is checked and digested; every later pass must
// repeat the first exactly. It returns the qps of each pass.
func capacityPasses(ctx context.Context, cfg *config, t *tally, s *cod.Searcher, list []benchQuery) ([]float64, string, error) {
	queries := toCodQueries(list)
	g := s.Engine().Graph()
	first := make([]answer, len(list))
	d := newDigest()
	var qps []float64
	start := time.Now()
	for pass := 0; pass < maxPasses && (pass < minPasses || time.Since(start).Seconds() < cfg.seconds); pass++ {
		t0 := time.Now()
		res := s.DiscoverBatchCtx(ctx, queries, cfg.nproc)
		qps = append(qps, float64(len(queries))/time.Since(t0).Seconds())
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		for i, r := range res {
			if r.Err != nil {
				t.fail(fmt.Sprintf("query %d (%s %q node %d): %v", i, list[i].Kind, list[i].Expr, list[i].Node, r.Err))
				continue
			}
			a := fromCommunity(r.Community)
			if pass == 0 {
				first[i] = a
				d.add(a)
				t.check(checkAnswer(g, list[i], a, rankBound))
				continue
			}
			if !sameAnswer(a, first[i]) {
				t.fail(fmt.Sprintf("pass %d query %d answered differently from pass 1", pass+1, i))
				continue
			}
			t.ok()
		}
	}
	return qps, d.String(), nil
}

// prepareAll prepares every query's expression once (the legacy form as its
// attribute id, which lowers to the legacy single-attribute query).
func prepareAll(s *cod.Searcher, list []benchQuery) ([]*cod.PreparedQuery, error) {
	cache := map[string]*cod.PreparedQuery{}
	out := make([]*cod.PreparedQuery, len(list))
	for i, q := range list {
		expr := q.Expr
		if expr == "" {
			expr = strconv.Itoa(int(q.Attr))
		}
		pq, ok := cache[expr]
		if !ok {
			var err error
			if pq, err = s.Prepare(expr); err != nil {
				return nil, fmt.Errorf("preparing %q: %w", expr, err)
			}
			cache[expr] = pq
		}
		out[i] = pq
	}
	return out, nil
}

// latencyPhase answers every query of the list through Searcher.Prepare and
// PreparedQuery.DiscoverCtx from nproc callers, each waiting for its reply
// before taking the next query, and returns each query's latency in
// milliseconds. The answers are checked after the phase.
func latencyPhase(ctx context.Context, cfg *config, t *tally, s *cod.Searcher, list []benchQuery) ([]float64, error) {
	pqs, err := prepareAll(s, list)
	if err != nil {
		return nil, err
	}
	n := len(list)
	lat := make([]float64, n)
	coms := make([]cod.Community, n)
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < cfg.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				coms[i], errs[i] = pqs[i].DiscoverCtx(ctx, list[i].Node)
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := s.Engine().Graph()
	for i := range lat {
		if errs[i] != nil {
			t.fail(fmt.Sprintf("latency query %d: %v", i, errs[i]))
			continue
		}
		t.check(checkAnswer(g, list[i], fromCommunity(coms[i]), rankBound))
	}
	return lat, nil
}

// liveHeapMiB forces two collections and returns the live heap, keeping
// keep reachable until the reading is taken. The second collection drops
// what sync.Pool keeps for one cycle, without which the reading flips by
// the size of the pooled scratch arenas from one run to the next.
func liveHeapMiB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runBatch is the timed run of batch-dblp and variants-cora.
func runBatch(ctx context.Context, cfg *config, t *tally) (metrics, []string, error) {
	list, latList, warm, err := batchList(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	s, setups, err := setupRepeated(ctx, cfg, toCodQueries(warm))
	if err != nil {
		return nil, nil, err
	}
	// Each timed phase starts from a collected heap, so garbage the previous
	// phase left does not bill its collection to the next.
	runtime.GC()
	qps, dig, err := capacityPasses(ctx, cfg, t, s, list)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	lat, err := latencyPhase(ctx, cfg, t, s, latList)
	if err != nil {
		return nil, nil, err
	}
	heap := liveHeapMiB(s)
	ls := summarize(lat)
	notes := []string{
		fmt.Sprintf("list %d queries %v, warm-up %d", len(list), kindCounts(list), len(warm)),
		fmt.Sprintf("setup_s per set-up %s", fmtFloats(setups, 3)),
		fmt.Sprintf("capacity: %d passes of DiscoverBatch with %d workers, qps per pass %s", len(qps), cfg.nproc, fmtFloats(qps, 1)),
		fmt.Sprintf("latency: %d queries from %d callers, p50 %.4g ms, tail p%g %.4g ms (%d samples beyond), max %.4g ms",
			ls.N, cfg.nproc, ls.P50, ls.TailP*100, ls.Tail, beyond(ls.N, ls.TailP), ls.Max),
	}
	if err := checkDigest(cfg, t, dig, &notes); err != nil {
		return nil, nil, err
	}
	return metrics{
		"setup_s": median(setups),
		"qps":     median(qps),
		"p50_ms":  ls.P50,
		"tail_ms": ls.Tail,
		"heap_mb": heap,
	}, notes, nil
}

// kindCounts renders the number of queries of each kind.
func kindCounts(list []benchQuery) string {
	counts := map[string]int{}
	for _, q := range list {
		counts[q.Kind]++
	}
	var b []byte
	for i, k := range sortedKeys(counts) {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", k, counts[k])...)
	}
	return string(b)
}

// fmtFloats renders xs with prec decimals.
func fmtFloats(xs []float64, prec int) string {
	b := []byte{'['}
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	return string(append(b, ']'))
}

// sortedKeys returns m's keys in order (for stable summaries).
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
