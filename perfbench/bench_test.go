package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/codsearch/cod/internal/graph"
	"github.com/codsearch/cod/internal/query"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // 10 beyond
		{999, 0.99, false}, // 9 beyond
		{1200, 0.99, true},
		{150, 0.90, true},  // 15 beyond
		{150, 0.95, false}, // 7 beyond
		{19, 0.5, false},   // 9 beyond
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %t, want %t (beyond %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1200, 0.99}, {1000, 0.99}, {400, 0.95}, {150, 0.90}, {40, 0.75}, {20, 0.50}, {5, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.P50 != 2 || s.TailP != 0 || s.Max != 3 {
		t.Errorf("summarize of 3 samples = %+v, want n=3 p50=2 no tail max=3", s)
	}
}

// pathGraph is 0-1-2-3-4-5 plus the chord 0-2.
func pathGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6, 1)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func filtersOf(t *testing.T, expr string) []query.Filter {
	t.Helper()
	p, err := query.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p.Filters
}

func TestCheckerRejectsDoctoredCommunities(t *testing.T) {
	g := pathGraph(t)
	q := benchQuery{Node: 1, Filters: filtersOf(t, "0 and size>=3 and density>=0.9")}
	good := answer{Found: true, Rank: 2, Size: 3, Nodes: []int32{0, 1, 2}}
	if bad := checkAnswer(g, q, good, 5); bad != "" {
		t.Fatalf("valid answer rejected: %s", bad)
	}
	if bad := checkAnswer(g, q, answer{}, 5); bad != "" {
		t.Fatalf("not-found answer rejected: %s", bad)
	}
	for name, a := range map[string]answer{
		"q missing":         {Found: true, Rank: 1, Size: 3, Nodes: []int32{2, 3, 4}},
		"rank above k":      {Found: true, Rank: 6, Size: 3, Nodes: []int32{0, 1, 2}},
		"rank zero":         {Found: true, Rank: 0, Size: 3, Nodes: []int32{0, 1, 2}},
		"size filter":       {Found: true, Rank: 1, Size: 2, Nodes: []int32{0, 1}},
		"density filter":    {Found: true, Rank: 1, Size: 4, Nodes: []int32{0, 1, 2, 3}},
		"unsorted":          {Found: true, Rank: 1, Size: 3, Nodes: []int32{1, 0, 2}},
		"duplicate":         {Found: true, Rank: 1, Size: 3, Nodes: []int32{1, 1, 2}},
		"out of range":      {Found: true, Rank: 1, Size: 3, Nodes: []int32{0, 1, 9}},
		"size mismatch":     {Found: true, Rank: 1, Size: 4, Nodes: []int32{0, 1, 2}},
		"not found w/ node": {Found: false, Size: 1, Nodes: []int32{1}},
	} {
		if bad := checkAnswer(g, q, a, 5); bad == "" {
			t.Errorf("%s: doctored answer %+v accepted", name, a)
		}
	}
	// A served answer without nodes is checked by its reported measures.
	served := answer{Found: true, Rank: 1, Size: 1200, Density: 0.5}
	if bad := checkAnswer(g, q, served, 5); bad == "" {
		t.Error("served answer larger than the graph accepted")
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a := answer{Found: true, Rank: 1, Nodes: []int32{1, 2}}
	b := answer{Found: true, Rank: 2, Nodes: []int32{1, 2}}
	d1, d2, d3 := newDigest(), newDigest(), newDigest()
	d1.add(a)
	d1.add(b)
	d2.add(a)
	d2.add(b)
	d3.add(b)
	d3.add(a)
	if d1.String() != d2.String() {
		t.Errorf("equal answers digest differently: %s vs %s", d1, d2)
	}
	if d1.String() == d3.String() {
		t.Errorf("reordered answers digest equally: %s", d1)
	}
}

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	a := poissonSchedule(7, 80, 2000)
	b := poissonSchedule(7, 80, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 80, 2000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back at %d", i)
		}
	}
	// 2000 arrivals at 80/s take about 25 s.
	if got := a[len(a)-1]; got < 22*time.Second || got > 28*time.Second {
		t.Errorf("2000 arrivals at 80/s end at %v, want about 25s", got)
	}
}

func TestQuotas(t *testing.T) {
	for _, c := range []struct {
		total  int
		shares []float64
		want   []int
	}{
		{100, []float64{0.6, 0.3, 0.1}, []int{60, 30, 10}},
		{150, []float64{0.7, 0.2, 0.1, 0}, []int{105, 30, 15, 0}},
		{10, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, []int{4, 3, 3}},
	} {
		if got := quotas(c.total, c.shares); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quotas(%d, %v) = %v, want %v", c.total, c.shares, got, c.want)
		}
	}
}

func TestStrideSpreadsOverTheList(t *testing.T) {
	got := stride(300, 40)
	if len(got) != 40 || got[0] != 0 || got[39] >= 300 {
		t.Fatalf("stride(300, 40) = %v", got)
	}
	for k := 1; k < len(got); k++ {
		if d := got[k] - got[k-1]; d < 7 || d > 8 {
			t.Fatalf("stride(300, 40) steps by %d at %d: %v", d, k, got)
		}
	}
	if got := stride(5, 9); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("stride(5, 9) = %v, want every index", got)
	}
}

func TestGeneratorIsDeterministicAndStratified(t *testing.T) {
	ctx := context.Background()
	def := workloads["serve-cora"]
	draw := func(seed uint64) []benchQuery {
		gen, err := newGenerator(ctx, def, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen.block(100)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := draw(3), draw(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different blocks")
	}
	if reflect.DeepEqual(a, draw(4)) {
		t.Fatal("different seeds drew the same block")
	}
	kinds := map[string]int{}
	classes := map[string][2]int{}
	for _, q := range a {
		kinds[q.Kind]++
		c := classes[q.Kind]
		c[q.Class]++
		classes[q.Kind] = c
	}
	if want := map[string]int{kindLegacy: 60, kindCompound: 30, kindAdaptive: 10}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("block kinds %v, want %v", kinds, want)
	}
	for _, m := range def.mix {
		want := quotas(kinds[m.kind], def.classShares)
		if got := classes[m.kind]; got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s strata %v, want %v", m.kind, got, want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names must match.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesWhatThisPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined here", w.Name)
		}
	}
	if want := []string{"serve-cora", "variants-cora"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v (batch-dblp is run by hand)", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Paths) != 1 || bj.Paths[0] != "perfbench" {
		t.Errorf("BENCHMARK.json paths %v, want [perfbench]", bj.Paths)
	}
	if want := []string{"bash", "perfbench/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("BENCHMARK.json command %v, want %v", bj.Command, want)
	}
	if _, err := recordedDigest("batch-dblp"); err != nil {
		t.Error(err)
	}
}
