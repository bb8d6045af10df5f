package eval

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"testing"
)

// The golden output corpus pins every deterministic result of the
// experiment runners, so a change to how the harness samples, evaluates or
// answers CODL cannot move a figure unnoticed; the shape tests in
// eval_test.go only check ranges. A change that alters outputs on purpose
// regenerates the file with
//
//	go test -run TestGoldenOutputs -update-golden ./internal/eval/
//
// and names the changed cases and the reason in CHANGES.md. Wall-clock
// fields are zeroed before hashing. Averages are hashed as printed floats:
// if a digest ever differs by GOARCH, key the file by GOARCH; never loosen
// the comparison.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_outputs.json from the current code")

const goldenFile = "testdata/golden_outputs.json"

// goldenConfigs are the corpus's datasets. cora runs enough queries that
// several CODL queries miss the index and take the restricted evaluation;
// its Fig. 8 sweep keeps one small θ.
func goldenConfigs() []Config {
	tiny := tinyConfig()
	tiny.Thetas = []int{2, 4}
	small := tiny
	small.Dataset = "small"
	small.NumQueries = 12
	small.Thetas = []int{2}
	cora := Config{Dataset: "cora", Seed: 1, NumQueries: 20, Theta: 4,
		Ks: []int{1, 2, 3, 4, 5}, Thetas: []int{2}, PrecisionSets: 20}
	return []Config{tiny, small, cora}
}

// digest hashes v's %+v rendering; maps print in key order.
func digest(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenOutputs runs every deterministic experiment on every golden config.
func goldenOutputs(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, cfg := range goldenConfigs() {
		key := func(name string) string { return cfg.Dataset + "/" + name }
		eff, err := RunEffectiveness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[key("effectiveness")] = digest(eff)
		deep, err := RunFiveDeepest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[key("five_deepest")] = digest(deep)
		stats, err := RunNetworkStats(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[key("network_stats")] = digest(stats)
		cases, err := RunCaseStudy(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		out[key("case_study")] = digest(cases)
		rows, err := RunCompressedVsIndependent(cfg, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			rows[i].AvgTime = 0
		}
		out[key("compressed_vs_independent")] = digest(rows)
		overhead, err := RunIndexOverhead(cfg)
		if err != nil {
			t.Fatal(err)
		}
		overhead.BuildTime = 0
		out[key("index_overhead")] = digest(overhead)
	}
	return out
}

func TestGoldenOutputs(t *testing.T) {
	got := goldenOutputs(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenFile)
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no golden digest (got %s)", k, got[k])
		} else if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden digest no longer computed", k)
		}
	}
}
