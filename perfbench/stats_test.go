package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileUsesP99WithTenBeyond(t *testing.T) {
	// 2000 samples: p99 is rank 1980, with 20 samples beyond it.
	v, p := tailPercentile(seq(2000))
	if v != 1980 || p != 99 {
		t.Fatalf("got %v at p%v, want 1980 at p99", v, p)
	}
	// 1000 samples: p99 is rank 990, exactly ten beyond — still p99.
	if v, p := tailPercentile(seq(1000)); v != 990 || p != 99 {
		t.Fatalf("got %v at p%v, want 990 at p99", v, p)
	}
}

func TestTailPercentileFallsBackToTenBeyond(t *testing.T) {
	// 200 samples: p99 (rank 198) has only 2 beyond, so the highest
	// percentile with ten beyond is rank 190 (p95).
	v, p := tailPercentile(seq(200))
	if v != 190 || p != 95 {
		t.Fatalf("got %v at p%v, want 190 at p95", v, p)
	}
	// Order of the input does not matter.
	xs := seq(200)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	if v2, _ := tailPercentile(xs); v2 != v {
		t.Fatalf("shuffled input gave %v, want %v", v2, v)
	}
	// Eleven samples leave exactly one rank with ten beyond it.
	if v, _ := tailPercentile(seq(11)); v != 1 {
		t.Fatalf("11 samples: got %v, want 1", v)
	}
}

func TestTailPercentileShortSampleIsMax(t *testing.T) {
	if v, p := tailPercentile([]float64{3, 9, 4}); v != 9 || p != 100 {
		t.Fatalf("got %v at p%v, want the maximum 9 at p100", v, p)
	}
	if v, _ := tailPercentile(nil); v != 0 {
		t.Fatalf("empty sample: got %v, want 0", v)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := geomean([]float64{1, 10, 100}); math.Abs(g-10) > 1e-12 {
		t.Fatalf("geomean(1,10,100) = %v, want 10", g)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if g := geomean(bad); g != 0 {
			t.Fatalf("geomean(%v) = %v, want 0", bad, g)
		}
	}
}

func TestQuantilesAndSummary(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestBootstrapRatioCI(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	num := []float64{1.1, 1.0, 1.2, 1.05, 1.15, 0.95, 1.1, 1.0}
	den := []float64{1.0, 0.9, 1.1, 1.0, 0.95, 1.05, 1.0, 0.98}
	lo, hi := bootstrapRatioCI(num, den, 2000, r)
	point := median(num) / median(den)
	if !(lo <= point && point <= hi) {
		t.Fatalf("interval [%v, %v] does not contain the point estimate %v", lo, hi, point)
	}
	if hi-lo <= 0 || hi-lo > 0.5 {
		t.Fatalf("interval [%v, %v] has implausible width", lo, hi)
	}
	// Identical constant samples give a degenerate interval at the ratio.
	lo, hi = bootstrapRatioCI([]float64{2, 2, 2}, []float64{4, 4}, 100, r)
	if lo != 0.5 || hi != 0.5 {
		t.Fatalf("constant samples: [%v, %v], want [0.5, 0.5]", lo, hi)
	}
	// The same seed reproduces the same interval.
	a1, b1 := bootstrapRatioCI(num, den, 500, rand.New(rand.NewPCG(3, 3)))
	a2, b2 := bootstrapRatioCI(num, den, 500, rand.New(rand.NewPCG(3, 3)))
	if a1 != a2 || b1 != b2 {
		t.Fatal("bootstrap is not reproducible for a fixed seed")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a tally
	a.add("ok", nil)
	a.add("bad", errors.New("boom"))
	a.add("ok", nil)
	if a.attempted != 3 || a.failed != 1 {
		t.Fatalf("tally = %+v", a)
	}
	if got := a.share(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("share = %v, want 1/3", got)
	}
	var b tally
	for i := 0; i < 2*maxFailureMsgs; i++ {
		b.add("x", errors.New("e"))
	}
	a.merge(b)
	if a.attempted != 3+2*maxFailureMsgs || a.failed != 1+2*maxFailureMsgs {
		t.Fatalf("merged tally = %d/%d", a.failed, a.attempted)
	}
	if len(a.msgs) != maxFailureMsgs {
		t.Fatalf("kept %d messages, want %d", len(a.msgs), maxFailureMsgs)
	}
	var empty tally
	if empty.share() != 0 {
		t.Fatal("empty tally share must be 0")
	}
}

// TestReportFailsOnFailedCheck pins the result line: a failed validation
// makes "correct" false and is counted.
func TestReportFailsOnFailedCheck(t *testing.T) {
	res := newResult()
	res.checks.add("k", errors.New("wrong"))
	res.checks.add("k", nil)
	defs := []metricDef{{"m", "s"}}
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := report(f, res, map[string]value{"m": single(1.5, 1)}, defs); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(f.Name())
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 2 || got.Failed != 1 || got.Metrics["m"].Value != 1.5 {
		t.Fatalf("result line = %+v", got)
	}
	if err := report(f, res, map[string]value{}, defs); err == nil {
		t.Fatal("a missing metric must be an error")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// catalogue in step: same names, same units, same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workload), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workload[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workload[i].Name, w.name)
		}
	}
}
