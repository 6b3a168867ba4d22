// Command perfbench is the repository benchmark: one process that runs a
// named workload against the library at team width = the number of CPUs,
// validates every output, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no tool
// installed; with -trace 1 they are the per-layer ones, derived from a
// separate traced phase (see trace.go). Build and run it from the root of
// a checkout through run.sh:
//
//	bash perfbench/run.sh --workload jgf-sync --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and what each layer metric should move are described
// in perfbench/README.md. The process exits 1 when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"aomplib"
)

// value is one reported metric: the headline number plus the quartiles of
// the samples behind it (NaN when the metric is a single count or ratio)
// and how many samples it summarises.
type value struct {
	V, Q1, Q3 float64
	N         int
}

func single(v float64, n int) value { return value{V: v, Q1: math.NaN(), Q3: math.NaN(), N: n} }

func fromSummary(s summary, scale float64) value {
	return value{V: s.Median * scale, Q1: s.Q1 * scale, Q3: s.Q3 * scale, N: s.N}
}

// result is what a workload run hands back for reporting.
type result struct {
	header []string         // run-header lines specific to the workload
	e2e    map[string]value // end-to-end metrics (untraced run)
	layer  map[string]value // per-layer metrics (traced run)
	checks tally            // every validated output
}

func newResult() *result {
	return &result{e2e: map[string]value{}, layer: map[string]value{}}
}

// runConfig is what every workload receives.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	threads  int
	outDir   string
}

type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"jgf-coarse", func(cfg runConfig) (*result, error) { return runJGF(cfg, coarseSuite()) }},
	{"jgf-sync", func(cfg runConfig) (*result, error) { return runJGF(cfg, syncSuite()) }},
	{"tenants", runTenants},
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload to run: jgf-coarse, jgf-sync or tenants")
	seed := flag.Uint64("seed", 1, "workload seed: pass order (jgf-*) or request sizes (tenants)")
	seconds := flag.Int("seconds", 30, "measurement time per phase, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the span file of a traced run")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (jgf-coarse, jgf-sync, tenants), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		workload: wl.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		threads:  runtime.NumCPU(),
		outDir:   *outDir,
	}
	printHeader(os.Stdout, cfg, wl.name)
	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, l := range res.header {
		fmt.Printf("# %s\n", l)
	}
	metrics := res.e2e
	defs := endToEndDefs
	if cfg.trace {
		metrics, defs = res.layer, perLayerDefs()
	}
	if err := report(os.Stdout, res, metrics, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.checks.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: validation failures: %s\n", res.checks.String())
		return 1
	}
	return 0
}

// printHeader records what the numbers depend on.
func printHeader(w io.Writer, cfg runConfig, name string) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%.0f trace=%v\n",
		name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d team_width=%d cpu=%q go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.threads, cpuModel(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# source=%s hot_teams=%v default_schedule=%s nested=%v\n",
		sourceID(), aomplib.HotTeamsEnabled(), aomplib.DefaultSchedule(), aomplib.NestedEnabled())
}

// report prints every metric of defs as a human-readable line and then the
// final JSON line. A metric the run did not produce is an error: the
// reported set must match BENCHMARK.json exactly.
func report(w io.Writer, res *result, metrics map[string]value, defs []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not produced", d.name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", d.name, v.V)
		}
		spread := ""
		if !math.IsNaN(v.Q1) {
			spread = fmt.Sprintf("  q1=%.6g q3=%.6g", v.Q1, v.Q3)
		}
		fmt.Fprintf(w, "%-36s %14.6g %-8s n=%d%s\n", d.name, v.V, d.unit, v.N, spread)
		out[d.name] = jsonMetric{Value: v.V, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.checks.failed == 0, res.checks.attempted, res.checks.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the processor name the kernel reports, if it can.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
