package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"aomplib/internal/jgf/harness"
)

// metricDef names one reported metric and its unit. The lists below are
// the single source of the names BENCHMARK.json declares (a test keeps the
// two in step).
type metricDef struct{ name, unit string }

// endToEndDefs are reported by every untraced run, on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"aomp_s", "s"},
	{"cpu_per_op_ms", "ms"},
}

// layerDefs are the per-layer metrics every traced run reports; metrics of
// a layer a workload does not exercise read 0. The jgf.* kernel metrics
// are appended by perLayerDefs.
var layerDefs = []metricDef{
	{"weaver.weave_ms", "ms"},
	{"weaver.call_ns", "ns"},
	{"rt.regions", "1/op"},
	{"rt.region_us.p50", "us"},
	{"rt.region_us.p99", "us"},
	{"rt.lease_hit_ratio", "ratio"},
	{"rt.wake_us.p50", "us"},
	{"rt.wake_us.p99", "us"},
	{"rt.join_us.p50", "us"},
	{"rt.join_us.p99", "us"},
	{"rt.region_entry_ns", "ns"},
	{"rt.barriers", "1/op"},
	{"rt.barrier_wait_us.p50", "us"},
	{"rt.barrier_wait_us.p99", "us"},
	{"rt.barrier_wait_share", "ratio"},
	{"rt.tasks", "1/op"},
	{"rt.task_queue_us.p50", "us"},
	{"rt.task_queue_us.p99", "us"},
	{"rt.steal_success_ratio", "ratio"},
	{"rt.dep_releases", "1/op"},
	{"rt.admit_wait_us.p50", "us"},
	{"rt.admit_wait_us.p99", "us"},
	{"rt.admit_queued_share", "ratio"},
	{"rt.admit_refused", "1/op"},
	{"rt.tenant_enter_exit_ns", "ns"},
	{"rt.idle_cpu_ms", "ms"},
	{"sched.shares", "1/op"},
	{"sched.share_us.p50", "us"},
	{"sched.share_imbalance", "ratio"},
	{"sched.probes_per_steal", "ratio"},
	{"gls.lookup_ns", "ns"},
	{"obs.scrape_us", "us"},
	{"obs.trace_overhead", "ratio"},
	{"parallel.for_dispatch_ns", "ns"},
	{"graph.short_p50_ms", "ms"},
	{"graph.long_p50_ms", "ms"},
	{"aomp_over_seq", "ratio"},
	{"cpu_over_seq", "ratio"},
	{"aomp_over_mt", "ratio"},
	{"aomp_df_s", "s"},
	{"parallel_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"refused_share", "ratio"},
	{"failed_share", "ratio"},
}

// kernelMetric names the jgf.<Kernel>.<suffix> metrics.
func kernelMetric(kernel, suffix string) string { return "jgf." + kernel + "." + suffix }

func versionMetric(kernel string, v harness.Version) string {
	return kernelMetric(kernel, string(v)+"_s")
}

// perLayerDefs is layerDefs plus, for every kernel of both JGF suites, the
// median seconds of each version, Aomp/JGF-MT with its bootstrap interval,
// and the parallel efficiency.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), layerDefs...)
	for _, k := range append(coarseSuite(), syncSuite()...) {
		for _, v := range k.versions {
			defs = append(defs, metricDef{versionMetric(k.name, v.v), "s"})
		}
		defs = append(defs,
			metricDef{kernelMetric(k.name, "aomp_over_mt"), "ratio"},
			metricDef{kernelMetric(k.name, "aomp_over_mt.ci_lo"), "ratio"},
			metricDef{kernelMetric(k.name, "aomp_over_mt.ci_hi"), "ratio"},
			metricDef{kernelMetric(k.name, "efficiency"), "ratio"},
		)
	}
	return defs
}

// zeroLayer fills every per-layer metric the workload left unset with 0:
// that layer or kernel is not exercised by it.
func zeroLayer(layer map[string]value) {
	for _, d := range perLayerDefs() {
		if _, ok := layer[d.name]; !ok {
			layer[d.name] = single(0, 0)
		}
	}
}

// sourceID fingerprints the Go sources and module files under the working
// directory (the checkout root), so a run can be tied to the code it
// measured even where no version-control metadata exists.
func sourceID() string {
	h := sha256.New()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		if _, err := io.Copy(h, f); err != nil {
			return err
		}
		files++
		return nil
	})
	if err != nil || files == 0 {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
