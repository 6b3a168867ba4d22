package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"aomplib"
	"aomplib/internal/jgf/crypt"
	"aomplib/internal/jgf/harness"
	"aomplib/internal/jgf/lufact"
	"aomplib/internal/jgf/moldyn"
	"aomplib/internal/jgf/montecarlo"
	"aomplib/internal/jgf/raytracer"
	"aomplib/internal/jgf/series"
	"aomplib/internal/jgf/sor"
	"aomplib/internal/jgf/sparse"
)

// version is one implementation of a kernel.
type version struct {
	v    harness.Version
	make func(threads int) harness.Instance
}

// kernelSpec is one JGF kernel of a suite, always at JGF size A. passes is
// how many passes of each version one round holds: kernels whose size-A
// pass is short repeat within a round so they collect enough samples.
type kernelSpec struct {
	name     string
	passes   int
	versions []version
}

// coarseSuite holds the kernels whose Aomp pass enters about one region
// and crosses at most two barriers: the kernel bodies do the work.
func coarseSuite() []kernelSpec {
	return []kernelSpec{
		{name: "Crypt", passes: 2, versions: []version{
			{harness.Seq, func(int) harness.Instance { return crypt.NewSeq(crypt.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return crypt.NewMT(crypt.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return crypt.NewAomp(crypt.SizeA, t) }},
		}},
		{name: "Series", passes: 1, versions: []version{
			{harness.Seq, func(int) harness.Instance { return series.NewSeq(series.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return series.NewMT(series.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return series.NewAomp(series.SizeA, t) }},
			{harness.Par, func(t int) harness.Instance { return series.NewParallel(series.SizeA, t) }},
		}},
		{name: "MonteCarlo", passes: 2, versions: []version{
			{harness.Seq, func(int) harness.Instance { return montecarlo.NewSeq(montecarlo.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return montecarlo.NewMT(montecarlo.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return montecarlo.NewAomp(montecarlo.SizeA, t) }},
		}},
		{name: "Sparse", passes: 2, versions: []version{
			{harness.Seq, func(int) harness.Instance { return sparse.NewSeq(sparse.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return sparse.NewMT(sparse.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return sparse.NewAomp(sparse.SizeA, t) }},
		}},
		{name: "RayTracer", passes: 6, versions: []version{
			{harness.Seq, func(int) harness.Instance { return raytracer.NewSeq(raytracer.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return raytracer.NewMT(raytracer.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return raytracer.NewAomp(raytracer.SizeA, t) }},
		}},
	}
}

// syncSuite holds the kernels whose Aomp pass crosses thousands of
// barriers and enters many regions, and the two dataflow ports.
func syncSuite() []kernelSpec {
	return []kernelSpec{
		{name: "LUFact", passes: 3, versions: []version{
			{harness.Seq, func(int) harness.Instance { return lufact.NewSeq(lufact.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return lufact.NewMT(lufact.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return lufact.NewAomp(lufact.SizeA, t) }},
			{harness.AompDep, func(t int) harness.Instance { return lufact.NewAompDep(lufact.SizeA, t) }},
		}},
		{name: "SOR", passes: 1, versions: []version{
			{harness.Seq, func(int) harness.Instance { return sor.NewSeq(sor.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return sor.NewMT(sor.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance { return sor.NewAomp(sor.SizeA, t) }},
			{harness.AompDep, func(t int) harness.Instance { return sor.NewAompDep(sor.SizeA, t) }},
			{harness.Par, func(t int) harness.Instance { return sor.NewParallel(sor.SizeA, t) }},
		}},
		{name: "MolDyn", passes: 1, versions: []version{
			{harness.Seq, func(int) harness.Instance { return moldyn.NewSeq(moldyn.SizeA) }},
			{harness.MT, func(t int) harness.Instance { return moldyn.NewMT(moldyn.SizeA, t) }},
			{harness.Aomp, func(t int) harness.Instance {
				return moldyn.NewAomp(moldyn.SizeA, t, moldyn.ThreadLocalStrategy)
			}},
		}},
	}
}

// instance is one (kernel, version) pair with the samples of each phase.
type instance struct {
	kernel string
	v      harness.Version
	passes int
	in     harness.Instance
	secs   []float64 // untraced kernel seconds
	cpu    []float64 // untraced process CPU seconds per pass
	traced []float64 // kernel seconds in the traced phase
}

func (i *instance) label() string { return i.kernel + "/" + string(i.v) }

// setupJGF builds every instance of the suite, runs its Setup (data
// generation and, for the woven versions, weaving) and warms the hot-team
// pool from cold. It returns the instances and the seconds it took.
func setupJGF(suite []kernelSpec, threads int) ([]*instance, float64) {
	start := time.Now()
	var insts []*instance
	for _, k := range suite {
		for _, v := range k.versions {
			in := v.make(threads)
			in.Setup()
			insts = append(insts, &instance{kernel: k.name, v: v.v, passes: k.passes, in: in})
		}
	}
	coldRegion(threads)
	return insts, time.Since(start).Seconds()
}

// coldRegion drains the hot-team pool and enters one woven region, so the
// team a workload's first pass would spawn is spawned inside set-up.
func coldRegion(threads int) {
	aomplib.SetHotTeams(false)
	aomplib.SetHotTeams(true)
	p := aomplib.NewProgram("warm")
	f := p.Class("Warm").Proc("region", func() {})
	p.Use(aomplib.ParallelRegion("call(* Warm.region(..))").Threads(threads))
	p.MustWeave()
	f()
}

// A run sets up several times so setup_s can be a median: at least
// minSetups times and until setupBudget of set-up time has accumulated,
// at most maxSetups times. Cheap set-ups thus get more repeats.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// repeatSetup calls setup, which returns its own duration in seconds, as
// the constants above say, collecting garbage between calls, and returns
// the durations.
func repeatSetup(setup func() float64) []float64 {
	var secs []float64
	total := 0.0
	for len(secs) < minSetups || (total < setupBudget.Seconds() && len(secs) < maxSetups) {
		s := setup()
		secs = append(secs, s)
		total += s
		runtime.GC()
	}
	return secs
}

// pass runs one pass of inst: an untimed Setup (fresh input, as JGF does
// per repetition, and the weave for woven versions) and collection, the
// timed Kernel, and Validate. It returns kernel wall seconds and the
// process CPU seconds spent meanwhile. With tr set, the pass and its three
// steps are recorded as spans.
func pass(inst *instance, checks *tally, tr *tracer) (secs, cpu float64) {
	var t0, t1, t2 int64
	if tr != nil {
		t0 = tr.now()
	}
	inst.in.Setup()
	runtime.GC()
	if tr != nil {
		t1 = tr.now()
	}
	c0 := cpuTime()
	start := time.Now()
	inst.in.Kernel()
	secs = time.Since(start).Seconds()
	cpu = (cpuTime() - c0).Seconds()
	if tr != nil {
		t2 = tr.now()
	}
	checks.add(inst.label(), inst.in.Validate())
	if tr != nil {
		id, end := tr.newID(), tr.now()
		tr.span(0, tr.newID(), id, "Setup+weave", t0, t1)
		tr.span(0, tr.newID(), id, "Kernel", t1, t2)
		tr.span(0, tr.newID(), id, "Validate", t2, end)
		tr.span(0, id, 0, "pass "+inst.label(), t0, end)
	}
	return secs, cpu
}

// roundOrder is one round: every instance inst.passes times, shuffled by
// the workload seed.
func roundOrder(insts []*instance, r *rand.Rand) []*instance {
	var order []*instance
	for _, in := range insts {
		for p := 0; p < in.passes; p++ {
			order = append(order, in)
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// measureJGF runs seeded rounds of passes until d has elapsed and returns
// the number of passes. The first round always completes, so every
// instance has at least one sample. With tr set, every pass is recorded as
// a span and stored as a traced sample; the phase also ends when the trace
// buffer is nearly full.
func measureJGF(insts []*instance, d time.Duration, r *rand.Rand, checks *tally, tr *tracer) int {
	deadline := time.Now().Add(d)
	n := 0
	for round := 0; ; round++ {
		for _, in := range roundOrder(insts, r) {
			if round > 0 && (time.Now().After(deadline) || (tr != nil && tr.nearlyFull())) {
				return n
			}
			secs, cpu := pass(in, checks, tr)
			if tr == nil {
				in.secs = append(in.secs, secs)
				in.cpu = append(in.cpu, cpu)
			} else {
				in.traced = append(in.traced, secs)
			}
			n++
		}
	}
}

func runJGF(cfg runConfig, suite []kernelSpec) (*result, error) {
	res := newResult()
	for _, k := range suite {
		res.header = append(res.header, fmt.Sprintf("kernel %s size=A passes_per_round=%d versions=%d",
			k.name, k.passes, len(k.versions)))
	}
	var insts []*instance
	setups := repeatSetup(func() float64 {
		var secs float64
		insts, secs = setupJGF(suite, cfg.threads)
		return secs
	})
	res.e2e["setup_s"] = fromSummary(summarize(setups), 1)

	r := rand.New(rand.NewPCG(cfg.seed, 0x6a6766))
	warmed := map[*instance]bool{}
	for _, in := range roundOrder(insts, r) { // one untimed warm-up pass each
		if !warmed[in] {
			pass(in, &res.checks, nil)
			warmed[in] = true
		}
	}

	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	cpu0 := cpuTime()
	passes := measureJGF(insts, phase, r, &res.checks, nil)
	res.header = append(res.header, fmt.Sprintf("untraced: %d passes, %.1f s CPU; set-ups took %.3f s",
		passes, (cpuTime()-cpu0).Seconds(), setups))
	for _, in := range insts {
		s, c := summarize(in.secs), summarize(in.cpu)
		res.header = append(res.header, fmt.Sprintf("pass %-22s n=%-3d wall min=%.4f q1=%.4f med=%.4f q3=%.4f s  cpu med=%.4f s",
			in.label(), s.N, slices.Min(in.secs), s.Q1, s.Median, s.Q3, c.Median))
	}

	byKernel := map[string]map[harness.Version]*instance{}
	var kernels []string
	for _, in := range insts {
		if byKernel[in.kernel] == nil {
			byKernel[in.kernel] = map[harness.Version]*instance{}
			kernels = append(kernels, in.kernel)
		}
		byKernel[in.kernel][in.v] = in
	}
	res.e2e["aomp_s"] = versionGeomean(kernels, byKernel, harness.Aomp)
	var cpuMeds []float64
	n := 0
	for _, in := range insts {
		cpuMeds = append(cpuMeds, median(in.cpu))
		n += len(in.cpu)
	}
	res.e2e["cpu_per_op_ms"] = single(geomean(cpuMeds)*1e3, n)
	if !cfg.trace {
		return res, nil
	}

	kernelLayer(res.layer, kernels, byKernel, cfg)
	tr := startTracer()
	traced := measureJGF(insts, phase, r, &res.checks, tr)
	tr.stop()
	var overhead []float64
	for _, k := range kernels {
		if in := byKernel[k][harness.Aomp]; in != nil {
			overhead = append(overhead, median(in.traced)/median(in.secs))
		}
	}
	res.layer["obs.trace_overhead"] = single(geomean(overhead), traced)
	libraryPasses := 0 // Seq and JGF-MT passes make no runtime events
	for _, in := range insts {
		if in.v != harness.Seq && in.v != harness.MT {
			libraryPasses += len(in.traced)
		}
	}
	res.header = append(res.header, tr.derive(res.layer, libraryPasses, nil)...)
	if err := tr.write(cfg); err != nil {
		return nil, err
	}
	probes(res.layer, cfg.threads)
	res.layer["failed_share"] = single(res.checks.share(), res.checks.attempted)
	zeroLayer(res.layer)
	return res, nil
}

// versionGeomean is the geometric mean over kernels of the median
// untraced seconds of version v. Its quartiles are the geometric means of
// the per-kernel quartiles.
func versionGeomean(kernels []string, by map[string]map[harness.Version]*instance, v harness.Version) value {
	var meds, q1s, q3s []float64
	n := 0
	for _, k := range kernels {
		in, ok := by[k][v]
		if !ok {
			continue
		}
		s := summarize(in.secs)
		meds, q1s, q3s = append(meds, s.Median), append(q1s, s.Q1), append(q3s, s.Q3)
		n += s.N
	}
	return value{V: geomean(meds), Q1: geomean(q1s), Q3: geomean(q3s), N: n}
}

// kernelLayer fills the jgf.* metrics and the suite-level ratios from the
// untraced samples.
func kernelLayer(layer map[string]value, kernels []string, by map[string]map[harness.Version]*instance, cfg runConfig) {
	r := rand.New(rand.NewPCG(cfg.seed, 0x626f6f74))
	var ratios []float64
	for _, k := range kernels {
		for v, in := range by[k] {
			layer[versionMetric(k, v)] = fromSummary(summarize(in.secs), 1)
		}
		ao, mt, seq := by[k][harness.Aomp], by[k][harness.MT], by[k][harness.Seq]
		ratio := median(ao.secs) / median(mt.secs)
		ratios = append(ratios, ratio)
		lo, hi := bootstrapRatioCI(ao.secs, mt.secs, 1000, r)
		layer[kernelMetric(k, "aomp_over_mt")] = single(ratio, len(ao.secs)+len(mt.secs))
		layer[kernelMetric(k, "aomp_over_mt.ci_lo")] = single(lo, 1000)
		layer[kernelMetric(k, "aomp_over_mt.ci_hi")] = single(hi, 1000)
		layer[kernelMetric(k, "efficiency")] = single(
			median(seq.secs)/(float64(cfg.threads)*median(ao.secs)), len(seq.secs)+len(ao.secs))
	}
	layer["aomp_over_mt"] = single(geomean(ratios), len(ratios))
	// Seq passes run interleaved with the Aomp ones and do not use the
	// library, so Aomp over Seq cancels the host's speed, which drifts
	// between runs on a shared machine far more than the library's cost.
	var wall, cpu []float64
	for _, k := range kernels {
		ao, seq := by[k][harness.Aomp], by[k][harness.Seq]
		wall = append(wall, median(ao.secs)/median(seq.secs))
		cpu = append(cpu, median(ao.cpu)/median(seq.cpu))
	}
	layer["aomp_over_seq"] = single(geomean(wall), len(wall))
	layer["cpu_over_seq"] = single(geomean(cpu), len(cpu))
	if v := versionGeomean(kernels, by, harness.AompDep); v.N > 0 {
		layer["aomp_df_s"] = v
	}
	if v := versionGeomean(kernels, by, harness.Par); v.N > 0 {
		layer["parallel_s"] = v
	}
}
