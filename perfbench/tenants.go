package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"aomplib"
	"aomplib/internal/graph"
	"aomplib/internal/jgf/montecarlo"
)

// The tenants workload is a closed loop: one client per CPU, each its own
// tenant, issues a request, waits for it, checks the response and issues
// the next. Every request is one woven Aomp region (PageRank or Monte
// Carlo, as in cmd/loadgen) entered through admission control with one
// lease slot of team width = CPUs, so the clients contend for the same
// pooled team. Half the request kinds are short enough that the per-request
// hops (admission, lease, wake, join) are a visible share of their time.

const (
	// admitTimeout is the queue-wait bound of the timeout policy, far
	// above the longest request, so no request should be refused.
	admitTimeout = 2 * time.Second
	// scrapeEvery is how many requests client 0 issues between scrapes of
	// the metrics registry.
	scrapeEvery = 20
	graphSeed   = 1
	damping     = 0.85
)

// reqKind is one request shape. Each client gets its own instance of every
// kind; the reference output is computed sequentially once per run.
type reqKind struct {
	name string
	long bool
	pr   *prShape
	mc   *montecarlo.Params
}

type prShape struct{ n, avgDeg, iters int }

func requestKinds() []reqKind {
	return []reqKind{
		{name: "pagerank-short", pr: &prShape{n: 1500, avgDeg: 8, iters: 2}},
		{name: "pagerank-long", long: true, pr: &prShape{n: 30_000, avgDeg: 8, iters: 2}},
		{name: "montecarlo-short", mc: &montecarlo.Params{Runs: 60, Steps: 50}},
		{name: "montecarlo-long", long: true, mc: &montecarlo.Params{Runs: 400, Steps: 200}},
	}
}

// request is one client's instance of a kind.
type request struct {
	kind  int
	reset func()       // restore the input (untimed)
	run   func()       // the woven region: the request itself
	check func() error // compare the response with the reference
}

// tenantSetup is everything set-up builds: per-client requests over
// shared read-only graphs.
type tenantSetup struct {
	graphs  map[int]*graph.Graph
	clients [][]*request
}

// reference holds the sequential outputs every response is checked
// against, indexed by kind.
type reference struct {
	ranks [][]float64
	mc    []float64
}

func buildReference(kinds []reqKind, graphs map[int]*graph.Graph) *reference {
	ref := &reference{ranks: make([][]float64, len(kinds)), mc: make([]float64, len(kinds))}
	for i, k := range kinds {
		if k.pr != nil {
			pr := graph.NewPageRank(graphs[k.pr.n], damping, k.pr.iters)
			pr.RunSeq()
			ref.ranks[i] = slices.Clone(pr.Ranks())
		} else {
			mc := montecarlo.New(*k.mc)
			mc.RunPaths(0, k.mc.Runs, 1)
			mc.Average()
			ref.mc[i] = mc.Result()
		}
	}
	return ref
}

func resetRanks(pr *graph.PageRank) {
	r := pr.Ranks()
	for v := range r {
		r[v] = 1 / float64(len(r))
	}
}

// setupTenants generates the graphs, builds and weaves every client's
// requests, and configures admission, the metrics registry and a warm
// pool.
func setupTenants(kinds []reqKind, clients, threads int, ref *reference) *tenantSetup {
	s := &tenantSetup{graphs: map[int]*graph.Graph{}}
	for _, k := range kinds {
		if k.pr != nil && s.graphs[k.pr.n] == nil {
			s.graphs[k.pr.n] = graph.NewPowerLaw(k.pr.n, k.pr.avgDeg, graphSeed)
		}
	}
	for c := 0; c < clients; c++ {
		var reqs []*request
		for i, k := range kinds {
			reqs = append(reqs, newRequest(i, k, s.graphs, threads, ref))
		}
		s.clients = append(s.clients, reqs)
	}
	aomplib.SetPoolSize(threads)
	aomplib.SetAdmissionControl(true)
	aomplib.SetAdmitPolicy(aomplib.AdmitTimeout, admitTimeout)
	aomplib.SetAdmitMaxTeams(1)
	aomplib.EnableMetrics(true)
	coldRegion(threads)
	return s
}

func newRequest(i int, k reqKind, graphs map[int]*graph.Graph, threads int, ref *reference) *request {
	if k.pr != nil {
		pr := graph.NewPageRank(graphs[k.pr.n], damping, k.pr.iters)
		run, _ := graph.BuildAomp(pr, threads, aomplib.Dynamic, 64)
		return &request{
			kind:  i,
			run:   run,
			reset: func() { resetRanks(pr) },
			check: func() error { return compareRanks(pr.Ranks(), ref.ranks[i]) },
		}
	}
	in := montecarlo.NewAomp(*k.mc, threads)
	in.Setup()
	res := in.(interface{ Result() float64 })
	return &request{
		kind:  i,
		run:   in.Kernel,
		reset: func() {},
		check: func() error {
			if got, want := res.Result(), ref.mc[i]; got != want {
				return fmt.Errorf("montecarlo result %v, sequential %v", got, want)
			}
			return in.Validate()
		},
	}
}

// compareRanks accepts a rank vector within 1e-9 relative of the
// sequential one: the woven version reduces the dangling mass in a
// run-dependent order, so the last bits may differ.
func compareRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(want))
	}
	for v := range got {
		if d := math.Abs(got[v] - want[v]); d > 1e-9*math.Abs(want[v]) || math.IsNaN(got[v]) {
			return fmt.Errorf("pagerank: rank[%d] = %v, sequential %v", v, got[v], want[v])
		}
	}
	return nil
}

// restoreRuntime puts back the defaults setupTenants changed, so the
// layer probes run in the same configuration on every workload.
func restoreRuntime() {
	aomplib.EnableMetrics(false)
	aomplib.SetAdmissionControl(false)
	aomplib.SetAdmitMaxTeams(0)
	aomplib.SetPoolSize(0)
}

// clientLog is what one client records; clients share nothing while the
// loop runs.
type clientLog struct {
	lat     []float64 // request seconds
	long    []bool
	refused int
	scrapes []float64 // µs per WriteMetricsText
	checks  tally
}

// phaseStats merges the client logs of one phase.
type phaseStats struct {
	lat, short, long, scrapes []float64
	refused                   int
	elapsed, cpu              float64
}

func (p *phaseStats) requests() int { return len(p.lat) }

// runClients drives the closed loop for d and returns the merged logs.
func runClients(s *tenantSetup, kinds []reqKind, seed uint64, phase uint64, d time.Duration,
	checks *tally, tr *tracer) phaseStats {
	logs := make([]clientLog, len(s.clients))
	deadline := time.Now().Add(d)
	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, phase<<8|uint64(c)))
			clientLoop(c, s.clients[c], kinds, r, deadline, &logs[c], tr)
		}(c)
	}
	wg.Wait()
	st := phaseStats{elapsed: time.Since(t0).Seconds(), cpu: (cpuTime() - c0).Seconds()}
	for _, l := range logs {
		st.lat = append(st.lat, l.lat...)
		for i, x := range l.lat {
			if l.long[i] {
				st.long = append(st.long, x)
			} else {
				st.short = append(st.short, x)
			}
		}
		st.scrapes = append(st.scrapes, l.scrapes...)
		st.refused += l.refused
		checks.merge(l.checks)
	}
	return st
}

// clientLoop issues requests until the deadline. Request kinds come in
// seeded random order, every kind once per block, so each run issues the
// same mix (half short, half long) in a different order.
func clientLoop(c int, reqs []*request, kinds []reqKind, r *rand.Rand, deadline time.Time,
	log *clientLog, tr *tracer) {
	tenant := fmt.Sprintf("tenant-%d", c)
	var block []int
	var buf bytes.Buffer
	for i := 1; time.Now().Before(deadline) && (tr == nil || !tr.nearlyFull()); i++ {
		if len(block) == 0 {
			block = r.Perm(len(reqs))
		}
		q := reqs[block[0]]
		block = block[1:]
		q.reset()

		var id, start, entered, exitStart int64
		if tr != nil {
			id, start = tr.newID(), tr.now()
		}
		t0 := time.Now()
		tok := aomplib.EnterTenant(tenant)
		if tr != nil {
			entered = tr.now()
		}
		q.run()
		refused := tok.Rejected()+tok.TimedOut() > 0
		if tr != nil {
			exitStart = tr.now()
		}
		tok.Exit()
		lat := time.Since(t0).Seconds()
		if tr != nil {
			end := tr.now()
			tr.span(c, tr.newID(), id, "EnterTenant", start, entered)
			tr.span(c, tr.newID(), id, "Exit", exitStart, end)
			tr.span(c, id, 0, "request "+kinds[q.kind].name, start, end)
		}

		log.lat = append(log.lat, lat)
		log.long = append(log.long, kinds[q.kind].long)
		if refused {
			log.refused++
		}
		log.checks.add(kinds[q.kind].name, q.check())

		if c == 0 && i%scrapeEvery == 0 {
			buf.Reset()
			var s0 int64
			if tr != nil {
				s0 = tr.now()
			}
			t1 := time.Now()
			err := aomplib.WriteMetricsText(&buf)
			log.scrapes = append(log.scrapes, float64(time.Since(t1).Nanoseconds())/1e3)
			if tr != nil {
				tr.span(c, tr.newID(), 0, "scrape", s0, tr.now())
			}
			if err == nil && !strings.Contains(buf.String(), "aomp_tenant_admits_total") {
				err = fmt.Errorf("exposition has no tenant admission counters")
			}
			log.checks.add("scrape", err)
		}
	}
}

func runTenants(cfg runConfig) (*result, error) {
	res := newResult()
	kinds := requestKinds()
	clients := cfg.threads
	for _, k := range kinds {
		switch {
		case k.pr != nil:
			res.header = append(res.header, fmt.Sprintf("request %s pagerank n=%d avg_deg=%d iters=%d",
				k.name, k.pr.n, k.pr.avgDeg, k.pr.iters))
		default:
			res.header = append(res.header, fmt.Sprintf("request %s montecarlo runs=%d steps=%d",
				k.name, k.mc.Runs, k.mc.Steps))
		}
	}
	res.header = append(res.header, fmt.Sprintf(
		"clients=%d (one tenant each) lease_slots=1 policy=timeout(%v) scrape_every=%d metrics=on",
		clients, admitTimeout, scrapeEvery))

	graphs := map[int]*graph.Graph{}
	for _, k := range kinds {
		if k.pr != nil && graphs[k.pr.n] == nil {
			graphs[k.pr.n] = graph.NewPowerLaw(k.pr.n, k.pr.avgDeg, graphSeed)
		}
	}
	ref := buildReference(kinds, graphs)

	var s *tenantSetup
	setups := repeatSetup(func() float64 {
		restoreRuntime()
		runtime.GC()
		t0 := time.Now()
		s = setupTenants(kinds, clients, cfg.threads, ref)
		return time.Since(t0).Seconds()
	})
	defer restoreRuntime()
	res.e2e["setup_s"] = fromSummary(summarize(setups), 1)

	for c := range s.clients { // one untimed warm-up request per instance
		for _, q := range s.clients[c] {
			q.reset()
			q.run()
			res.checks.add(kinds[q.kind].name, q.check())
		}
	}

	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	st := runClients(s, kinds, cfg.seed, 0, phase, &res.checks, nil)
	n := st.requests()
	if n == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	res.header = append(res.header, fmt.Sprintf("untraced: %d requests in %.2f s, %.1f s CPU", n, st.elapsed, st.cpu))
	res.e2e["aomp_s"] = fromSummary(summarize(st.lat), 1)
	res.e2e["cpu_per_op_ms"] = single(st.cpu/float64(n)*1e3, n)
	if !cfg.trace {
		return res, nil
	}

	res.layer["p50_ms"] = fromSummary(summarize(st.lat), 1e3)
	p99, pct := tailPercentile(st.lat)
	res.layer["p99_ms"] = single(p99*1e3, n)
	res.header = append(res.header, fmt.Sprintf("p99_ms taken at percentile %.2f of %d requests", pct, n))
	res.layer["throughput_rps"] = single(float64(n)/st.elapsed, n)
	res.layer["refused_share"] = single(float64(st.refused)/float64(n), n)
	res.layer["graph.short_p50_ms"] = fromSummary(summarize(st.short), 1e3)
	res.layer["graph.long_p50_ms"] = fromSummary(summarize(st.long), 1e3)
	res.layer["obs.scrape_us"] = fromSummary(summarize(st.scrapes), 1)

	tr := startTracer()
	traced := runClients(s, kinds, cfg.seed, 1, phase, &res.checks, tr)
	tr.stop()
	if m := median(st.lat); m > 0 && traced.requests() > 0 {
		res.layer["obs.trace_overhead"] = single(median(traced.lat)/m, traced.requests())
	}
	tenantTrack := map[uint64]int{}
	for _, t := range aomplib.AdmissionStats().Tenants {
		var c int
		if _, err := fmt.Sscanf(t.Name, "tenant-%d", &c); err == nil {
			tenantTrack[t.ID] = c
		}
	}
	res.header = append(res.header, tr.derive(res.layer, traced.requests(), tenantTrack)...)
	if err := tr.write(cfg); err != nil {
		return nil, err
	}
	restoreRuntime()
	probes(res.layer, cfg.threads)
	res.layer["failed_share"] = single(res.checks.share(), res.checks.attempted)
	zeroLayer(res.layer)
	return res, nil
}
