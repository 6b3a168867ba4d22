package aomplib

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aomplib/internal/obs"
	"aomplib/internal/rt"
)

// Production diagnostics: the always-on metrics registry, its Prometheus
// exposition, the flight recorder, and the HTTP surface that serves them.
// Handler mounts everything on one http.Handler a server embeds next to
// its own routes; ServeDiagnostics runs it standalone on a sidecar port.

// ------------------------------------------------------------- metrics --

// EnableMetrics turns the always-on metrics registry on or off, returning
// the previous setting. Enabled, every runtime emit point also feeds
// cache-line-sharded counters and log-bucketed latency histograms —
// region latency, barrier waits, admission queue waits, task
// spawn-to-run latency, steals, per-schedule loop shares — behind
// ReadMetrics and the /metrics endpoint. Per-tenant admission outcomes
// are counted by the admission controller whether or not metrics are on,
// and /metrics renders them from AdmissionStats. The record path touches
// only preallocated padded atomics (0 allocs/op);
// disabled (the default), emit points cost their usual one atomic load
// and predicted branch. Metrics compose with the tracer, the flight
// recorder and custom tools: enabling one never evicts another.
var EnableMetrics = obs.EnableMetrics

// MetricsEnabled reports whether the metrics registry is recording.
var MetricsEnabled = obs.MetricsEnabled

// ReadMetrics merges the registry's shards into one point-in-time
// snapshot. Safe from any goroutine at any time; counters are cumulative
// since the first EnableMetrics and never reset.
var ReadMetrics = obs.ReadMetrics

// MetricsSnapshot is the merged registry view returned by ReadMetrics.
type MetricsSnapshot = obs.MetricsSnapshot

// MetricsHistogram is one merged latency histogram of a MetricsSnapshot:
// cumulative log2 buckets in nanoseconds plus total count and sum.
type MetricsHistogram = obs.HistogramSnapshot

// MetricsHistogramBucket is one cumulative bucket of a MetricsHistogram.
type MetricsHistogramBucket = obs.HistogramBucket

// ScheduleShareCount is one schedule kind's loop-share counter in a
// MetricsSnapshot.
type ScheduleShareCount = obs.ScheduleShareCount

// WriteMetricsText renders the metrics registry, the per-tenant admission
// counters and the pool, admission and trace-ring gauges as Prometheus
// text exposition (content type "text/plain; version=0.0.4") — what the
// /metrics endpoint serves, exposed directly for servers that register
// runtime metrics with their own exposition plumbing.
func WriteMetricsText(w io.Writer) error { return obs.WriteMetricsText(w, runtimeGauges()...) }

// ------------------------------------------------------ flight recorder --

// EnableFlightRecorder turns the flight recorder on or off, returning the
// previous setting. Enabled, the runtime continuously records its last
// few seconds of events (SetFlightWindow) into bounded per-worker rings —
// memory stays fixed regardless of uptime — and triggers (a region
// slower than SetFlightRegionLatencyThreshold, an admission reject spike
// per SetFlightRejectSpike) freeze that window so WriteFlightSnapshot can
// export the moments leading up to the anomaly as a Chrome trace.
var EnableFlightRecorder = obs.EnableFlight

// FlightRecorderEnabled reports whether the flight recorder is recording.
var FlightRecorderEnabled = obs.FlightEnabled

// SetFlightWindow sets how far back the flight recorder retains events,
// returning the previous window (default 5s).
var SetFlightWindow = obs.SetFlightWindow

// SetFlightRegionLatencyThreshold arms the flight recorder's slow-region
// trigger: a parallel region whose fork-to-join latency exceeds the
// duration freezes the flight window. Non-positive disarms; returns the
// previous threshold (zero = disarmed, the default).
var SetFlightRegionLatencyThreshold = obs.SetFlightRegionLatencyThreshold

// SetFlightRejectSpike arms the flight recorder's admission trigger: the
// given number of rejects inside one second freezes the flight window.
// Non-positive disarms; returns the previous setting (zero = disarmed,
// the default).
var SetFlightRejectSpike = obs.SetFlightRejectSpike

// FlightTriggered reports whether a flight trigger fired and its frozen
// capture awaits WriteFlightSnapshot.
var FlightTriggered = obs.FlightTriggered

// WriteFlightSnapshot writes the flight recorder's window as Chrome
// trace-event JSON (load it at ui.perfetto.dev). After a trigger it
// writes the capture frozen at the trigger moment and re-arms; otherwise
// it snapshots the live window without disturbing recording. The boolean
// reports which case applied.
var WriteFlightSnapshot = obs.WriteFlightSnapshot

// -------------------------------------------------------- HTTP surface --

// Handler returns the diagnostics HTTP handler, enabling the metrics
// registry as a side effect (a mounted-but-disabled /metrics would
// silently scrape zeros). Routes, relative to where the caller mounts it:
//
//	/metrics                Prometheus text exposition: the metrics
//	                        registry, per-tenant admission counters,
//	                        and live pool, admission and trace-ring
//	                        gauges;
//	/debug/aomp/stats       RuntimeStats() as one JSON object under
//	                        "runtime" (metrics, pool, admission, ring
//	                        accounting);
//	/debug/aomp/trace?sec=N Chrome trace of the next N seconds
//	                        (default 2, clamped to [0.1, 30]) — captures
//	                        serialize, concurrent requests get 503, and
//	                        the tool slot's previous occupant (the
//	                        tracer or a SetTraceHooks table) is restored
//	                        afterwards;
//	/debug/aomp/flight      the flight recorder's Chrome trace snapshot
//	                        (enable via EnableFlightRecorder).
//
// Mount it on a mux the process already serves, or pass the same routes
// to ServeDiagnostics for a standalone listener.
func Handler() http.Handler {
	EnableMetrics(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/debug/aomp/stats", serveStats)
	mux.HandleFunc("/debug/aomp/trace", serveTrace)
	mux.HandleFunc("/debug/aomp/flight", serveFlight)
	return mux
}

// ServeDiagnostics starts a standalone HTTP server for Handler's routes
// on addr (e.g. "127.0.0.1:9150") and returns once the listener is
// bound. The caller owns the returned server — Close (or Shutdown) it on
// the way down. Production processes that already run an HTTP server
// should mount Handler on their own mux instead.
func ServeDiagnostics(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler()}
	go srv.Serve(ln)
	return srv, nil
}

// runtimeGauges builds the exposition families whose truth lives outside
// the metrics registry — pool occupancy, admission queue state and
// per-tenant counters, trace-ring accounting — read straight from their
// stores at scrape time, so a scrape takes exactly one registry snapshot.
func runtimeGauges() []obs.Family {
	pool, adm, ev := rt.ReadPoolStats(), rt.ReadAdmissionStats(), obs.ReadStats()
	gauge := func(name, help string, v float64) obs.Family {
		return obs.Family{Name: "aomp_" + name, Help: help, Type: "gauge",
			Samples: []obs.Sample{{Value: v}}}
	}
	counter := func(name, help string, v uint64) obs.Family {
		return obs.Family{Name: "aomp_" + name, Help: help, Type: "counter",
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	return append([]obs.Family{
		counter("pool_leases_total", "Team leases served by the hot-team pool machinery.", pool.Leases),
		counter("pool_hits_total", "Leases served by a cached pool team.", pool.Hits),
		gauge("pool_idle_teams", "Teams parked in the hot-team pool right now.", float64(pool.IdleTeams)),
		gauge("pool_idle_workers", "Workers parked in the hot-team pool right now.", float64(pool.IdleWorkers)),
		gauge("admission_queue_depth", "Admission waiters queued right now.", float64(adm.QueueDepth)),
		gauge("admission_held_slots", "Admission lease slots granted right now.", float64(adm.Held)),
		counter("admission_degraded_total", "Region entries that ran serialized without a lease.", adm.Degraded),
		counter("trace_ring_drops_total", "Trace events dropped by full or draining ring buffers.", ev.RingDrops),
		gauge("trace_rings", "Trace ring buffers allocated by the built-in tracer.", float64(ev.TraceRings)),
		gauge("trace_workers_folded", "Workers folded onto shared trace rings (id beyond the ring bound).", float64(ev.WorkersFolded)),
	}, tenantFamilies(adm.Tenants)...)
}

// maxTenantRows bounds the per-tenant exposition: tenants whose id is
// below it get their own row, the rest fold onto tenant="_other", so a
// server minting tenant names cannot grow the label set without bound.
const maxTenantRows = 256

// tenantFamilies renders the admission controller's per-tenant counters
// as the aomp_tenant_* families. Tenants that never reached the
// admission decision (no admit, queue entry or reject) have no row.
func tenantFamilies(tenants []rt.TenantAdmissionStats) []obs.Family {
	fams := []obs.Family{
		{Name: "aomp_tenant_admits_total", Type: "counter",
			Help: "Team leases granted per admission tenant."},
		{Name: "aomp_tenant_queued_total", Type: "counter",
			Help: "Region entries per tenant that joined the admission queue, including ones that later timed out."},
		{Name: "aomp_tenant_rejects_total", Type: "counter",
			Help: "Lease requests refused per tenant (policy, full queue, timeout)."},
		{Name: "aomp_tenant_timeouts_total", Type: "counter",
			Help: "Refusals per tenant due to a queue-wait timeout."},
	}
	add := func(name string, t rt.TenantAdmissionStats) {
		lbl := []obs.Label{{Name: "tenant", Value: name}}
		for i, v := range []uint64{t.Admitted, t.Queued, t.Rejected, t.TimedOut} {
			fams[i].Samples = append(fams[i].Samples, obs.Sample{Labels: lbl, Value: float64(v)})
		}
	}
	var other rt.TenantAdmissionStats
	for _, t := range tenants {
		switch {
		case t.Admitted == 0 && t.Queued == 0 && t.Rejected == 0:
		case t.ID < maxTenantRows:
			add(t.Name, t)
		default:
			other.Admitted += t.Admitted
			other.Queued += t.Queued
			other.Rejected += t.Rejected
			other.TimedOut += t.TimedOut
		}
	}
	if other.Admitted != 0 || other.Queued != 0 || other.Rejected != 0 {
		add("_other", other)
	}
	return fams
}

func serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WriteMetricsText(w, runtimeGauges()...); err != nil {
		// Headers are gone; all we can do is cut the response short.
		return
	}
}

func serveStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Runtime RuntimeSnapshot `json:"runtime"`
	}{RuntimeStats()})
}

// traceMu serializes /debug/aomp/trace captures: StartTrace/StopTrace
// drive one global tracer, so two overlapping captures would truncate
// each other.
var traceMu sync.Mutex

func serveTrace(w http.ResponseWriter, r *http.Request) {
	sec := 2.0
	if s := r.URL.Query().Get("sec"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad sec parameter %q", s), http.StatusBadRequest)
			return
		}
		sec = v
	}
	if sec < 0.1 {
		sec = 0.1
	}
	if sec > 30 {
		sec = 30
	}
	if !traceMu.TryLock() {
		http.Error(w, "a trace capture is already running", http.StatusServiceUnavailable)
		return
	}
	defer traceMu.Unlock()

	// The capture borrows the tool slot and puts its previous occupant
	// back afterwards: a server that keeps the tracer off, or runs its own
	// SetTraceHooks tool, should not find the slot changed because
	// somebody curled a trace.
	prev := SetTraceHooks(nil)
	defer SetTraceHooks(prev)
	StartTrace()
	select {
	case <-time.After(time.Duration(sec * float64(time.Second))):
	case <-r.Context().Done():
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aomp-trace.json"`)
	StopTrace(w)
}

func serveFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aomp-flight.json"`)
	// The header must precede the body, so report the pre-write trigger
	// state; WriteFlightSnapshot prefers the frozen capture when set.
	w.Header().Set("X-Aomp-Flight-Triggered", strconv.FormatBool(FlightTriggered()))
	WriteFlightSnapshot(w)
}
