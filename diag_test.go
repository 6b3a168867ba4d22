package aomplib

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"aomplib/internal/obs"
	"aomplib/internal/rt"
)

// The diagnostics handler's /metrics output must pass the strict
// exposition lint and carry both registry counters and the live runtime
// gauges, with real traffic reflected in the values.
func TestDiagnosticsMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	rt.Region(2, func(w *rt.Worker) {})

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("wrong exposition content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	text := string(body)
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics fails the exposition lint: %v\n%s", err, text)
	}
	for _, fam := range []string{
		"aomp_region_entries_total",
		"aomp_region_latency_seconds_bucket",
		"aomp_pool_idle_workers",
		"aomp_admission_queue_depth",
		"aomp_trace_ring_drops_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics missing family %s:\n%s", fam, text)
		}
	}
	// Handler() enabled metrics, so the region above must have counted.
	var entries float64
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "aomp_region_entries_total "); ok {
			entries, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("unparseable region entries %q", v)
			}
		}
	}
	if entries < 1 {
		t.Fatalf("aomp_region_entries_total = %v after a region ran", entries)
	}
}

// /debug/aomp/stats must serve the RuntimeStats view as one JSON object:
// the metrics registry, pool and admission snapshots and the tracer's
// ring accounting, all under "runtime".
func TestDiagnosticsStatsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	resp, err := srv.Client().Get(srv.URL + "/debug/aomp/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var payload struct {
		Runtime struct {
			Events struct {
				RingDrops     *uint64 `json:"RingDrops"`
				TraceRings    *int    `json:"TraceRings"`
				WorkersFolded *int    `json:"WorkersFolded"`
			}
			Metrics   map[string]any `json:"Metrics"`
			Pool      map[string]any `json:"Pool"`
			Admission map[string]any `json:"Admission"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("stats is not valid JSON: %v", err)
	}
	if payload.Runtime.Events.RingDrops == nil || payload.Runtime.Events.TraceRings == nil ||
		payload.Runtime.Events.WorkersFolded == nil {
		t.Fatal("stats JSON missing the ring-accounting fields")
	}
	if payload.Runtime.Metrics == nil || payload.Runtime.Pool == nil || payload.Runtime.Admission == nil {
		t.Fatal("stats JSON missing the metrics, pool or admission snapshot")
	}
}

// /debug/aomp/trace must capture a bounded window, restore the tracer's
// prior install state, reject malformed durations, and refuse concurrent
// captures.
func TestDiagnosticsTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	wasEnabled := TracingEnabled()
	resp, err := srv.Client().Get(srv.URL + "/debug/aomp/trace?sec=0.01") // clamped to 0.1
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	if !json.Valid(body) {
		t.Fatalf("trace is not valid JSON: %.200s", body)
	}
	if TracingEnabled() != wasEnabled {
		t.Fatalf("trace capture leaked tracer state: was %v, now %v", wasEnabled, TracingEnabled())
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/aomp/trace?sec=bogus")
	if err != nil {
		t.Fatalf("GET bogus trace: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bogus sec got status %d, want 400", resp.StatusCode)
	}
}

// A trace capture borrows the tool slot: a custom table installed with
// SetTraceHooks must still be installed, and still receive events, after
// /debug/aomp/trace returns.
func TestDiagnosticsTraceKeepsCustomTool(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	defer EnableMetrics(false)

	var forks atomic.Int64
	custom := &TraceHooks{RegionFork: func(TraceWorkerID, uint64, int, int) { forks.Add(1) }}
	prev := SetTraceHooks(custom)
	defer SetTraceHooks(prev)

	resp, err := srv.Client().Get(srv.URL + "/debug/aomp/trace?sec=0.1")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	before := forks.Load()
	rt.Region(2, func(w *rt.Worker) {})
	if forks.Load() != before+1 {
		t.Fatal("custom tool stopped receiving events after a trace capture")
	}
	if got := SetTraceHooks(custom); got != custom {
		t.Fatalf("tool slot after a capture holds %p, want the custom table %p", got, custom)
	}
}

// Per-tenant exposition rows come from the admission controller's own
// counters, so tenants admitted before the metrics registry was enabled
// must appear with exactly the counts AdmissionStats reports.
func TestTenantRowsPredateMetrics(t *testing.T) {
	prevM := EnableMetrics(false)
	defer EnableMetrics(prevM)
	prevAdm := SetAdmissionControl(true)
	defer SetAdmissionControl(prevAdm)

	for _, name := range []string{"early-tenant-a", "early-tenant-b"} {
		tok := EnterTenant(name)
		rt.Region(2, func(w *rt.Worker) {})
		tok.Exit()
	}
	EnableMetrics(true)

	var buf strings.Builder
	if err := WriteMetricsText(&buf); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	text := buf.String()
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	rows := 0
	for _, ts := range AdmissionStats().Tenants {
		if ts.Name != "early-tenant-a" && ts.Name != "early-tenant-b" {
			continue
		}
		rows++
		if ts.Admitted == 0 {
			t.Fatalf("tenant %s admitted nothing: %+v", ts.Name, ts)
		}
		for fam, v := range map[string]uint64{
			"aomp_tenant_admits_total":   ts.Admitted,
			"aomp_tenant_queued_total":   ts.Queued,
			"aomp_tenant_rejects_total":  ts.Rejected,
			"aomp_tenant_timeouts_total": ts.TimedOut,
		} {
			want := fmt.Sprintf("%s{tenant=%q} %d\n", fam, ts.Name, v)
			if !strings.Contains(text, want) {
				t.Fatalf("exposition missing %q:\n%s", want, text)
			}
		}
	}
	if rows != 2 {
		t.Fatalf("AdmissionStats has %d of the 2 early tenants", rows)
	}
}

// Tenant ids at or beyond the row bound must fold onto the "_other" row
// of every aomp_tenant_* family, and the result must stay lint-clean.
func TestTenantOverflowRow(t *testing.T) {
	fams := tenantFamilies([]rt.TenantAdmissionStats{
		{Name: "t3", ID: 3, Admitted: 1},
		{Name: "idle", ID: 4},
		{Name: "far-1", ID: maxTenantRows + 7, Admitted: 1, Queued: 1},
		{Name: "far-2", ID: maxTenantRows + 900, Admitted: 1, Rejected: 2, TimedOut: 1},
	})
	var buf strings.Builder
	if err := obs.WriteMetricsText(&buf, fams...); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	text := buf.String()
	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		`aomp_tenant_admits_total{tenant="_other"} 2` + "\n",
		`aomp_tenant_queued_total{tenant="_other"} 1` + "\n",
		`aomp_tenant_rejects_total{tenant="_other"} 2` + "\n",
		`aomp_tenant_timeouts_total{tenant="_other"} 1` + "\n",
		`aomp_tenant_admits_total{tenant="t3"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	for _, absent := range []string{`tenant="far-1"`, `tenant="far-2"`, `tenant="idle"`} {
		if strings.Contains(text, absent) {
			t.Fatalf("exposition carries %s, want it folded or omitted:\n%s", absent, text)
		}
	}
}

// /debug/aomp/flight must serve a valid Chrome trace whether or not the
// recorder is enabled, and ServeDiagnostics must bind a working listener.
func TestDiagnosticsFlightAndServe(t *testing.T) {
	srv, err := ServeDiagnostics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDiagnostics: %v", err)
	}
	defer srv.Close()
	defer EnableMetrics(false)

	resp, err := http.Get("http://" + srv.Addr + "/debug/aomp/flight")
	if err != nil {
		t.Fatalf("GET flight: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("flight endpoint: status %d, valid JSON %v", resp.StatusCode, json.Valid(body))
	}
	if got := resp.Header.Get("X-Aomp-Flight-Triggered"); got != "false" {
		t.Fatalf("untriggered flight header = %q, want false", got)
	}
}
