package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aomplib"
	"aomplib/internal/obs"
)

// The traced phase installs the table below through the public
// aomplib.SetTraceHooks. Every callback claims one slot of a preallocated
// event buffer (no allocation, no lock) and stores a timestamp; pairing
// events into spans and deriving the per-layer metrics happens after the
// phase, from the buffer. The benchmark's own spans (kernel passes,
// requests, EnterTenant/Exit, weaves, scrapes) are appended under a mutex,
// a few per operation. Both are written out when the run ends.

type evKind uint8

const (
	evFork evKind = iota
	evJoin
	evImplBegin
	evImplEnd
	evLease
	evAdmitEnqueue
	evAdmitGrant
	evAdmitReject
	evTaskCreate
	evTaskSchedule
	evTaskComplete
	evTaskInline
	evStealAttempt
	evStealSuccess
	evStealScan
	evBarrierDepart
	evDepRelease
	evWorkBegin
	evWorkEnd
)

// event is one hook invocation: x carries the team, task or tenant id (or
// the probe count of a steal scan), y a wait in ns or a flag.
type event struct {
	ts   int64
	x    uint64
	y    int64
	w    int32
	kind evKind
}

// traceCapacity bounds the event buffer (32 MiB); the traced phase ends
// early once it is nearly full.
const traceCapacity = 1 << 20

// span is one interval: a benchmark span or one derived from hook events.
// Root spans (parent 0) are the operations: kernel passes and requests.
type span struct {
	id, parent int64
	track      int // client (benchmark spans) or worker id + workerTrack
	name       string
	start, end int64 // ns since the tracer started
}

const workerTrack = 1000

type tracer struct {
	base  time.Time
	buf   []event
	n     atomic.Int64
	ids   atomic.Int64
	prev  *aomplib.TraceHooks
	mu    sync.Mutex
	spans []span
}

// startTracer installs the recording hook table.
func startTracer() *tracer {
	t := &tracer{base: time.Now(), buf: make([]event, traceCapacity)}
	t.prev = aomplib.SetTraceHooks(t.hooks())
	return t
}

// stop restores the previous hook table. Callers stop only once every
// region of the phase has joined, so no callback is still running.
func (t *tracer) stop() { aomplib.SetTraceHooks(t.prev) }

func (t *tracer) now() int64    { return int64(time.Since(t.base)) }
func (t *tracer) newID() int64  { return t.ids.Add(1) }
func (t *tracer) recorded() int { return int(min(t.n.Load(), int64(len(t.buf)))) }

func (t *tracer) nearlyFull() bool { return t.n.Load() > int64(len(t.buf))*9/10 }

// span records a benchmark span with a caller-chosen id.
func (t *tracer) span(track int, id, parent int64, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, track: track, name: name, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) add(kind evKind, w obs.WorkerID, x uint64, y int64) {
	ts := int64(time.Since(t.base))
	i := t.n.Add(1) - 1
	if i < int64(len(t.buf)) {
		t.buf[i] = event{ts: ts, x: x, y: y, w: int32(w), kind: kind}
	}
}

func (t *tracer) hooks() *aomplib.TraceHooks {
	return &aomplib.TraceHooks{
		RegionFork: func(m obs.WorkerID, team uint64, level, size int) { t.add(evFork, m, team, int64(level)) },
		RegionJoin: func(m obs.WorkerID, team uint64, level int) { t.add(evJoin, m, team, 0) },
		ImplicitBegin: func(w obs.WorkerID, team uint64, level int) {
			t.add(evImplBegin, w, team, 0)
		},
		ImplicitEnd: func(w obs.WorkerID, team uint64) { t.add(evImplEnd, w, team, 0) },
		TeamLease: func(w obs.WorkerID, team uint64, size int, hit bool) {
			h := int64(0)
			if hit {
				h = 1
			}
			t.add(evLease, w, team, h)
		},
		AdmitEnqueue: func(tenant uint64, depth int) { t.add(evAdmitEnqueue, obs.NoWorker, tenant, int64(depth)) },
		AdmitGrant:   func(tenant uint64, waitNs int64) { t.add(evAdmitGrant, obs.NoWorker, tenant, waitNs) },
		AdmitReject: func(tenant uint64, reason obs.AdmitReason) {
			t.add(evAdmitReject, obs.NoWorker, tenant, int64(reason))
		},
		TaskCreate:   func(w obs.WorkerID, task uint64, kind obs.TaskKind) { t.add(evTaskCreate, w, task, int64(kind)) },
		TaskSchedule: func(w obs.WorkerID, task uint64) { t.add(evTaskSchedule, w, task, 0) },
		TaskComplete: func(w obs.WorkerID, task uint64) { t.add(evTaskComplete, w, task, 0) },
		TaskInline:   func(w obs.WorkerID, task uint64) { t.add(evTaskInline, w, task, 0) },
		StealAttempt: func(w obs.WorkerID) { t.add(evStealAttempt, w, 0, 0) },
		StealSuccess: func(w obs.WorkerID, task uint64, victim obs.WorkerID) {
			t.add(evStealSuccess, w, task, int64(victim))
		},
		StealScan: func(w obs.WorkerID, probes int) { t.add(evStealScan, w, uint64(probes), 0) },
		BarrierDepart: func(w obs.WorkerID, team uint64, waitNs int64) {
			t.add(evBarrierDepart, w, team, waitNs)
		},
		DepRelease: func(w obs.WorkerID, task uint64) { t.add(evDepRelease, w, task, 0) },
		WorkBegin:  func(w obs.WorkerID, team uint64, kind uint8) { t.add(evWorkBegin, w, team, int64(kind)) },
		WorkEnd:    func(w obs.WorkerID, team uint64) { t.add(evWorkEnd, w, team, 0) },
	}
}

// regionState pairs the events of one region entry (one lease of a team).
type regionState struct {
	id, parent         int64
	fork               int64
	lastBegin, lastEnd int64
	encounter          map[int32]int // per worker: work-share constructs met so far
}

// derive pairs the recorded events into spans and fills the rt.* and
// sched.* per-layer metrics; counts are per operation, where ops is the
// number of library passes (Aomp, Aomp-DF, Parallel) or requests of the
// traced phase. tenantTrack maps admission tenant ids to
// the client track whose requests they issue (nil when one goroutine
// issues every operation). It returns summary lines for the run header.
func (t *tracer) derive(layer map[string]value, ops int, tenantTrack map[uint64]int) []string {
	events := t.buf[:t.recorded()]
	sort.SliceStable(events, func(i, j int) bool { return events[i].ts < events[j].ts })

	t.mu.Lock()
	roots := map[int][]span{}
	for _, s := range t.spans {
		if s.parent == 0 {
			roots[s.track] = append(roots[s.track], s)
		}
	}
	t.mu.Unlock()
	for _, r := range roots {
		sort.Slice(r, func(i, j int) bool { return r[i].start < r[j].start })
	}
	// opAt finds the operation span of track that contains ts.
	opAt := func(track int, ts int64) int64 {
		r := roots[track]
		i := sort.Search(len(r), func(i int) bool { return r[i].start > ts }) - 1
		if i >= 0 && ts <= r[i].end {
			return r[i].id
		}
		return 0
	}

	var (
		derived                                               []span
		regionUs, wakeUs, joinUs, barrierUs, queueUs, admitUs []float64
		shareUs                                               []float64
		regions, leases, hits, barriers, tasks, depReleases   int
		stealAttempts, taskSteals, loopSteals, probes         int
		enqueued, grants, rejects                             int
		barrierNs, implicitNs                                 float64
		lastTenant                                            uint64
	)
	open := map[uint64]*regionState{}
	inRegion := map[int32]*regionState{}
	implStart := map[int32]int64{}
	workStart := map[int32]int64{}
	created := map[uint64]int64{}
	started := map[uint64]int64{}
	type encKey struct {
		region int64
		idx    int
	}
	shares := map[encKey][]float64{}
	wspan := func(w int32, parent int64, name string, start, end int64) {
		derived = append(derived, span{id: t.newID(), parent: parent, track: workerTrack + int(w),
			name: name, start: start, end: end})
	}
	regionOf := func(w int32) int64 {
		if rs := inRegion[w]; rs != nil {
			return rs.id
		}
		return 0
	}

	for _, e := range events {
		switch e.kind {
		case evFork:
			regions++
			track := 0
			if tenantTrack != nil {
				track = tenantTrack[lastTenant]
			}
			parent := opAt(track, e.ts)
			if outer := inRegion[e.w]; outer != nil && e.y > 1 {
				parent = outer.id // nested region: child of the enclosing one
			}
			open[e.x] = &regionState{id: t.newID(), parent: parent, fork: e.ts, encounter: map[int32]int{}}
		case evImplBegin:
			if rs := open[e.x]; rs != nil {
				rs.lastBegin = max(rs.lastBegin, e.ts)
				inRegion[e.w] = rs
				implStart[e.w] = e.ts
			}
		case evImplEnd:
			if rs := open[e.x]; rs != nil {
				rs.lastEnd = max(rs.lastEnd, e.ts)
				if s, ok := implStart[e.w]; ok {
					implicitNs += float64(e.ts - s)
					wspan(e.w, rs.id, "implicit task", s, e.ts)
					delete(implStart, e.w)
				}
				delete(inRegion, e.w)
			}
		case evJoin:
			rs := open[e.x]
			if rs == nil {
				continue
			}
			delete(open, e.x)
			regionUs = append(regionUs, float64(e.ts-rs.fork)/1e3)
			if rs.lastBegin > 0 {
				wakeUs = append(wakeUs, float64(rs.lastBegin-rs.fork)/1e3)
				joinUs = append(joinUs, float64(e.ts-rs.lastEnd)/1e3)
			}
			derived = append(derived, span{id: rs.id, parent: rs.parent, track: workerTrack + int(e.w),
				name: "region", start: rs.fork, end: e.ts})
		case evLease:
			leases++
			hits += int(e.y)
		case evAdmitEnqueue:
			enqueued++
		case evAdmitGrant:
			grants++
			lastTenant = e.x
			admitUs = append(admitUs, float64(e.y)/1e3)
		case evAdmitReject:
			rejects++
			lastTenant = e.x
		case evTaskCreate:
			tasks++
			created[e.x] = e.ts
		case evTaskInline:
			tasks++
		case evTaskSchedule:
			if c, ok := created[e.x]; ok {
				queueUs = append(queueUs, float64(e.ts-c)/1e3)
				delete(created, e.x)
			}
			started[e.x] = e.ts
		case evTaskComplete:
			if s, ok := started[e.x]; ok {
				wspan(e.w, regionOf(e.w), "task", s, e.ts)
				delete(started, e.x)
			}
		case evStealAttempt:
			stealAttempts++
		case evStealSuccess:
			if e.x == 0 {
				loopSteals++
			} else {
				taskSteals++
			}
		case evStealScan:
			probes += int(e.x)
		case evBarrierDepart:
			barriers++
			barrierNs += float64(e.y)
			barrierUs = append(barrierUs, float64(e.y)/1e3)
			wspan(e.w, regionOf(e.w), "barrier wait", e.ts-e.y, e.ts)
		case evDepRelease:
			depReleases++
		case evWorkBegin:
			workStart[e.w] = e.ts
		case evWorkEnd:
			s, ok := workStart[e.w]
			if !ok {
				continue
			}
			delete(workStart, e.w)
			shareUs = append(shareUs, float64(e.ts-s)/1e3)
			if rs := inRegion[e.w]; rs != nil {
				k := encKey{rs.id, rs.encounter[e.w]}
				rs.encounter[e.w]++
				shares[k] = append(shares[k], float64(e.ts-s))
			}
			wspan(e.w, regionOf(e.w), "work share", s, e.ts)
		}
	}

	perOp := func(n int) value { return single(float64(n)/float64(max(ops, 1)), n) }
	ratio := func(a, b int) value {
		if b == 0 {
			return single(0, 0)
		}
		return single(float64(a)/float64(b), b)
	}
	pct := func(name string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		layer[name+".p50"] = single(median(xs), len(xs))
		p, _ := tailPercentile(xs)
		layer[name+".p99"] = single(p, len(xs))
	}
	layer["rt.regions"] = perOp(regions)
	pct("rt.region_us", regionUs)
	pct("rt.wake_us", wakeUs)
	pct("rt.join_us", joinUs)
	layer["rt.lease_hit_ratio"] = ratio(hits, leases)
	layer["rt.barriers"] = perOp(barriers)
	pct("rt.barrier_wait_us", barrierUs)
	if implicitNs > 0 {
		layer["rt.barrier_wait_share"] = single(barrierNs/implicitNs, barriers)
	}
	layer["rt.tasks"] = perOp(tasks)
	pct("rt.task_queue_us", queueUs)
	layer["rt.steal_success_ratio"] = ratio(taskSteals, stealAttempts)
	layer["rt.dep_releases"] = perOp(depReleases)
	pct("rt.admit_wait_us", admitUs)
	layer["rt.admit_queued_share"] = ratio(enqueued, grants+rejects)
	layer["rt.admit_refused"] = perOp(rejects)
	layer["sched.shares"] = perOp(len(shareUs))
	if len(shareUs) > 0 {
		layer["sched.share_us.p50"] = single(median(shareUs), len(shareUs))
	}
	var imbalance []float64
	for _, d := range shares {
		if len(d) < 2 {
			continue
		}
		sum, hi := 0.0, 0.0
		for _, x := range d {
			sum += x
			hi = max(hi, x)
		}
		if sum > 0 {
			imbalance = append(imbalance, hi/(sum/float64(len(d))))
		}
	}
	if len(imbalance) > 0 {
		layer["sched.share_imbalance"] = single(median(imbalance), len(imbalance))
	}
	layer["sched.probes_per_steal"] = ratio(probes, loopSteals)

	t.mu.Lock()
	t.spans = append(t.spans, derived...)
	t.mu.Unlock()
	lost := t.n.Load() - int64(t.recorded())
	return []string{fmt.Sprintf("traced: %d ops, %d hook events (%d lost to a full buffer), %d spans",
		ops, len(events), lost, len(t.spans))}
}

// write stores every span as Chrome trace-event JSON (loadable in
// ui.perfetto.dev), gzip-compressed, under cfg.outDir.
func (t *tracer) write(cfg runConfig) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json.gz", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n{\"ph\":\"X\",\"pid\":1,\"tid\":")
		bw.WriteString(strconv.Itoa(s.track))
		bw.WriteString(",\"name\":")
		bw.WriteString(strconv.Quote(s.name))
		bw.WriteString(",\"ts\":")
		bw.WriteString(strconv.FormatFloat(float64(s.start)/1e3, 'f', 3, 64))
		bw.WriteString(",\"dur\":")
		bw.WriteString(strconv.FormatFloat(float64(s.end-s.start)/1e3, 'f', 3, 64))
		bw.WriteString(",\"args\":{\"id\":")
		bw.WriteString(strconv.FormatInt(s.id, 10))
		bw.WriteString(",\"parent\":")
		bw.WriteString(strconv.FormatInt(s.parent, 10))
		bw.WriteString("}}")
	}
	t.mu.Unlock()
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
