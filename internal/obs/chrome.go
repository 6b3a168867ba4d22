package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"aomplib/internal/sched"
)

// Chrome trace-event export: the drain pass converts the fixed-size ring
// records into the Trace Event Format understood by Perfetto
// (ui.perfetto.dev) and chrome://tracing. Layout:
//
//   - one track (tid) per worker, named "worker N", plus a shared track
//     for events emitted outside any worker context;
//   - begin/end record pairs (implicit task, work-sharing, task execution,
//     user spans) become nested "X" duration slices — pairing is defensive,
//     so a trace cut mid-region still exports properly nested slices;
//   - barrier arrive/depart pairs become wait slices spanning the time the
//     worker was blocked;
//   - task spawn→run and dependence release→run become flow arrows;
//   - region fork/join, team lease/retire, steals and inline tasks become
//     instants.
//
// The export runs entirely off the hot path, after StopTrace has drained
// the rings.

const chromePid = 1

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// trackID maps a worker to its Chrome thread id (tids must be positive;
// the NoWorker track gets tid 1, worker N gets tid N+2).
func trackID(w WorkerID) int { return int(w) + 2 }

func trackName(w WorkerID) string {
	if w == NoWorker {
		return "(outside regions)"
	}
	return fmt.Sprintf("worker %d", w)
}

// usec converts trace nanoseconds to the microsecond float ts Chrome uses.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// openSpan is one stack frame of the begin/end pairing. startNs keeps the
// exact begin time: durations are computed in integer nanoseconds and only
// then converted, so nested slices cannot leak past their parents through
// float rounding.
type openSpan struct {
	ev      chromeEvent // slice under construction; Ts set, Dur pending
	startNs int64
	end     EventKind // record kind that closes it
	key     uint64    // task id / span name id that must match (0 = any)
}

// writeChromeTrace converts drained records to trace JSON. c contributes
// its ring accounting.
func writeChromeTrace(w io.Writer, c *collector, events []Event) error {
	byTrack := map[WorkerID][]Event{}
	var maxTs int64
	for _, ev := range events {
		byTrack[ev.Worker] = append(byTrack[ev.Worker], ev)
		if ev.When > maxTs {
			maxTs = ev.When
		}
	}

	// Pass 1: flow endpoints. A task's schedule record anchors the arrow
	// heads for its spawn and (if any) dependence-release arrows; arrows
	// are emitted only when both ends exist in the trace. Flow ids share
	// the task id space: spawn arrows use task<<1, release arrows task<<1|1.
	scheduled := map[uint64]bool{}
	released := map[uint64]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case EvTaskSchedule:
			scheduled[ev.Task] = true
		case EvDepRelease:
			released[ev.Task] = true
		}
	}

	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "aomplib runtime"},
	})

	var tracks []WorkerID
	for w := range byTrack {
		tracks = append(tracks, w)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })

	for _, tr := range tracks {
		tid := trackID(tr)
		out = append(out,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
				Args: map[string]any{"name": trackName(tr)}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Pid: chromePid, Tid: tid,
				Args: map[string]any{"sort_index": tid}})

		evs := byTrack[tr]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].When < evs[j].When })

		var stack []openSpan
		push := func(ev chromeEvent, startNs int64, end EventKind, key uint64) {
			stack = append(stack, openSpan{ev: ev, startNs: startNs, end: end, key: key})
		}
		// close pops frames until one matching (kind, key); frames above
		// it — and, when no frame matches, nothing — are closed at ts.
		// Closing strictly from the top keeps every emitted slice properly
		// nested even when begins and ends were recorded unbalanced (trace
		// cut mid-construct, hooks toggled mid-region).
		closeSpan := func(kind EventKind, key uint64, ts int64) {
			match := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].end == kind && (stack[i].key == 0 || key == 0 || stack[i].key == key) {
					match = i
					break
				}
			}
			if match < 0 {
				return
			}
			for i := len(stack) - 1; i >= match; i-- {
				sp := stack[i]
				sp.ev.Dur = usec(max(ts-sp.startNs, 0))
				out = append(out, sp.ev)
			}
			stack = stack[:match]
		}

		for _, ev := range evs {
			ts := usec(ev.When)
			switch ev.Kind {
			case EvImplicitBegin:
				push(chromeEvent{Name: fmt.Sprintf("parallel L%d", ev.Level), Cat: "region",
					Ph: "X", Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"team": ev.Team, "level": ev.Level}}, ev.When, EvImplicitEnd, ev.Team)
			case EvImplicitEnd:
				closeSpan(EvImplicitEnd, ev.Team, ev.When)
			case EvWorkBegin:
				push(chromeEvent{Name: "for (" + sched.Kind(ev.Arg).String() + ")", Cat: "work",
					Ph: "X", Ts: ts, Pid: chromePid, Tid: tid}, ev.When, EvWorkEnd, ev.Team)
			case EvWorkEnd:
				closeSpan(EvWorkEnd, ev.Team, ev.When)
			case EvTaskSchedule:
				push(chromeEvent{Name: fmt.Sprintf("task %d", ev.Task), Cat: "task",
					Ph: "X", Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"task": ev.Task}}, ev.When, EvTaskComplete, ev.Task)
				// Arrow heads bind to this slice (bp "e": enclosing slice).
				out = append(out, chromeEvent{Name: "spawn", Cat: "taskflow", Ph: "f", BP: "e",
					Ts: ts, Pid: chromePid, Tid: tid, ID: ev.Task << 1})
				if released[ev.Task] {
					out = append(out, chromeEvent{Name: "dep release", Cat: "depflow", Ph: "f", BP: "e",
						Ts: ts, Pid: chromePid, Tid: tid, ID: ev.Task<<1 | 1})
				}
			case EvTaskComplete:
				closeSpan(EvTaskComplete, ev.Task, ev.When)
			case EvSpanBegin:
				push(chromeEvent{Name: spanName(uint32(ev.Task)), Cat: "span",
					Ph: "X", Ts: ts, Pid: chromePid, Tid: tid}, ev.When, EvSpanEnd, ev.Task)
			case EvSpanEnd:
				closeSpan(EvSpanEnd, ev.Task, ev.When)
			case EvBarrierArrive:
				push(chromeEvent{Name: "barrier", Cat: "barrier",
					Ph: "X", Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"team": ev.Team}}, ev.When, EvBarrierDepart, ev.Team)
			case EvBarrierDepart:
				closeSpan(EvBarrierDepart, ev.Team, ev.When)
			case EvTaskCreate:
				out = append(out, chromeEvent{Name: "spawn", Cat: "task", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"task": ev.Task, "kind": TaskKind(ev.Arg).String()}})
				if scheduled[ev.Task] {
					out = append(out, chromeEvent{Name: "spawn", Cat: "taskflow", Ph: "s",
						Ts: ts, Pid: chromePid, Tid: tid, ID: ev.Task << 1})
				}
			case EvDepRelease:
				out = append(out, chromeEvent{Name: "dep release", Cat: "dep", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid, Args: map[string]any{"task": ev.Task}})
				if scheduled[ev.Task] {
					out = append(out, chromeEvent{Name: "dep release", Cat: "depflow", Ph: "s",
						Ts: ts, Pid: chromePid, Tid: tid, ID: ev.Task<<1 | 1})
				}
			case EvRegionFork:
				out = append(out, chromeEvent{Name: "region fork", Cat: "region", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"team": ev.Team, "size": ev.Arg, "level": ev.Level}})
			case EvRegionJoin:
				out = append(out, chromeEvent{Name: "region join", Cat: "region", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid, Args: map[string]any{"team": ev.Team}})
			case EvTeamLease:
				hit := ev.Arg>>32 != 0
				out = append(out, chromeEvent{Name: "team lease", Cat: "pool", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"team": ev.Team, "size": uint32(ev.Arg), "pool_hit": hit}})
			case EvTeamRetire:
				out = append(out, chromeEvent{Name: "team retire", Cat: "pool", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid, Args: map[string]any{"team": ev.Team}})
			case EvStealSuccess:
				out = append(out, chromeEvent{Name: "steal", Cat: "steal", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid,
					Args: map[string]any{"task": ev.Task, "victim": int32(uint32(ev.Arg))}})
			case EvTaskInline:
				out = append(out, chromeEvent{Name: "inline task", Cat: "task", Ph: "i", S: "t",
					Ts: ts, Pid: chromePid, Tid: tid, Args: map[string]any{"task": ev.Task}})
			}
		}
		// Close anything the trace cut off, at the trace end.
		for i := len(stack) - 1; i >= 0; i-- {
			sp := stack[i]
			sp.ev.Dur = usec(max(maxTs-sp.startNs, 0))
			out = append(out, sp.ev)
		}
	}

	st := c.stats()
	trace := chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"tool":            "aomplib tracer",
			"events_recorded": st.EventsRecorded,
			"events_dropped":  st.EventsDropped,
			"tracks":          len(tracks),
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// String names a TaskKind for trace args.
func (k TaskKind) String() string {
	switch k {
	case TaskDeferred:
		return "deferred"
	case TaskFuture:
		return "future"
	case TaskDependent:
		return "dependent"
	case TaskFutureDependent:
		return "future+dependent"
	}
	return "unknown"
}
