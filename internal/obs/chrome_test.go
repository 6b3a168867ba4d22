package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// parsedEvent mirrors the subset of the Chrome trace-event fields the
// validations need.
type parsedEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Tid  int            `json:"tid"`
	ID   uint64         `json:"id"`
	Args map[string]any `json:"args"`
}

type parsedTrace struct {
	TraceEvents     []parsedEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func exportTrace(t *testing.T, c *collector, evs []Event) parsedTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, c, evs); err != nil {
		t.Fatalf("writeChromeTrace: %v", err)
	}
	var tr parsedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return tr
}

// checkNesting asserts that the "X" duration slices of every track are
// properly nested: any two slices on one track are either disjoint or one
// contains the other.
func checkNesting(t *testing.T, evs []parsedEvent) {
	t.Helper()
	const eps = 1e-6
	byTid := map[int][]parsedEvent{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			byTid[ev.Tid] = append(byTid[ev.Tid], ev)
		}
	}
	for tid, spans := range byTid {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Ts != spans[j].Ts {
				return spans[i].Ts < spans[j].Ts
			}
			return spans[i].Dur > spans[j].Dur // ties: container first
		})
		var stack []parsedEvent
		for _, sp := range spans {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= sp.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if sp.Ts+sp.Dur > top.Ts+top.Dur+eps {
					t.Fatalf("track %d: slice %q [%f,%f] partially overlaps %q [%f,%f]",
						tid, sp.Name, sp.Ts, sp.Ts+sp.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, sp)
		}
	}
}

// A synthetic two-worker timeline with every record kind must export as
// valid JSON: named worker tracks, properly nested slices, and matched
// flow arrows for the task and its dependence release.
func TestChromeExportStructure(t *testing.T) {
	c := newCollector(256, 128)
	h := c.hooks()
	c.start()

	spanID := InternName("Demo.run")
	h.TeamLease(NoWorker, 1, 2, true)
	h.RegionFork(0, 1, 1, 2)
	h.ImplicitBegin(0, 1, 1)
	h.ImplicitBegin(1, 1, 1)
	h.SpanBegin(0, spanID)
	h.WorkBegin(0, 1, 0)
	h.WorkEnd(0, 1)
	h.TaskCreate(0, 42, TaskDependent)
	h.DepRelease(0, 42)
	h.StealSuccess(1, 42, 0)
	h.TaskSchedule(1, 42)
	h.TaskComplete(1, 42)
	h.BarrierArrive(0, 1)
	h.BarrierDepart(0, 1, 1500)
	h.SpanEnd(0, spanID)
	h.ImplicitEnd(1, 1)
	h.ImplicitEnd(0, 1)
	h.RegionJoin(0, 1, 1)
	h.TeamRetire(1, 2)

	tr := exportTrace(t, c, c.stop())
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	names := map[string]bool{}
	var flowsS, flowsF []uint64
	xNames := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				names[ev.Args["name"].(string)] = true
			}
		case "s":
			flowsS = append(flowsS, ev.ID)
		case "f":
			flowsF = append(flowsF, ev.ID)
		case "X":
			xNames[ev.Name] = true
		}
	}
	for _, want := range []string{"worker 0", "worker 1", "(outside regions)"} {
		if !names[want] {
			t.Fatalf("missing track %q (have %v)", want, names)
		}
	}
	for _, want := range []string{"parallel L1", "Demo.run", "barrier", "task 42"} {
		if !xNames[want] {
			t.Fatalf("missing slice %q (have %v)", want, xNames)
		}
	}
	var spawnArrow, depArrow bool
	for _, s := range flowsS {
		for _, f := range flowsF {
			if s == f {
				if s&1 == 0 {
					spawnArrow = true // spawn arrows use id task<<1
				} else {
					depArrow = true // release arrows use id task<<1|1
				}
			}
		}
	}
	if !spawnArrow {
		t.Fatalf("no matched spawn flow arrow: starts %v finishes %v", flowsS, flowsF)
	}
	if !depArrow {
		t.Fatalf("no matched dependence-release flow arrow: starts %v finishes %v", flowsS, flowsF)
	}
	checkNesting(t, tr.TraceEvents)
}

// A trace cut mid-construct (begins without ends) must still export with
// every slice closed and properly nested.
func TestChromeExportClosesUnbalanced(t *testing.T) {
	c := newCollector(64, 128)
	h := c.hooks()
	c.start()
	h.ImplicitBegin(0, 1, 1)
	h.WorkBegin(0, 1, 0)
	h.TaskSchedule(0, 7)
	// deliberately no ends; one later event moves the trace clock forward
	h.TaskCreate(1, 8, TaskDeferred)

	tr := exportTrace(t, c, c.stop())
	x := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			x++
			if ev.Dur <= 0 {
				t.Fatalf("unclosed slice %q exported without a duration", ev.Name)
			}
		}
	}
	if x != 3 {
		t.Fatalf("exported %d slices, want 3 (implicit, work, task)", x)
	}
	checkNesting(t, tr.TraceEvents)

	// Ends without begins are dropped, not mis-paired.
	c.start()
	h.WorkEnd(0, 1)
	h.TaskComplete(0, 9)
	tr = exportTrace(t, c, c.stop())
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			t.Fatalf("stray end exported a slice: %+v", ev)
		}
	}
}

// An empty trace must still be a valid, loadable file.
func TestChromeExportEmpty(t *testing.T) {
	c := newCollector(8, 128)
	tr := exportTrace(t, c, nil)
	if len(tr.TraceEvents) != 1 { // process_name metadata only
		t.Fatalf("empty trace has %d events, want 1", len(tr.TraceEvents))
	}
}
