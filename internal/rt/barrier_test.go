package rt

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierGenerationWraparound pins the overflow semantics of the
// generation counter: Wait returns the completing generation even as the
// uint64 wraps, and arrival accounting — which is modular, not tied to the
// generation value — keeps pairing phases across the wrap.
func TestBarrierGenerationWraparound(t *testing.T) {
	b := NewBarrier(1)
	b.gen.Store(math.MaxUint64)
	if g := b.Wait(); g != math.MaxUint64 {
		t.Fatalf("pre-wrap generation = %d, want MaxUint64", g)
	}
	if g := b.Wait(); g != 0 {
		t.Fatalf("post-wrap generation = %d, want 0", g)
	}
	if g := b.Wait(); g != 1 {
		t.Fatalf("second post-wrap generation = %d, want 1", g)
	}
}

// TestBarrierGenerationWraparoundMultiParty is the same wrap under real
// concurrency: every party of every phase must observe the same completing
// generation, across the wrap.
func TestBarrierGenerationWraparoundMultiParty(t *testing.T) {
	const n, phases = 4, 8
	b := NewBarrier(n)
	start := uint64(math.MaxUint64 - phases/2) // wrap mid-run
	b.gen.Store(start)
	gens := make([][phases]uint64, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				gens[id][p] = b.Wait()
			}
		}(id)
	}
	wg.Wait()
	for p := 0; p < phases; p++ {
		want := start + uint64(p) // wraps like the barrier does
		for id := 0; id < n; id++ {
			if gens[id][p] != want {
				t.Fatalf("party %d phase %d saw generation %d, want %d",
					id, p, gens[id][p], want)
			}
		}
	}
}

// TestBarrierParkPath forces every waiter through the spin-exhausted park
// path (the long spin is ruled out, the short spin bound clamps at the
// minimum, and the releaser is delayed by the sheer party count) and
// checks phase pairing survives it. Run with -race this doubles as the
// missed-wakeup check for the parked protocol.
func TestBarrierParkPath(t *testing.T) {
	const n, phases = 8, 50
	b := NewBarrier(n)
	b.fits = false  // never the long spin, whatever the phases carry
	b.spin.Store(1) // short spin budget too small to ever catch a release
	var before [phases]atomic.Int32
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				before[p].Add(1)
				b.Wait()
				if got := before[p].Load(); got != n {
					t.Errorf("phase %d: %d arrivals visible after barrier", p, got)
				}
			}
		}()
	}
	wg.Wait()
}

// runPhases drives a 2-party barrier through phases, each party
// busy-working for work before every arrival.
func runPhases(b *Barrier, phases int, work time.Duration) {
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				for t0 := time.Now(); time.Since(t0) < work; {
				}
				b.Wait()
			}
		}()
	}
	wg.Wait()
}

// TestBarrierLongSpinGate checks the phase clock's gate: phases that each
// carry ~20 µs of work select the long spin within a few dozen phases,
// and a zero-work loop does not. fits is forced on so the gate is tested
// the same way whatever the host's CPU count.
func TestBarrierLongSpinGate(t *testing.T) {
	b := NewBarrier(2)
	b.fits = true
	runPhases(b, 48, 20*time.Microsecond)
	if !b.longSpin() {
		t.Fatalf("20 µs phases: long spin not selected (phase average %d ns)", b.phaseNs.Load())
	}

	// Zero-work phases take well under a microsecond, but one sample can
	// catch a preemption and lift the average for a few samples; the gate
	// must be off at the end of at least one of a few batches.
	b = NewBarrier(2)
	b.fits = true
	for try := 0; ; try++ {
		runPhases(b, 800, 0)
		if !b.longSpin() {
			break
		}
		if try == 4 {
			t.Fatalf("zero-work phases: long spin selected (phase average %d ns)", b.phaseNs.Load())
		}
	}
}

// TestBarrierWideTeam drives a barrier from a team much wider than the
// common 2-8 workers, so every phase needs many arrivals on the one
// counter before the release.
func TestBarrierWideTeam(t *testing.T) {
	const n, phases = 13, 25
	done := make([]atomic.Int32, phases)
	Region(n, func(w *Worker) {
		for p := 0; p < phases; p++ {
			done[p].Add(1)
			w.Team.Barrier().Wait()
			if got := done[p].Load(); got != n {
				t.Errorf("phase %d: %d arrivals visible after barrier", p, got)
			}
		}
	})
}

// TestBarrierHotTeamLeaseRetireRace interleaves barrier phases with the
// hot-team lifecycle under -race: leases from the pool, clean recycles,
// panic retirement (which must not strand the other workers mid-phase),
// and pool drains from a concurrent goroutine. The barrier's monotonic
// counters must keep pairing phases across all of it — a clean lease
// always leaves the barrier between generations.
func TestBarrierHotTeamLeaseRetireRace(t *testing.T) {
	prev := SetHotTeams(true)
	defer SetHotTeams(prev)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // pool churn: drains retire cached teams between leases
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				SetHotTeams(false)
				SetHotTeams(true)
			}
		}
	}()

	for i := 0; i < 25; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil && r != "retire" {
					panic(r)
				}
			}()
			Region(4, func(w *Worker) {
				for p := 0; p < 3; p++ {
					w.Team.Barrier().Wait()
				}
				// Panic only after every barrier phase paired, so the
				// remaining workers are never stranded at one; the team is
				// poisoned and retired, never recycled.
				if i%5 == 3 && w.ID == 2 {
					panic("retire")
				}
			})
		}()
	}
	close(stop)
	churn.Wait()
}
