package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Barrier is a reusable team barrier with generation counting (equivalent
// to a sense-reversing barrier). Each call to Wait blocks until all n
// parties have arrived; the barrier then resets for the next phase. The
// generation discipline is what lets a hot team reuse one barrier across
// every region entry it serves: a clean lease always leaves the barrier
// between generations (all waits paired), so no reset is needed at lease
// boundaries.
//
// Arrivals are counted on one cache-line-padded atomic counter instead of
// a mutex: each arriver pays one RMW, and the last arriver of a phase
// publishes the next generation. Waiters spin on the generation word
// before parking on a condition variable. How long they spin depends on
// the work recent phases carried, which releasers sample on a coarse
// phase clock: when phases carry real work and the team fits in
// GOMAXPROCS, a waiter spins for a fixed time budget of about one
// park-plus-wake round trip, so a phase that ends within it costs no
// cross-CPU wake-up; when phases carry no work, the spin is a short
// adaptively bounded one (sized by where recent phases were observed to
// complete), because parking lets the parties hand off on one P, which
// is cheaper than spinning across cores.
//
// The arrival counter is monotonic and the release check is modular, so no
// per-generation reset exists to race with the next phase's arrivals, and
// the generation counter wraps around uint64 without disturbing arrival
// accounting.
//
// Its scope is one team of threads, matching the paper: "The barrier has
// the scope of a team of threads, in a way similar to OpenMP (this
// contrasts with @Critical whose scope is all threads in the system)."
type Barrier struct {
	parties int

	// gen is the release word every waiter spins on; alone on its line so
	// arrival RMW traffic does not invalidate it between releases.
	gen atomic.Uint64
	_   [56]byte

	// arrived counts every arrival ever made; a generation completes each
	// time it reaches a multiple of parties. Padded so the spin bound
	// below does not share its line.
	arrived atomic.Int64
	_       [56]byte

	// spin is the adaptive spin bound in loop iterations, resized toward
	// twice the iteration recent releases were observed at and halved on
	// every park. Races on it are benign tuning noise.
	spin atomic.Int32

	// fits reports that the team is no wider than GOMAXPROCS was at
	// construction, so every party can spin on its own P; only then may
	// waiters take the long spin.
	fits bool

	// The phase clock. Every barrierClockGens-th releaser samples the
	// clock into clockNs and folds the mean phase length since the last
	// sample into phaseNs, a moving average waiters read to choose their
	// spin. Only releasers write them; the other releases read no clock.
	clockNs atomic.Int64
	phaseNs atomic.Int64

	// parked counts waiters committed to sleeping; the releaser takes the
	// broadcast mutex only when it is non-zero, so the spin-release fast
	// path never touches mu.
	parked atomic.Int32
	mu     sync.Mutex
	cond   *sync.Cond

	// owner is the team the barrier synchronises, set by newTeam; nil for
	// standalone barriers. Observability reads it.
	owner *Team
}

const (
	barrierSpinMin  = 64      // never spin less: a release often lands within nanoseconds
	barrierSpinMax  = 1 << 15 // never spin more: beyond ~tens of µs, parking is cheaper
	barrierSpinInit = 1 << 10
	// barrierYieldMask: Gosched every so many spin iterations, so
	// oversubscribed teams (more workers than Ps) cannot starve the
	// arrivals that would release them.
	barrierYieldMask = 63

	// barrierClockGens: releasers sample the phase clock on every so
	// many generations (a power of two), keeping clock reads off the
	// other releases.
	barrierClockGens = 8
	// barrierPhaseMaxNs caps one phase-length sample, so an idle gap
	// between regions (a hot team's barrier outlives its leases) cannot
	// hold the average up for long after work-free phases resume.
	barrierPhaseMaxNs = 64_000
	// barrierLongPhaseNs: phases averaging at least this long carry real
	// work, and waiters take the long spin.
	barrierLongPhaseNs = 5_000
	// barrierLongSpinNs is the long spin's time budget: about one
	// park-plus-wake round trip, so a release caught within it is
	// cheaper than parking for it would have been.
	barrierLongSpinNs = 50_000
	// barrierLongCheckMask: the long spin reads the clock and yields
	// every so many iterations.
	barrierLongCheckMask = 255
)

// barrierEpoch anchors the phase clock; time.Since reads the monotonic
// clock from it.
var barrierEpoch = time.Now()

func barrierNow() int64 { return int64(time.Since(barrierEpoch)) }

// ownerID is the team identity carried by barrier trace events.
func (b *Barrier) ownerID() uint64 {
	if b.owner != nil {
		return b.owner.tid
	}
	return 0
}

// NewBarrier creates a barrier for the given number of parties (≥ 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		parties = 1
	}
	b := &Barrier{parties: parties, fits: parties <= runtime.GOMAXPROCS(0)}
	b.cond = sync.NewCond(&b.mu)
	b.spin.Store(barrierSpinInit)
	return b
}

// Wait blocks the caller until all parties have called Wait for the
// current generation. The last arriver releases everyone and the barrier
// implicitly resets for the next phase. Returns the generation index that
// completed, which is useful for tests and phase-counting diagnostics.
// Any `parties` arrivals complete a generation, whichever goroutines make
// them.
//
// With a tool installed the arrival is instrumented: the depart event
// carries the nanoseconds this caller spent blocked, which the trace
// renders as a wait slice. The clock reads run only then.
func (b *Barrier) Wait() uint64 {
	if h := obsHooks(); h != nil {
		gid := curGID()
		if h.BarrierArrive != nil {
			h.BarrierArrive(gid, b.ownerID())
		}
		t0 := time.Now()
		gen := b.wait()
		if h.BarrierDepart != nil {
			h.BarrierDepart(gid, b.ownerID(), time.Since(t0).Nanoseconds())
		}
		return gen
	}
	return b.wait()
}

func (b *Barrier) wait() uint64 {
	g := b.gen.Load()
	if b.arrive() {
		b.release()
	} else {
		b.await(g)
	}
	return g
}

// arrive counts one arrival, reporting whether the caller completed the
// generation (and must release). The counter is monotonic and a modular
// check detects the last arrival, so generations need no reset and
// arrivals for the next phase — which cannot start before this release —
// reuse the same counter.
func (b *Barrier) arrive() bool {
	return b.arrived.Add(1)%int64(b.parties) == 0
}

// release publishes the next generation and wakes parked waiters. The
// parked load is ordered after the generation store (sequentially
// consistent atomics), pairing with await's parked-increment-then-check,
// so a waiter committing to sleep is either seen here or sees the new
// generation itself. Every barrierClockGens-th release then samples the
// phase clock, after the waiters are already on their way.
func (b *Barrier) release() {
	g := b.gen.Add(1)
	if b.parked.Load() != 0 {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	if g%barrierClockGens == 0 {
		b.samplePhase()
	}
}

// samplePhase folds the mean phase length since the previous sample into
// the phaseNs moving average (weight 1/4). The first sample only starts
// the clock.
func (b *Barrier) samplePhase() {
	now := barrierNow()
	prev := b.clockNs.Swap(now)
	if prev == 0 {
		return
	}
	d := min((now-prev)/barrierClockGens, barrierPhaseMaxNs)
	avg := b.phaseNs.Load()
	b.phaseNs.Store(avg + (d-avg)/4)
}

// longSpin reports whether waiters currently take the long spin: recent
// phases carried real work and every party has a P to spin on.
func (b *Barrier) longSpin() bool {
	return b.fits && b.phaseNs.Load() >= barrierLongPhaseNs
}

// await blocks until generation g completes: first a spin on the
// generation word, then a parked sleep. When phases carry work the spin
// is the long, time-bounded one. Otherwise its bound chases the iteration
// recent releases arrived at (doubled for slack, clamped), so
// zero-work loops that release within it stay on the spin path while
// phases that overrun it shrink the bound and park almost immediately.
func (b *Barrier) await(g uint64) {
	if b.longSpin() {
		if !b.spinFor(g) {
			b.park(g)
		}
		return
	}
	bound := int(b.spin.Load())
	for i := 0; i < bound; i++ {
		if b.gen.Load() != g {
			// Released while spinning: retune only on real drift so the
			// steady state does not write-share the bound.
			if want := clampSpin(2 * (i + 1)); want > bound || want < bound/4 {
				b.spin.Store(int32(want))
			}
			return
		}
		if i&barrierYieldMask == barrierYieldMask {
			runtime.Gosched()
		}
	}
	b.spin.Store(int32(clampSpin(bound / 2)))
	b.park(g)
}

// spinFor spins on the generation word for up to barrierLongSpinNs,
// reading the clock and yielding every barrierLongCheckMask+1 iterations,
// and reports whether generation g completed meanwhile.
func (b *Barrier) spinFor(g uint64) bool {
	start := barrierNow()
	for i := 1; ; i++ {
		if b.gen.Load() != g {
			return true
		}
		if i&barrierLongCheckMask == 0 {
			if barrierNow()-start >= barrierLongSpinNs {
				return false
			}
			runtime.Gosched()
		}
	}
}

// park sleeps on the condvar until generation g completes.
func (b *Barrier) park(g uint64) {
	b.parked.Add(1)
	b.mu.Lock()
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
	b.parked.Add(-1)
}

func clampSpin(n int) int {
	if n < barrierSpinMin {
		return barrierSpinMin
	}
	if n > barrierSpinMax {
		return barrierSpinMax
	}
	return n
}

// Parties returns the number of workers the barrier synchronises.
func (b *Barrier) Parties() int { return b.parties }
