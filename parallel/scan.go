package parallel

import (
	"aomplib/internal/rt"
	"aomplib/internal/sched"
)

// scanEntry is the pooled region argument of a Scan[T] call.
type scanEntry[T any] struct {
	cfg      config
	xs       []T
	grain    int
	kind     sched.Kind
	identity T
	// Encounter keys of the two worked phases: e itself, or stable
	// loopKeys (distinct phase tags) for Adaptive — the sum and apply
	// passes have different cost profiles, so they learn separately.
	keySum   any
	keyApply any
	combine  func(a, b T) T
	sums     []T
	// Cached instantiated generic func values, for the same 0 allocs/op
	// reason as reduceEntry: a generic func value is a runtime dictionary
	// closure, built once per pooled entry instead of once per call.
	body      func(*rt.Worker, any)
	spanSum   rt.SpanFunc
	spanApply rt.SpanFunc
}

// Scan replaces xs in place with its inclusive prefix combination:
// xs[i] becomes combine(combine(...combine(identity, xs[0])...), xs[i]).
// It is the classic two-pass parallel prefix: pass one folds each chunk to
// a partial sum, a serial sweep turns the chunk sums into chunk offsets,
// and pass two rewrites each chunk from its offset — all three phases
// inside a single region, separated by team barriers, so the team is
// leased once.
//
// Chunking follows the same rule as Reduce: boundaries depend only on
// (len(xs), WithGrain), so the combine-call tree is identical at every
// team width and the result is deterministic (and equal to the sequential
// scan when combine is associative with identity as a true identity).
// Inside an existing parallel region the same three phases run serially on
// the caller.
func Scan[T any](xs []T, identity T, combine func(a, b T) T, opts ...Opt) {
	n := len(xs)
	if n == 0 {
		return
	}
	pool := poolOf[scanEntry[T]]()
	e := pool.Get().(*scanEntry[T])
	if e.body == nil {
		e.body = scanBody[T]
		e.spanSum = scanSumSpan[T]
		e.spanApply = scanApplySpan[T]
	}
	applyInto(&e.cfg, opts)
	grain := e.cfg.grain
	if grain < 1 {
		grain = sched.AutoGrain(n)
	}
	chunks := (n + grain - 1) / grain
	e.xs, e.grain, e.identity, e.combine = xs, grain, identity, combine
	if cap(e.sums) < chunks {
		e.sums = make([]T, chunks)
	} else {
		e.sums = e.sums[:chunks]
	}

	width := e.cfg.width(chunks)
	if width <= 1 || chunks == 1 || rt.Current() != nil {
		cs := sched.Space{Lo: 0, Hi: chunks, Step: 1}
		scanSumSpan[T](cs, e)
		scanOffsets(e)
		scanApplySpan[T](cs, e)
	} else {
		e.kind = sched.Resolve(e.cfg.sched, chunks, width)
		e.keySum, e.keyApply = e, e
		if e.kind == sched.Adaptive {
			e.keySum = stableKey(combine, 0)
			e.keyApply = stableKey(combine, 1)
		}
		rt.RegionArg(width, e.body, e)
	}

	var zero T
	e.xs, e.combine = nil, nil
	for i := range e.sums {
		e.sums[i] = zero
	}
	pool.Put(e)
}

// scanBody runs the three scan phases on one worker, with team barriers
// between them: chunk sums, serial offset sweep on worker 0, chunk apply.
func scanBody[T any](w *rt.Worker, arg any) {
	e := arg.(*scanEntry[T])
	cs := sched.Space{Lo: 0, Hi: len(e.sums), Step: 1}
	rt.ForSpan(w, cs, e.kind, e.keySum, 1, e.spanSum, arg)
	w.Team.Barrier().Wait()
	if w.ID == 0 {
		scanOffsets(e)
	}
	w.Team.Barrier().Wait()
	rt.ForSpan(w, cs, e.kind, e.keyApply, 1, e.spanApply, arg)
}

// scanSumSpan folds each assigned chunk to its partial sum (pass one).
func scanSumSpan[T any](sub sched.Space, arg any) {
	e := arg.(*scanEntry[T])
	n := sub.Count()
	for i := 0; i < n; i++ {
		k := sub.At(i)
		lo, hi := chunkBounds(k, e.grain, len(e.xs))
		acc := e.identity
		for j := lo; j < hi; j++ {
			acc = e.combine(acc, e.xs[j])
		}
		e.sums[k] = acc
	}
}

// scanOffsets turns chunk sums into exclusive chunk offsets in place
// (serial middle phase).
func scanOffsets[T any](e *scanEntry[T]) {
	prev := e.identity
	for k := range e.sums {
		s := e.sums[k]
		e.sums[k] = prev
		prev = e.combine(prev, s)
	}
}

// scanApplySpan rewrites each assigned chunk as a running prefix seeded
// from its offset (pass two).
func scanApplySpan[T any](sub sched.Space, arg any) {
	e := arg.(*scanEntry[T])
	n := sub.Count()
	for i := 0; i < n; i++ {
		k := sub.At(i)
		lo, hi := chunkBounds(k, e.grain, len(e.xs))
		acc := e.sums[k]
		for j := lo; j < hi; j++ {
			acc = e.combine(acc, e.xs[j])
			e.xs[j] = acc
		}
	}
}

// chunkBounds returns the half-open element range of chunk k.
func chunkBounds(k, grain, n int) (lo, hi int) {
	lo = k * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}
