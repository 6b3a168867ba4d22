package parallel

import (
	"math/bits"
	"slices"

	"aomplib/internal/rt"
)

// sortCutoff is the default serial cutoff: partitions at or below this
// length go straight to the stdlib sort. Small enough to expose
// parallelism on mid-sized inputs, large enough that task overhead stays
// in the noise next to a real sort of that many elements.
const sortCutoff = 1024

// Sort sorts xs in place by less, a parallel quicksort over the runtime's
// task deques with a serial cutoff: partitions are split around a
// median-of-three pivot, one side is spawned as a stealable task while the
// other is sorted on the spot, and partitions at or below the cutoff
// (WithGrain overrides it) are finished with the stdlib's pattern-defeating
// quicksort. A depth bound of 2·log2(n) guards against adversarial pivot
// behavior by falling back to the serial sort, so the worst case stays
// O(n log n).
//
// less must be a strict weak ordering and safe for concurrent calls.
// Sort is not stable. Called inside an existing parallel region it spawns
// onto the current team (composable nesting); at top level it opens one
// region of WithThreads width, and idle workers steal partitions as the
// recursion produces them.
func Sort[T any](xs []T, less func(a, b T) bool, opts ...Opt) {
	n := len(xs)
	c := apply(opts)
	cutoff := c.grain
	if cutoff < 1 {
		cutoff = sortCutoff
	}
	if n <= cutoff || n < 2 {
		serialSort(xs, less)
		return
	}
	depth := 2 * bits.Len(uint(n))
	if rt.Current() != nil {
		rt.TaskGroupScope(func() { quickSort(xs, less, cutoff, depth) })
		return
	}
	width := c.width(n)
	if width <= 1 {
		serialSort(xs, less)
		return
	}
	rt.Region(width, func(w *rt.Worker) {
		// The root partition is a task, spawned before the barrier releases
		// the team, so workers entering the region-end join always find
		// claimable work instead of exiting an empty deque.
		if w.ID == 0 {
			rt.Spawn(func() { quickSort(xs, less, cutoff, depth) })
		}
		w.Team.Barrier().Wait()
	})
}

// quickSort recurses on partitions, spawning the smaller side as a task
// and looping on the larger (bounded stack, stealable spare work).
func quickSort[T any](xs []T, less func(a, b T) bool, cutoff, depth int) {
	for len(xs) > cutoff && depth > 0 {
		depth--
		p := partition(xs, less)
		left, right := xs[:p], xs[p:]
		if len(left) < len(right) {
			spawnSort(left, less, cutoff, depth)
			xs = right
		} else {
			spawnSort(right, less, cutoff, depth)
			xs = left
		}
	}
	serialSort(xs, less)
}

// spawnSort defers one partition to the task deques.
func spawnSort[T any](xs []T, less func(a, b T) bool, cutoff, depth int) {
	if len(xs) == 0 {
		return
	}
	rt.Spawn(func() { quickSort(xs, less, cutoff, depth) })
}

// partition splits xs around a median-of-three pivot value (Hoare scheme):
// on return xs[:p] holds elements ≤ pivot and xs[p:] elements ≥ pivot,
// with 0 < p < len(xs) not guaranteed for pathological orderings — the
// caller's depth bound absorbs degenerate splits.
func partition[T any](xs []T, less func(a, b T) bool) int {
	pivot := medianOfThree(xs[0], xs[len(xs)/2], xs[len(xs)-1], less)
	i, j := -1, len(xs)
	for {
		for {
			i++
			if !less(xs[i], pivot) {
				break
			}
		}
		for {
			j--
			if !less(pivot, xs[j]) {
				break
			}
		}
		if i >= j {
			return j + 1
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// medianOfThree returns the median of a, b, c under less.
func medianOfThree[T any](a, b, c T, less func(x, y T) bool) T {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// serialSort is the cutoff sort: the stdlib's pdqsort via a cmp adapter.
func serialSort[T any](xs []T, less func(a, b T) bool) {
	slices.SortFunc(xs, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}
