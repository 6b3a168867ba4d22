package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
)

// summary is the spread of one sample set: its median, quartiles and size.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted data
// (the "type 7" estimator). It returns 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summarize returns the median and quartiles of xs.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// median is summarize(xs).Median.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentile returns the 99th percentile of xs by nearest rank when at
// least ten samples lie beyond it, otherwise the highest percentile that
// still has ten samples beyond it; p reports the percentile used. With ten
// or fewer samples no percentile qualifies and the maximum is returned
// (p = 100), so a short run still reports its worst case.
func tailPercentile(xs []float64) (v, p float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(0.99 * float64(n))) // 1-based nearest rank of p99
	if n-rank < 10 {
		rank = n - 10
	}
	if rank < 1 {
		return s[n-1], 100
	}
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// geomean is the geometric mean of xs; it is 0 when xs is empty or holds a
// value that is not positive, since such a mean would be meaningless.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// bootstrapRatioCI resamples num and den independently with replacement
// and returns the 2.5th and 97.5th percentiles of median(num)/median(den)
// over reps resamples: a 95% interval for the ratio of medians.
func bootstrapRatioCI(num, den []float64, reps int, r *rand.Rand) (lo, hi float64) {
	if len(num) == 0 || len(den) == 0 || reps < 1 {
		return 0, 0
	}
	ratios := make([]float64, reps)
	a := make([]float64, len(num))
	b := make([]float64, len(den))
	for i := range ratios {
		for j := range a {
			a[j] = num[r.IntN(len(num))]
		}
		for j := range b {
			b[j] = den[r.IntN(len(den))]
		}
		ratios[i] = median(a) / median(b)
	}
	slices.Sort(ratios)
	return quantile(ratios, 0.025), quantile(ratios, 0.975)
}

// tally counts operations and the ones that failed their check, keeping
// the first few failure messages for the report.
type tally struct {
	attempted, failed int
	msgs              []string
}

const maxFailureMsgs = 8

// add counts one checked operation; a non-nil err counts as a failure.
func (t *tally) add(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.msgs) < maxFailureMsgs {
		t.msgs = append(t.msgs, fmt.Sprintf("%s: %v", what, err))
	}
}

// merge folds o into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.msgs {
		if len(t.msgs) < maxFailureMsgs {
			t.msgs = append(t.msgs, m)
		}
	}
}

// share is failed over attempted (0 when nothing was attempted).
func (t *tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func (t *tally) String() string {
	return fmt.Sprintf("%d/%d failed [%s]", t.failed, t.attempted, strings.Join(t.msgs, "; "))
}
