package main

import (
	"math"
	"sort"
	"sync"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so figures printed here agree with scripts that check them.
// Fewer than two values return the lone value (or zeros) for all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// CPython's exclusive method, integer for integer: cut point i of n=4
	// sits at i·(len+1)/4, j is clamped to [1, len-1] and the value is
	// interpolated (or, near the ends, extrapolated) from s[j-1] and s[j].
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); zero for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tailPercentile is the highest of the conventional tail percentiles (99,
// 95, 90, 75, 50) that leaves at least tailSamples of n samples beyond it,
// or 0 when even the median does not. 200 samples is the least that
// supports p95.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if beyond >= tailSamples {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tally counts the operations a run attempted and how many failed. A
// failed operation is a returned error, a non-2xx response, a job that
// ended failed or canceled, or an output that fails its correctness check.
// Simulated protocol failures inside results are data, not failures.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, err.Error())
		}
	}
}

// check records a correctness check as one operation.
func (t *tally) check(ok bool, what string) {
	if ok {
		t.op(nil)
		return
	}
	t.op(checkError(what))
}

type checkError string

func (e checkError) Error() string { return "check failed: " + string(e) }

// ratio is failed over attempted (0 when nothing was attempted).
func (t *tally) ratio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
