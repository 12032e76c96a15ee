package main

import (
	"errors"
	"math"
	"strconv"
	"time"

	"energysched"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample that has at least ⌈q·n⌉ samples at or
// below it. It selects in place (xs is reordered, not sorted), so a
// p99 over many thousands of latencies costs O(n). NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	lo, hi := 0, n-1
	for lo < hi {
		// Median-of-three pivot keeps already-sorted input linear.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// samples is a list of measurements in one unit.
type samples []float64

// q returns the q-quantile without disturbing the receiver.
func (s samples) q(q float64) float64 {
	return quantile(append([]float64(nil), s...), q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally counts attempted and failed operations. A failure is any
// non-2xx response (409 and 429 included), a transport error, or a
// failed output check; every one of them counts against the run.
type tally struct {
	attempted, failed int
	// byKind breaks failures down for the log: "http 409",
	// "transport", "check".
	byKind map[string]int
}

// op records the outcome of one operation.
func (t *tally) op(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	var api *energysched.APIError
	kind := "transport"
	if errors.As(err, &api) {
		kind = "http " + strconv.Itoa(api.Status)
	}
	t.note(kind)
}

// check records one output check; a false ok fails the run.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
		t.note("check")
	}
}

func (t *tally) note(kind string) {
	if t.byKind == nil {
		t.byKind = map[string]int{}
	}
	t.byKind[kind]++
}
