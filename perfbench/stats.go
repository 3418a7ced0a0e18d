package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile. Fewer, and the percentile is decided by a handful of
// samples and will not repeat from run to run.
const minBeyondTail = 10

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tail returns the q-quantile of xs, and fails when fewer than
// minBeyondTail samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	if beyond := len(xs) - rank(len(xs), q) - 1; len(xs) == 0 || beyond < minBeyondTail {
		return 0, fmt.Errorf("p%s of %d samples has %d beyond it, want at least %d",
			pct(q), len(xs), max(beyond, 0), minBeyondTail)
	}
	return quantile(xs, q), nil
}

// pct renders a quantile as a percentile label: 0.99 → "99".
func pct(q float64) string { return fmt.Sprintf("%g", math.Round(q*1000)/10) }

// median is the middle value of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rateWindows is how many equal windows a phase is split into for a rate.
const rateWindows = 10

// event is one unit of work: weight (samples, or one query) done over
// [start, end], in seconds from the start of its phase.
type event struct{ start, end, weight float64 }

// windowRate is the median, over the phase split into rateWindows equal
// windows, of the weight done per second in each window. Each event's
// weight is spread evenly over its interval, or counted at its end when
// the interval is empty. The median keeps a burst of CPU steal in one
// window from moving the figure, as a median latency would.
func windowRate(evs []event, phase float64) float64 {
	if phase <= 0 {
		return 0
	}
	w := phase / rateWindows
	sums := make([]float64, rateWindows)
	for _, e := range evs {
		if e.end <= e.start {
			sums[min(max(int(e.end/w), 0), rateWindows-1)] += e.weight
			continue
		}
		per := e.weight / (e.end - e.start)
		for i := max(int(e.start/w), 0); i < rateWindows && float64(i)*w < e.end; i++ {
			if lo, hi := max(e.start, float64(i)*w), min(e.end, float64(i+1)*w); hi > lo {
				sums[i] += per * (hi - lo)
			}
		}
	}
	for i := range sums {
		sums[i] /= w
	}
	return median(sums)
}

// latencyNote describes a latency figure: percentile and sample count.
func latencyNote(q float64, n int) string { return fmt.Sprintf("p%s n=%d", pct(q), n) }

// nmse accumulates the normalised mean squared error of a reconstruction,
// Σ(x−x̂)² / Σ(x−x̄)², over whole series: x̄ is each series' own mean, so
// quantities of different scales each contribute their own variance.
type nmse struct {
	num, den float64
	samples  int
}

// add folds one series and its reconstruction in.
func (e *nmse) add(x, xhat []float64) error {
	if len(x) != len(xhat) {
		return fmt.Errorf("reconstruction has %d samples, input %d", len(xhat), len(x))
	}
	if len(x) == 0 {
		return nil
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	mu := sum / float64(len(x))
	for i, v := range x {
		d := v - xhat[i]
		e.num += d * d
		c := v - mu
		e.den += c * c
	}
	e.samples += len(x)
	return nil
}

// value is the accumulated ratio; it fails when the inputs had no
// variance to normalise by.
func (e *nmse) value() (float64, error) {
	if e.den == 0 {
		return 0, fmt.Errorf("error_nmse over %d samples with zero variance", e.samples)
	}
	return e.num / e.den, nil
}

// finite reports whether v is a real number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sameBits reports whether two series are bit for bit identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
