package regression

import (
	"sbr/internal/timeseries"
)

// This file holds the fused SSE shift-scan kernel: the inner loop of
// BestMap's Algorithm 2 scan under the SSE metric, restructured for
// throughput. Per shift it needs only the cross moment Σ X·Y (the X and Y
// segment moments come from prefix sums and hoisted constants), computed
// with four independent accumulators so the floating-point add chain no
// longer serialises the loop; the regression coefficients are derived only
// for shifts that improve on the best error seen so far, which a scan
// reaches O(log shifts) times on average.
//
// The kernel is a pure function of its arguments and evaluates shifts in
// ascending order with a strict < improvement test, so it is the
// deterministic reference the screened scan reproduces exactly, and two
// goroutines may run it at once for different intervals.

// Dot returns the dot product of two equal-length series, computed with
// the same four-accumulator order as the scan kernel below.
func Dot(a, b timeseries.Series) float64 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	var c0, c1, c2, c3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += a[i] * b[i]
		c1 += a[i+1] * b[i+1]
		c2 += a[i+2] * b[i+2]
		c3 += a[i+3] * b[i+3]
	}
	out := (c0 + c1) + (c2 + c3)
	for ; i < len(a); i++ {
		out += a[i] * b[i]
	}
	return out
}

// SSEFromSums finishes the least-squares fit from precomputed moments —
// for callers that hoist per-segment sums out of pairwise loops (the
// GetBase error matrix) instead of re-accumulating them per fit.
func SSEFromSums(sumX, sumY, sumXY, sumX2, sumY2 float64, length int) Fit {
	return sseFromSums(sumX, sumY, sumXY, sumX2, sumY2, length)
}

// ScanSSEMins evaluates the least-squares mapping of the fixed segment
// y[startY : startY+length) onto X[s : s+length) for every shift s in
// [lo, hi) ascending, calling emit(s, fit) whenever the SSE strictly beats
// best (which then becomes the new bar). px must hold prefix sums covering
// x; sumY and sumY2 are the Y-segment moments.
func ScanSSEMins(x timeseries.Series, px *timeseries.Prefix, y timeseries.Series,
	sumY, sumY2 float64, startY, length, lo, hi int, best float64,
	emit func(shift int, f Fit)) {

	if length <= 0 || hi <= lo {
		return
	}
	k := newSSEScan(x, px, y, sumY, sumY2, startY, length)
	for s := lo; s < hi; s++ {
		if f, ok := k.at(s, best); ok {
			best = f.Err
			emit(s, f)
		}
	}
}

// sseScan is one interval's scan state: the Y segment and its hoisted
// moments, and the X signal with its raw prefix sums. Its at method is the
// one per-shift evaluation that both the plain and the screened scan run,
// so the two cannot drift apart.
type sseScan struct {
	x           timeseries.Series
	psum, psum2 []float64
	ys          timeseries.Series
	n, my, varY float64
}

func newSSEScan(x timeseries.Series, px *timeseries.Prefix, y timeseries.Series,
	sumY, sumY2 float64, startY, length int) sseScan {
	n := float64(length)
	my := sumY / n
	psum, psum2 := px.Raw()
	return sseScan{
		x: x, psum: psum, psum2: psum2,
		ys: y[startY : startY+length],
		n:  n, my: my, varY: sumY2/n - my*my,
	}
}

// at fits the Y segment onto X[s : s+length) and returns the fit when its
// SSE strictly beats best.
func (k *sseScan) at(s int, best float64) (Fit, bool) {
	length := len(k.ys)
	n, my, varY := k.n, k.my, k.varY
	sumX := k.psum[s+length] - k.psum[s]
	sumX2 := k.psum2[s+length] - k.psum2[s]
	mx := sumX / n
	varX := sumX2/n - mx*mx
	if varX <= epsVar {
		// Degenerate X segment: horizontal line through the Y mean. The
		// cross moment plays no part, so it is not computed.
		err := n * varY
		if err < 0 {
			err = 0
		}
		if err < best {
			return Fit{A: 0, B: my, Err: err}, true
		}
		return Fit{}, false
	}

	xs := k.x[s : s+length]
	yv := k.ys[:len(xs)] // same length; lets the compiler drop bounds checks
	// Cross moment with four independent accumulators: the adds of
	// different accumulators overlap in the pipeline instead of waiting
	// on one chain. The combination order is fixed, so the value is
	// deterministic (though not bit-identical to a single-chain sum).
	var c0, c1, c2, c3 float64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		c0 += xs[i] * yv[i]
		c1 += xs[i+1] * yv[i+1]
		c2 += xs[i+2] * yv[i+2]
		c3 += xs[i+3] * yv[i+3]
	}
	sumXY := (c0 + c1) + (c2 + c3)
	for ; i < len(xs); i++ {
		sumXY += xs[i] * yv[i]
	}
	cov := sumXY/n - mx*my
	a := cov / varX
	err := n * (varY - a*cov)
	if err < 0 {
		err = 0
	}
	if err < best {
		return Fit{A: a, B: my - a*mx, Err: err}, true
	}
	return Fit{}, false
}
