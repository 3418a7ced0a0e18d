// Package interval implements the piece-wise approximation layer of the SBR
// framework: the Interval record, the BestMap subroutine that maps a data
// interval onto the best-matching segment of the base signal (Algorithm 2),
// the recursive GetIntervals splitter driven by a max-error priority queue
// (Algorithm 3), and the decoder that reconstructs the approximate signal
// from transmitted interval records.
package interval

import (
	"fmt"
	"math"
	"sort"

	"sbr/internal/metrics"
	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

// RampShift is the sentinel Shift value denoting that an interval is
// approximated by standard linear regression against time instead of a
// segment of the base signal. The paper stores "a negative value".
const RampShift = -1

// Interval is the six-field data structure of Section 4.2. The first four
// fields (Start, Shift, A, B) form the record transmitted to the base
// station; Length is recovered at the receiver from the sorted starts and
// Err never leaves the sensor.
type Interval struct {
	Start  int     // first index of the approximated range in the virtual Y
	Length int     // number of samples in the range
	Shift  int     // base-signal offset, or RampShift for plain regression
	A, B   float64 // regression parameters
	Err    float64 // approximation error under the active metric

	// C is the quadratic coefficient of the non-linear encoding extension
	// (the paper's Section 6 future work): the model becomes
	// Y' = C·X² + A·X + B. It stays zero under the paper's linear encoding,
	// making the linear model a strict special case.
	C float64
}

// ValuesPerInterval is the transmission cost of one interval record:
// start, shift and the two regression parameters (Section 4.2).
const ValuesPerInterval = 4

// ValuesPerRampInterval is the cost when the framework runs without a base
// signal at all (pure piecewise linear regression): the shift pointer is
// unnecessary, so each record is 3 values (Section 5.2).
const ValuesPerRampInterval = 3

// ValuesPerQuadInterval is the record cost under the quadratic encoding
// extension: start, shift and three coefficients.
const ValuesPerQuadInterval = 5

// String implements fmt.Stringer for debugging output.
func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d) shift=%d a=%.4g b=%.4g err=%.4g",
		iv.Start, iv.Start+iv.Length, iv.Shift, iv.A, iv.B, iv.Err)
}

// Approximate writes the interval's approximation of y into out, which must
// have length iv.Length. For Shift >= 0 the model is a·X[Shift+i]+b over
// the base signal x; for RampShift it is a·i+b over the local time index.
func (iv Interval) Approximate(x timeseries.Series, out timeseries.Series) {
	if len(out) != iv.Length {
		panic("interval: output buffer size mismatch")
	}
	iv.fill(x, out, 0)
}

// fill is the one reconstruction kernel: it writes the interval's model at
// local offsets [off, off+len(out)) into out.
func (iv Interval) fill(x timeseries.Series, out timeseries.Series, off int) {
	if iv.Shift == RampShift {
		for i := range out {
			t := float64(off + i)
			out[i] = iv.C*t*t + iv.A*t + iv.B
		}
		return
	}
	for i, xv := range x[iv.Shift+off : iv.Shift+off+len(out)] {
		out[i] = iv.C*xv*xv + iv.A*xv + iv.B
	}
}

// Mapper holds the state shared by all BestMap invocations over one batch:
// the current base signal, its prefix sums (for the O(1)-moment fast path of
// the SSE metric), the base-interval width W and the active regression
// fitter.
type Mapper struct {
	X      timeseries.Series
	W      int
	Fitter regression.Fitter

	// DisableRamp disables the plain-linear-regression fall-back, as in the
	// base-signal comparison of Section 5.2. Intervals longer than the base
	// signal still use the ramp, since no shift can cover them.
	DisableRamp bool

	// Quadratic enables the non-linear encoding extension (Section 6
	// future work): intervals are fitted as Y' = C·X² + A·X + B. Only
	// supported under the SSE metric.
	Quadratic bool

	// Cache, when set, memoises shift-scan state across BestMap calls. The
	// insert-count search installs one cache per Encode and grows X between
	// probes by reslicing a fixed backing signal; the cache is only valid
	// under that discipline (X values at indices covered by earlier calls
	// never change). See SearchCache.
	Cache *SearchCache

	px       *timeseries.Prefix
	spec     *regression.Spectra // block spectra of px's signal; nil scans directly
	qbuf     []Interval          // recycled priority-queue backing array for GetIntervals
	handoffs Handoffs            // GetIntervals' helper use since TakeHandoffs
}

// NewMapper builds a Mapper over base signal x.
func NewMapper(x timeseries.Series, w int, fitter regression.Fitter) *Mapper {
	return &Mapper{X: x, W: w, Fitter: fitter, px: timeseries.NewPrefix(x)}
}

// NewMapperWithPrefix builds a Mapper whose prefix sums are supplied by the
// caller. px must cover at least x; it may cover a longer backing signal of
// which x is a prefix, which is how the insert-count search shares one
// prefix-sum computation across all probes (prefix sums accumulate left to
// right, so the sums over a shared prefix are bit-identical). spec, when
// not nil, holds block spectra of that same backing signal and lets SSE
// scans screen shifts by FFT (regression.Spectra); the results are
// identical either way.
func NewMapperWithPrefix(x timeseries.Series, w int, fitter regression.Fitter,
	px *timeseries.Prefix, spec *regression.Spectra) *Mapper {
	return &Mapper{X: x, W: w, Fitter: fitter, px: px, spec: spec}
}

// scanner returns the rangeScanner for y[start : start+length) over
// shifts [lo, hi): the screened or the fused SSE kernel, the quadratic
// evaluator, or the generic metric fitter. Scanners are pure functions of
// the shift range, which is what makes the cross-probe cache bit-exact.
func (m *Mapper) scanner(y timeseries.Series, start, length, lo, hi int) rangeScanner {
	if m.Quadratic {
		x := m.X
		return evalScanner(func(s int) shiftFit {
			fit := regression.Quad(x, y, s, start, length)
			return shiftFit{Shift: s, A: fit.A, B: fit.B, C: fit.C, Err: fit.Err}
		})
	}
	if m.Fitter.Kind == metrics.SSE {
		// SSE fast path: the Y-segment moments are accumulated once here,
		// the X-segment moments come from prefix sums, and the fused kernel
		// computes only the cross moment per shift.
		var sumY, sumY2 float64
		for i := 0; i < length; i++ {
			v := y[start+i]
			sumY += v
			sumY2 += v * v
		}
		x, px, sp := m.X, m.px, m.spec
		scan := regression.ScanSSEMins
		// The screened scan emits the same minima; take it when its
		// transforms cost less than the direct dot products.
		if screenCost, ok := sp.ScreenCost(length, lo, hi); ok && screenCost < (hi-lo)*length {
			scan = sp.ScanSSEMins
		}
		return func(lo, hi int, best float64, out []shiftFit) []shiftFit {
			scan(x, px, y, sumY, sumY2, start, length, lo, hi, best,
				func(s int, f regression.Fit) {
					out = append(out, shiftFit{Shift: s, A: f.A, B: f.B, Err: f.Err})
				})
			return out
		}
	}
	x, fitter := m.X, m.Fitter
	return evalScanner(func(s int) shiftFit {
		fit := fitter.Fit(x, y, s, start, length)
		return shiftFit{Shift: s, A: fit.A, B: fit.B, Err: fit.Err}
	})
}

// rampFit computes the plain-regression fall-back fit for
// y[start : start+length).
func (m *Mapper) rampFit(y timeseries.Series, start, length int) shiftFit {
	if m.Quadratic {
		fit := regression.RampQuad(y, start, length)
		return shiftFit{Shift: RampShift, A: fit.A, B: fit.B, C: fit.C, Err: fit.Err}
	}
	fit := m.Fitter.FitRamp(y, start, length)
	return shiftFit{Shift: RampShift, A: fit.A, B: fit.B, Err: fit.Err}
}

// BestMap fills in iv.Shift, iv.A, iv.B (and iv.C under the quadratic
// encoding) and iv.Err with the best available approximation of
// y[iv.Start : iv.Start+iv.Length): the plain regression fall-back and, for
// intervals no longer than 2W, every shift of the interval over the base
// signal (Algorithm 2). All three encodings (generic metric, quadratic,
// SSE) run through the shared scan engine in scan.go, so they inherit the
// same deterministic reduction and cross-probe caching. BestMap may run
// concurrently for distinct intervals.
func (m *Mapper) BestMap(y timeseries.Series, iv *Interval) {
	// Comparison mode pretends the fall-back is unavailable (Section 5.2).
	useRamp := !m.DisableRamp
	shifts := m.shifts(iv.Length)

	var e *scanEntry
	if m.Cache != nil {
		e = m.Cache.entry(iv.Start, iv.Length)
		e.mu.Lock()
		defer e.mu.Unlock()
	}

	var scanFit shiftFit
	haveScan := false
	if shifts > 0 {
		lo := 0
		if e != nil {
			lo = min(e.scanned, shifts)
		}
		scan := m.scanner(y, iv.Start, iv.Length, lo, shifts)
		if e != nil {
			if shifts > e.scanned {
				// Only the tail beyond the cached coverage needs scanning;
				// continue the running minima from the cached best.
				cur := math.Inf(1)
				if n := len(e.mins); n > 0 {
					cur = e.mins[n-1].Err
				}
				m.Cache.tailShifts.Add(int64(shifts - e.scanned))
				if e.mins == nil {
					// Smooth signals accumulate tens of improvements per
					// entry; pre-sizing avoids the append-doubling garbage.
					e.mins = make([]shiftFit, 0, 24)
				}
				e.mins = scan(e.scanned, shifts, cur, e.mins)
				e.scanned = shifts
			}
			scanFit, haveScan = bestAmong(e.mins, shifts)
		} else {
			scanFit, haveScan = scanBest(scan, 0, shifts)
		}
	}

	if haveScan && !useRamp {
		iv.Shift, iv.A, iv.B, iv.C, iv.Err = scanFit.Shift, scanFit.A, scanFit.B, scanFit.C, scanFit.Err
		return
	}
	ramp := m.cachedRamp(e, y, iv.Start, iv.Length)
	if haveScan && scanFit.Err < ramp.Err {
		iv.Shift, iv.A, iv.B, iv.C, iv.Err = scanFit.Shift, scanFit.A, scanFit.B, scanFit.C, scanFit.Err
		return
	}
	iv.Shift, iv.A, iv.B, iv.C, iv.Err = ramp.Shift, ramp.A, ramp.B, ramp.C, ramp.Err
}

// shifts returns how many shifts BestMap scans for an interval of the
// given length: every placement inside X for intervals no longer than 2W
// (or any length in comparison mode, where the base signal is used
// whenever it is long enough), none otherwise.
func (m *Mapper) shifts(length int) int {
	if length > 2*m.W && !m.DisableRamp {
		return 0
	}
	return max(len(m.X)-length+1, 0)
}

// cachedRamp returns the ramp fall-back fit, memoised on the cache entry
// when one is held (the ramp depends only on the Y segment, never on the
// probe's signal).
func (m *Mapper) cachedRamp(e *scanEntry, y timeseries.Series, start, length int) shiftFit {
	if e != nil && e.rampKnown {
		return e.ramp
	}
	ramp := m.rampFit(y, start, length)
	if e != nil {
		e.ramp, e.rampKnown = ramp, true
	}
	return ramp
}

// Options tunes GetIntervals beyond the paper's defaults.
type Options struct {
	// ErrorTarget, when positive, stops the recursive splitting as soon as
	// the total error drops to the target even if budget remains — the
	// combined error/space bound mode of Section 4.5.
	ErrorTarget float64

	// ValuesPerRecord is the bandwidth cost of one interval record. Zero
	// means ValuesPerInterval (4). The no-base-signal mode uses
	// ValuesPerRampInterval (3), since the shift pointer is elided.
	ValuesPerRecord int
}

// GetIntervals approximates the concatenated signal y (N rows of M values
// each) with at most budget/ValuesPerInterval intervals, following
// Algorithm 3: one interval per row initially, then repeated splitting of
// the worst-error interval. The returned intervals are sorted by Start.
// On large inputs a helper goroutine maps one half of every split
// (helper.go); it has exited by the time GetIntervals returns, and the
// result is the same as without it.
func GetIntervals(m *Mapper, y timeseries.Series, n, rowLen, budget int, opts Options) []Interval {
	if n <= 0 || rowLen <= 0 {
		return nil
	}
	perRecord := opts.ValuesPerRecord
	if perRecord <= 0 {
		perRecord = ValuesPerInterval
	}
	maxIntervals := budget / perRecord
	if maxIntervals < n {
		// The paper assumes B >= 4N; with less budget we still need one
		// interval per row to cover the signal.
		maxIntervals = n
	}

	h := m.startHelper(y, maxIntervals)
	defer h.stop()
	q := newQueue(m.Fitter.Kind, maxIntervals, m.qbuf)
	m.seedRows(h, q, y, n, rowLen)

	var done []Interval // unsplittable single-sample intervals
	for q.countAll(len(done)) < maxIntervals {
		if opts.ErrorTarget > 0 && q.totalErr() <= opts.ErrorTarget {
			break
		}
		iv, ok := q.popSplittable(&done)
		if !ok {
			break
		}
		left := Interval{Start: iv.Start, Length: iv.Length / 2}
		right := Interval{
			Start:  iv.Start + iv.Length/2,
			Length: iv.Length - iv.Length/2,
		}
		m.mapPair(h, y, &left, &right)
		q.push(left)
		q.push(right)
	}

	out := make([]Interval, 0, q.Len()+len(done))
	out = append(out, q.items...)
	out = append(out, done...)
	m.qbuf = q.release()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// seedRows pushes the N initial one-per-row intervals in row order,
// mapping them in pairs so the helper, when one runs, can take a row of
// each pair.
func (m *Mapper) seedRows(h *helper, q *queue, y timeseries.Series, n, rowLen int) {
	for i := 0; i < n; i += 2 {
		a := Interval{Start: i * rowLen, Length: rowLen}
		if i+1 == n {
			m.BestMap(y, &a)
			q.push(a)
			break
		}
		b := Interval{Start: (i + 1) * rowLen, Length: rowLen}
		m.mapPair(h, y, &a, &b)
		q.push(a)
		q.push(b)
	}
}

// TotalError combines the per-interval errors under the given metric.
func TotalError(kind metrics.Kind, list []Interval) float64 {
	total := metrics.Zero(kind)
	for _, iv := range list {
		total = metrics.Combine(kind, total, iv.Err)
	}
	return total
}

// ReconstructRange decodes samples [lo, hi) of the approximate signal a
// sorted interval list describes, using base signal x for shifted
// intervals: only the intervals overlapping the range are evaluated, and
// each sample is bit-identical to the same sample of the whole signal.
// Samples no interval covers are zero.
func ReconstructRange(x timeseries.Series, list []Interval, lo, hi int) timeseries.Series {
	out := make(timeseries.Series, hi-lo)
	ReconstructInto(out, x, list, lo)
	return out
}

// ReconstructInto is ReconstructRange writing samples [lo, lo+len(out))
// into out, which it overwrites whole.
func ReconstructInto(out timeseries.Series, x timeseries.Series, list []Interval, lo int) {
	clear(out)
	hi := lo + len(out)
	for _, iv := range list {
		s, e := max(iv.Start, lo), min(iv.Start+iv.Length, hi)
		if s < e {
			iv.fill(x, out[s-lo:e-lo], s-iv.Start)
		}
	}
}

// TransmissionCost returns the number of values needed to ship the interval
// list: ValuesPerInterval per record, or ValuesPerRampInterval when the
// whole list uses plain regression and the shift pointer can be elided.
func TransmissionCost(list []Interval) int {
	allRamp := true
	for _, iv := range list {
		if iv.Shift != RampShift {
			allRamp = false
			break
		}
	}
	if allRamp {
		return ValuesPerRampInterval * len(list)
	}
	return ValuesPerInterval * len(list)
}
