package interval

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sbr/internal/metrics"
	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

func sseFitter() regression.Fitter { return regression.Fitter{Kind: metrics.SSE} }

func randSeries(rng *rand.Rand, n int) timeseries.Series {
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 10
	}
	return s
}

func TestBestMapFindsExactShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randSeries(rng, 64)
	// y is an exact affine image of x[20:36).
	y := make(timeseries.Series, 16)
	for i := range y {
		y[i] = 2.5*x[20+i] - 4
	}
	m := NewMapper(x, 16, sseFitter())
	iv := Interval{Start: 0, Length: 16}
	m.BestMap(y, &iv)
	if iv.Shift != 20 {
		t.Fatalf("BestMap shift = %d, want 20 (interval %v)", iv.Shift, iv)
	}
	if math.Abs(iv.A-2.5) > 1e-9 || math.Abs(iv.B+4) > 1e-9 || iv.Err > 1e-9 {
		t.Errorf("BestMap fit = %v", iv)
	}
}

func TestBestMapFallsBackToRamp(t *testing.T) {
	// A perfectly linear-in-time interval with an uncorrelated base signal:
	// the ramp must win with zero error.
	rng := rand.New(rand.NewSource(2))
	x := randSeries(rng, 32)
	y := make(timeseries.Series, 16)
	for i := range y {
		y[i] = 3*float64(i) + 1
	}
	m := NewMapper(x, 8, sseFitter())
	iv := Interval{Start: 0, Length: 16}
	m.BestMap(y, &iv)
	if iv.Err > 1e-9 && iv.Shift != RampShift {
		t.Errorf("linear data: got %v, expected ramp or zero error", iv)
	}
	approx := make(timeseries.Series, 16)
	iv.Approximate(x, approx)
	if got := metrics.SumSquared(y, approx); got > 1e-9 {
		t.Errorf("approximation error %v, want ~0", got)
	}
}

func TestBestMapSkipsScanForLongIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSeries(rng, 64)
	y := randSeries(rng, 40)
	w := 8
	m := NewMapper(x, w, sseFitter())
	iv := Interval{Start: 0, Length: 40} // 40 > 2W = 16
	m.BestMap(y, &iv)
	if iv.Shift != RampShift {
		t.Errorf("interval longer than 2W used shift %d, want ramp", iv.Shift)
	}
}

func TestBestMapDisableRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randSeries(rng, 64)
	y := make(timeseries.Series, 16)
	for i := range y {
		y[i] = 3*float64(i) + 1 // perfectly linear in time
	}
	m := NewMapper(x, 8, sseFitter())
	m.DisableRamp = true
	iv := Interval{Start: 0, Length: 16}
	m.BestMap(y, &iv)
	if iv.Shift == RampShift {
		t.Errorf("DisableRamp still produced a ramp mapping: %v", iv)
	}
}

func TestBestMapDisableRampLongerThanBase(t *testing.T) {
	// With the fall-back disabled but the interval longer than the base
	// signal, the ramp is the only possibility.
	x := timeseries.Series{1, 2}
	y := timeseries.Series{5, 6, 7, 8}
	m := NewMapper(x, 2, sseFitter())
	m.DisableRamp = true
	iv := Interval{Start: 0, Length: 4}
	m.BestMap(y, &iv)
	if iv.Shift != RampShift {
		t.Errorf("impossible mapping still produced shift %d", iv.Shift)
	}
}

func TestBestMapEmptyBaseSignal(t *testing.T) {
	y := timeseries.Series{1, 2, 3, 4}
	m := NewMapper(nil, 1, sseFitter())
	iv := Interval{Start: 0, Length: 4}
	m.BestMap(y, &iv)
	if iv.Shift != RampShift || iv.Err > 1e-9 {
		t.Errorf("empty-base fit = %v", iv)
	}
}

// Property: under the SSE metric, the fast shift scan agrees with a naive
// scan that calls the plain regression at every shift.
func TestBestMapFastPathMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xLen := rng.Intn(40) + 8
		ivLen := rng.Intn(7) + 2
		x := randSeries(rng, xLen)
		y := randSeries(rng, ivLen)
		m := NewMapper(x, 8, sseFitter())
		iv := Interval{Start: 0, Length: ivLen}
		m.BestMap(y, &iv)

		// Naive reference.
		best := regression.Ramp(y, 0, ivLen)
		bestShift := RampShift
		for shift := 0; shift+ivLen <= xLen; shift++ {
			fit := regression.SSE(x, y, shift, 0, ivLen)
			if fit.Err < best.Err {
				best, bestShift = fit, shift
			}
		}
		if math.Abs(best.Err-iv.Err) > 1e-6*(1+best.Err) {
			return false
		}
		// Shifts may differ only on exact ties.
		return bestShift == iv.Shift || math.Abs(best.Err-iv.Err) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGetIntervalsBudgetAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, rowLen := 4, 64
	y := randSeries(rng, n*rowLen)
	x := randSeries(rng, 32)
	m := NewMapper(x, 16, sseFitter())

	budget := 96 // 24 intervals
	list := GetIntervals(m, y, n, rowLen, budget, Options{})
	if len(list) != budget/ValuesPerInterval {
		t.Fatalf("%d intervals, want %d", len(list), budget/ValuesPerInterval)
	}
	// Intervals must exactly tile [0, n·rowLen) and be sorted by start.
	pos := 0
	for _, iv := range list {
		if iv.Start != pos {
			t.Fatalf("gap or overlap at %d: interval starts at %d", pos, iv.Start)
		}
		pos += iv.Length
	}
	if pos != n*rowLen {
		t.Fatalf("intervals cover [0,%d), want [0,%d)", pos, n*rowLen)
	}
	// No interval may span a row boundary: splits only halve row-aligned
	// ranges, so every interval stays within one row.
	for _, iv := range list {
		if iv.Start/rowLen != (iv.Start+iv.Length-1)/rowLen {
			t.Errorf("interval %v spans a row boundary", iv)
		}
	}
}

func TestGetIntervalsTinyBudgetStillCoversRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	y := randSeries(rng, 3*16)
	m := NewMapper(nil, 4, sseFitter())
	list := GetIntervals(m, y, 3, 16, 4, Options{}) // budget for 1 interval only
	if len(list) != 3 {
		t.Fatalf("%d intervals, want one per row (3)", len(list))
	}
}

func TestGetIntervalsSplitsWorstFirst(t *testing.T) {
	// Row 0 is constant (error 0), row 1 is noisy: all extra splits should
	// land in row 1.
	rng := rand.New(rand.NewSource(7))
	flat := make(timeseries.Series, 32)
	noisy := randSeries(rng, 32)
	y := timeseries.Concat(flat, noisy)
	m := NewMapper(nil, 4, sseFitter())
	list := GetIntervals(m, y, 2, 32, 6*ValuesPerInterval, Options{})
	var flatCount, noisyCount int
	for _, iv := range list {
		if iv.Start < 32 {
			flatCount++
		} else {
			noisyCount++
		}
	}
	if flatCount != 1 || noisyCount != 5 {
		t.Errorf("splits: flat=%d noisy=%d, want 1 and 5", flatCount, noisyCount)
	}
}

func TestGetIntervalsErrorTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	y := randSeries(rng, 128)
	m := NewMapper(nil, 4, sseFitter())
	unbounded := GetIntervals(m, y, 1, 128, 128, Options{})
	// A loose error target must stop splitting early.
	loose := TotalError(metrics.SSE, unbounded) * 100
	bounded := GetIntervals(m, y, 1, 128, 128, Options{ErrorTarget: loose})
	if len(bounded) >= len(unbounded) {
		t.Errorf("error target did not shorten the interval list: %d vs %d",
			len(bounded), len(unbounded))
	}
	if TotalError(metrics.SSE, bounded) > loose {
		t.Errorf("bounded run misses its target")
	}
}

func TestGetIntervalsUnsplittable(t *testing.T) {
	// Two rows of a single sample each: nothing can be split, so the list
	// stays at 2 no matter the budget.
	y := timeseries.Series{4, 9}
	m := NewMapper(nil, 1, sseFitter())
	list := GetIntervals(m, y, 2, 1, 1000, Options{})
	if len(list) != 2 {
		t.Fatalf("%d intervals, want 2", len(list))
	}
	for _, iv := range list {
		if iv.Err > 1e-12 {
			t.Errorf("single-sample interval has error %v", iv.Err)
		}
	}
}

func TestGetIntervalsEmptyInput(t *testing.T) {
	m := NewMapper(nil, 1, sseFitter())
	if got := GetIntervals(m, nil, 0, 0, 100, Options{}); got != nil {
		t.Errorf("empty input produced %v", got)
	}
}

// TestReconstructRangeMatchesWhole checks the windowed reconstruction
// against the whole signal bit for bit, for every window of a list that
// mixes shifted, ramp and quadratic intervals and leaves a gap before its
// first start, also when written into a reused buffer that holds earlier
// samples (ReconstructInto).
func TestReconstructRangeMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randSeries(rng, 32)
	list := []Interval{
		{Start: 3, Length: 9, Shift: 4, A: 1.25, B: -0.5},
		{Start: 12, Length: 7, Shift: RampShift, A: 0.3, B: 2},
		{Start: 19, Length: 0, Shift: 1, A: 9, B: 9},
		{Start: 19, Length: 13, Shift: 17, A: -0.75, B: 0.1, C: 0.02},
	}
	const total = 32
	whole := make(timeseries.Series, total)
	for _, iv := range list {
		iv.Approximate(x, whole[iv.Start:iv.Start+iv.Length])
	}
	dirty := make(timeseries.Series, total)
	for lo := 0; lo <= total; lo++ {
		for hi := lo; hi <= total; hi++ {
			for i := range dirty {
				dirty[i] = math.NaN()
			}
			into := dirty[:hi-lo]
			ReconstructInto(into, x, list, lo)
			for i, v := range ReconstructRange(x, list, lo, hi) {
				if math.Float64bits(v) != math.Float64bits(whole[lo+i]) {
					t.Fatalf("[%d,%d): sample %d is %v, whole signal has %v", lo, hi, lo+i, v, whole[lo+i])
				}
				if math.Float64bits(into[i]) != math.Float64bits(v) {
					t.Fatalf("[%d,%d): ReconstructInto sample %d is %v, ReconstructRange %v", lo, hi, lo+i, into[i], v)
				}
			}
		}
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randSeries(rng, 64)
	y := randSeries(rng, 128)
	m := NewMapper(x, 8, sseFitter())
	list := GetIntervals(m, y, 2, 64, 64, Options{})
	approx := ReconstructRange(x, list, 0, len(y))
	// The reconstruction error must equal the sum of interval errors.
	total := TotalError(metrics.SSE, list)
	got := metrics.SumSquared(y, approx)
	if math.Abs(total-got) > 1e-6*(1+total) {
		t.Errorf("reconstruction error %v, interval sum %v", got, total)
	}
}

func TestTotalErrorMaxMetric(t *testing.T) {
	list := []Interval{{Err: 3}, {Err: 7}, {Err: 5}}
	if got := TotalError(metrics.MaxAbs, list); got != 7 {
		t.Errorf("TotalError(MaxAbs) = %v, want 7", got)
	}
	if got := TotalError(metrics.SSE, list); got != 15 {
		t.Errorf("TotalError(SSE) = %v, want 15", got)
	}
}

func TestTransmissionCost(t *testing.T) {
	ramps := []Interval{{Shift: RampShift}, {Shift: RampShift}}
	if got := TransmissionCost(ramps); got != 6 {
		t.Errorf("all-ramp cost = %d, want 6", got)
	}
	mixed := []Interval{{Shift: RampShift}, {Shift: 3}}
	if got := TransmissionCost(mixed); got != 8 {
		t.Errorf("mixed cost = %d, want 8", got)
	}
}

func TestApproximateBufferMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Approximate with wrong buffer size did not panic")
		}
	}()
	iv := Interval{Start: 0, Length: 4, Shift: RampShift}
	iv.Approximate(nil, make(timeseries.Series, 3))
}

// Property: GetIntervals returns exactly min(budget/4, achievable)
// intervals, tiling the signal, for random shapes.
func TestGetIntervalsTilingProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%4) + 1
		rowLen := int(mRaw%32) + 2
		budget := (int(bRaw%16) + 1) * ValuesPerInterval
		y := randSeries(rng, n*rowLen)
		x := randSeries(rng, 16)
		m := NewMapper(x, 4, sseFitter())
		list := GetIntervals(m, y, n, rowLen, budget, Options{})
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
		pos := 0
		for _, iv := range list {
			if iv.Start != pos || iv.Length <= 0 {
				return false
			}
			pos += iv.Length
		}
		if pos != n*rowLen {
			return false
		}
		want := budget / ValuesPerInterval
		if want < n {
			want = n
		}
		if want > n*rowLen {
			want = n * rowLen // cannot have more intervals than samples
		}
		return len(list) <= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQueuePopSplittable(t *testing.T) {
	q := newQueue(metrics.SSE, 8, nil)
	q.push(Interval{Start: 0, Length: 1, Err: 100})
	q.push(Interval{Start: 1, Length: 4, Err: 50})
	q.push(Interval{Start: 5, Length: 2, Err: 75})
	var done []Interval
	iv, ok := q.popSplittable(&done)
	if !ok || iv.Err != 75 {
		t.Fatalf("popSplittable = %v,%v; want the err-75 interval", iv, ok)
	}
	if len(done) != 1 || done[0].Err != 100 {
		t.Errorf("done = %v, want the length-1 interval", done)
	}
	if q.totalErr() != 50 {
		t.Errorf("totalErr after pops = %v, want 50", q.totalErr())
	}
}

func TestQueueTotalErrMaxMetric(t *testing.T) {
	q := newQueue(metrics.MaxAbs, 4, nil)
	if q.totalErr() != 0 {
		t.Errorf("empty queue totalErr = %v", q.totalErr())
	}
	q.push(Interval{Length: 2, Err: 3})
	q.push(Interval{Length: 2, Err: 9})
	if q.totalErr() != 9 {
		t.Errorf("MaxAbs totalErr = %v, want 9", q.totalErr())
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Start: 3, Length: 4, Shift: -1, A: 1, B: 2, Err: 0.5}
	if got := iv.String(); got == "" {
		t.Error("String returned empty")
	}
}

func TestBestMapQuadraticExactParabola(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	x := randSeries(rng, 48)
	// y is an exact quadratic image of x[10:26).
	y := make(timeseries.Series, 16)
	for i := range y {
		xv := x[10+i]
		y[i] = 0.5*xv*xv - 3*xv + 2
	}
	m := NewMapper(x, 16, sseFitter())
	m.Quadratic = true
	iv := Interval{Start: 0, Length: 16}
	m.BestMap(y, &iv)
	if iv.Err > 1e-6 {
		t.Fatalf("quadratic BestMap err = %v (interval %v)", iv.Err, iv)
	}
	approx := make(timeseries.Series, 16)
	iv.Approximate(x, approx)
	if !timeseries.Equal(approx, y, 1e-6) {
		t.Error("quadratic reconstruction diverges")
	}
}

func TestBestMapQuadraticRampFallback(t *testing.T) {
	// Quadratic-in-time data with no base signal: the quadratic ramp must
	// be exact.
	y := make(timeseries.Series, 20)
	for i := range y {
		tv := float64(i)
		y[i] = 0.25*tv*tv - tv + 3
	}
	m := NewMapper(nil, 4, sseFitter())
	m.Quadratic = true
	iv := Interval{Start: 0, Length: 20}
	m.BestMap(y, &iv)
	if iv.Shift != RampShift || iv.Err > 1e-6 {
		t.Errorf("quadratic ramp fit = %v", iv)
	}
}

func TestQuadraticNeverWorseThanLinearMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := randSeries(rng, 64)
	y := randSeries(rng, 16)
	lin := NewMapper(x, 16, sseFitter())
	quad := NewMapper(x, 16, sseFitter())
	quad.Quadratic = true
	ivL := Interval{Start: 0, Length: 16}
	ivQ := Interval{Start: 0, Length: 16}
	lin.BestMap(y, &ivL)
	quad.BestMap(y, &ivQ)
	if ivQ.Err > ivL.Err+1e-9 {
		t.Errorf("quadratic mapping (%v) worse than linear (%v)", ivQ.Err, ivL.Err)
	}
}

// TestLongShiftScanMatchesSequential checks that a long scan (3841 shifts
// of a 256-sample interval) picks exactly the mapping of an explicit
// per-shift reference.
func TestLongShiftScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	x := randSeries(rng, 4096)
	y := make(timeseries.Series, 256)
	for i := range y {
		y[i] = 1.5*x[777+i] + 3 // plant an exact match at shift 777
	}
	m := NewMapper(x, 256, sseFitter())
	iv := Interval{Start: 0, Length: 256}
	m.BestMap(y, &iv)
	if iv.Shift != 777 || iv.Err > 1e-6 {
		t.Fatalf("long scan missed the planted match: %v", iv)
	}

	// Random data: compare against an explicit sequential scan.
	y2 := randSeries(rng, 256)
	iv2 := Interval{Start: 0, Length: 256}
	m.BestMap(y2, &iv2)

	best := regression.Ramp(y2, 0, 256)
	bestShift := RampShift
	for shift := 0; shift+256 <= len(x); shift++ {
		fit := regression.SSE(x, y2, shift, 0, 256)
		if fit.Err < best.Err {
			best, bestShift = fit, shift
		}
	}
	if iv2.Shift != bestShift || math.Abs(iv2.Err-best.Err) > 1e-6*(1+best.Err) {
		t.Errorf("long scan: shift %d err %v; reference: shift %d err %v",
			iv2.Shift, iv2.Err, bestShift, best.Err)
	}
}

// TestLongScanTieBreak plants two identical exact matches far apart in a
// long scan; the winner must be the one the plain ascending kernel picks.
func TestLongScanTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pattern := randSeries(rng, 300)
	x := make(timeseries.Series, 4096)
	copy(x, randSeries(rng, 4096))
	copy(x[500:], pattern)  // first copy at shift 500
	copy(x[2000:], pattern) // second copy at shift 2000
	y := pattern.Clone().Scale(2).Shift(-1)
	m := NewMapper(x, 300, sseFitter())
	iv := Interval{Start: 0, Length: 300}
	m.BestMap(y, &iv)
	if iv.Err > 1e-6 {
		t.Fatalf("planted match err %v", iv.Err)
	}
	// Floating-point noise separates the two copies by ~1e-30, so the
	// winner is whichever the plain strict-< kernel picks; BestMap must
	// agree exactly.
	wantShift := -1
	var sumY, sumY2 float64
	for _, v := range y {
		sumY += v
		sumY2 += v * v
	}
	px := timeseries.NewPrefix(x)
	regression.ScanSSEMins(x, px, y, sumY, sumY2, 0, 300, 0, len(x)-300+1,
		math.Inf(1), func(s int, f regression.Fit) { wantShift = s })
	if iv.Shift != wantShift {
		t.Errorf("BestMap picked shift %d, the kernel picks %d", iv.Shift, wantShift)
	}
	if wantShift != 500 && wantShift != 2000 {
		t.Errorf("sequential winner %d is neither planted copy", wantShift)
	}
}

func TestGetIntervalsErrorTargetMaxAbs(t *testing.T) {
	// Under the MaxAbs metric the stop condition uses the heap maximum,
	// not a running sum; a loose bound must still stop the splitting early
	// and the achieved maximum must honour the target.
	rng := rand.New(rand.NewSource(42))
	y := randSeries(rng, 128)
	fitter := regression.Fitter{Kind: metrics.MaxAbs}
	m := NewMapper(nil, 4, fitter)
	unbounded := GetIntervals(m, y, 1, 128, 128, Options{})
	target := TotalError(metrics.MaxAbs, unbounded) * 4
	bounded := GetIntervals(m, y, 1, 128, 128, Options{ErrorTarget: target})
	if len(bounded) >= len(unbounded) {
		t.Errorf("MaxAbs error target did not shorten the list: %d vs %d",
			len(bounded), len(unbounded))
	}
	approx := ReconstructRange(nil, bounded, 0, len(y))
	if got := metrics.MaxAbsolute(y, approx); got > target+1e-9 {
		t.Errorf("achieved max error %v exceeds target %v", got, target)
	}
}

func TestBestMapQuadraticDisableRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := randSeries(rng, 64)
	y := make(timeseries.Series, 16)
	for i := range y {
		y[i] = float64(i) // perfectly linear: ramp would be exact
	}
	m := NewMapper(x, 8, sseFitter())
	m.Quadratic = true
	m.DisableRamp = true
	iv := Interval{Start: 0, Length: 16}
	m.BestMap(y, &iv)
	if iv.Shift == RampShift {
		t.Errorf("quadratic DisableRamp still produced a ramp mapping: %v", iv)
	}
}
