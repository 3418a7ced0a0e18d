package regression

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"sbr/internal/dft"
	"sbr/internal/timeseries"
)

// This file is the screened SSE scan: the same running minima as
// ScanSSEMins, with most shifts ruled out before their O(length) cross
// moment is ever computed. The cross moment Σ X[s+i]·Y[i] over all shifts
// s is a cross-correlation, which block FFTs estimate for B shifts at a
// time in O(B log B). An estimate is only a screen: a shift is skipped when
// even the most favourable cross moment within a proven rounding slack of
// the estimate cannot beat the running best, and every other shift goes
// through sseScan.at, the arithmetic ScanSSEMins runs. Skipped shifts
// could never have improved on the bar, so the emitted minima are
// bit-identical to the plain kernel's (DESIGN §9, "screened scan").

// unitRoundoff is u = 2⁻⁵³, the relative rounding error of one float64
// operation.
const unitRoundoff = 0x1p-53

// slackU is the unit the screen's slack is measured in: u times a safety
// factor of 2¹⁶. The derivation bounds each rounding source by a small
// multiple of u; scaling all of them by 2¹⁶ keeps every observed error
// below a thousandth of the slack, while the slack stays ~10⁻¹¹ of the
// magnitudes it is measured against.
const slackU = 0x1p16 * unitRoundoff

// maxScreenAbs bounds the magnitudes the screen accepts: even the fourth
// powers of such values, which the skip test forms, stay finite. Signals
// outside it scan exactly. slackFloor is an absolute slack that covers
// results rounded into the subnormal range, where relative error bounds
// fail; its square is still a normal number.
const (
	maxScreenAbs = 0x1p200
	slackFloor   = 0x1p-500
)

// Spectra holds block spectra of one signal for screened SSE scans; the
// insert-count search keeps one beside the prefix sums of the same signal
// (DESIGN §9, "prefix-cache invariant"). For a block size B (the smallest
// power of two ≥ 2·length), block k holds the mean-centred signal from
// k·B/2 for B samples, and consecutive blocks 2p and 2p+1 are packed as
// real and imaginary part into one complex transform: pair p then yields
// the cross moments of shifts [p·B, (p+1)·B). Each block size is built on
// first use and reused by every later scan until Reset.
//
// Scans may run concurrently; Reset must not run concurrently with them.
type Spectra struct {
	mu     sync.Mutex
	x      timeseries.Series
	mean   float64 // subtracted before transforming, to shrink rounding error
	usable bool    // every value finite and within maxScreenAbs
	blocks []*blockSpectra
	bufs   sync.Pool // *[]float64 scratch for one scan's transforms

	screened atomic.Int64 // shifts covered by screened scans since Reset
	exact    atomic.Int64 // of those, shifts evaluated exactly
}

// blockSpectra is one block size's pair spectra, in bit-reversed order.
type blockSpectra struct {
	built  bool
	re, im []float64 // pair p at [p·B, (p+1)·B)
	norm   []float64 // ‖z_p‖₂ of pair p's packed, centred input
	maxAbs []float64 // max |x| over the samples pair p's shifts read
	absPre []float64 // Σ|x| up to the last of those samples, which bounds |prefix sum|
}

// Reset points the spectra at a new signal and zeroes the counters. The
// block spectra of each size are rebuilt lazily, reusing their buffers.
func (sp *Spectra) Reset(x timeseries.Series) {
	sp.x = x
	var sum float64
	usable := true
	for _, v := range x {
		if !(math.Abs(v) <= maxScreenAbs) { // also rejects NaN
			usable = false
		}
		sum += v
	}
	sp.mean, sp.usable = 0, usable
	if len(x) > 0 {
		sp.mean = sum / float64(len(x))
	}
	for _, bs := range sp.blocks {
		if bs != nil {
			bs.built = false
		}
	}
	sp.screened.Store(0)
	sp.exact.Store(0)
}

// Stats returns the shifts screened scans covered since Reset and how many
// of them needed an exact evaluation.
func (sp *Spectra) Stats() (screened, exact int64) {
	return sp.screened.Load(), sp.exact.Load()
}

// screenBlock is the block size for intervals of the given length: the
// smallest power of two ≥ 2·length, so every one of a block's first B/2
// shifts reads only samples inside the block.
func screenBlock(length int) int {
	return 1 << bits.Len(uint(2*length-1))
}

// ScreenCost estimates the work of a screened scan of shifts [lo, hi) for
// an interval of the given length: one transform of Y plus one inverse
// transform per block pair, B·log₂B each. ok is false when the spectra
// cannot serve the scan (no signal, or values the screen does not accept);
// a nil Spectra never can.
func (sp *Spectra) ScreenCost(length, lo, hi int) (cost int, ok bool) {
	if sp == nil || !sp.usable || length <= 0 || hi <= lo || hi-1+length > len(sp.x) {
		return 0, false
	}
	b := screenBlock(length)
	pairs := (hi-1)/b - lo/b + 1
	return (pairs + 1) * b * bits.TrailingZeros(uint(b)), true
}

// spectra returns the built pair spectra for block size b.
func (sp *Spectra) spectra(b int) *blockSpectra {
	lg := bits.TrailingZeros(uint(b))
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for len(sp.blocks) <= lg {
		sp.blocks = append(sp.blocks, nil)
	}
	bs := sp.blocks[lg]
	if bs == nil {
		bs = &blockSpectra{}
		sp.blocks[lg] = bs
	}
	if !bs.built {
		bs.build(sp.x, sp.mean, b)
	}
	return bs
}

func (bs *blockSpectra) build(x timeseries.Series, mean float64, b int) {
	n := len(x)
	pairs := (n + b - 1) / b
	bs.re = growFloats(bs.re, pairs*b)
	bs.im = growFloats(bs.im, pairs*b)
	bs.norm = growFloats(bs.norm, pairs)
	bs.maxAbs = growFloats(bs.maxAbs, pairs)
	bs.absPre = growFloats(bs.absPre, pairs)
	var absPre float64 // Σ|x[:i]| for the i the loop below has reached
	i := 0
	centred := func(i int) float64 {
		if i < n {
			return x[i] - mean
		}
		return 0
	}
	for p := 0; p < pairs; p++ {
		re, im := bs.re[p*b:(p+1)*b], bs.im[p*b:(p+1)*b]
		var ss float64
		for j := range re {
			re[j], im[j] = centred(p*b+j), centred(p*b+b/2+j)
			ss += re[j]*re[j] + im[j]*im[j]
		}
		var m float64
		for j := p * b; j < min(p*b+3*b/2, n); j++ {
			m = math.Max(m, math.Abs(x[j]))
		}
		for ; i < min(p*b+3*b/2+1, n); i++ {
			absPre += math.Abs(x[i])
		}
		bs.norm[p], bs.maxAbs[p], bs.absPre[p] = math.Sqrt(ss), m, absPre
		dft.ForwardDIF(re, im)
	}
	bs.built = true
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ScanSSEMins emits exactly what the package-level ScanSSEMins emits for
// the same arguments, screening shifts by their FFT cross-moment estimate
// first. x must be a prefix of the signal the spectra were Reset with, and
// px its prefix sums; ScreenCost must have accepted (length, lo, hi).
func (sp *Spectra) ScanSSEMins(x timeseries.Series, px *timeseries.Prefix, y timeseries.Series,
	sumY, sumY2 float64, startY, length, lo, hi int, best float64,
	emit func(shift int, f Fit)) {

	if length <= 0 || hi <= lo {
		return
	}
	if hi-1+length > len(sp.x) || hi-1+length > len(x) {
		panic("regression: screened scan beyond the spectra's signal")
	}
	sp.screened.Add(int64(hi - lo))
	sc, ok := sp.newScreen(x, px, y, sumY, sumY2, startY, length)
	if !ok {
		sp.exact.Add(int64(hi - lo))
		ScanSSEMins(x, px, y, sumY, sumY2, startY, length, lo, hi, best, emit)
		return
	}
	defer sp.bufs.Put(sc.buf)
	exact := sc.scan(lo, hi, best, emit)
	sp.exact.Add(int64(exact))
}

// screen is one interval's screened scan: the exact kernel state, the
// interval's Y spectrum and the terms of its slack.
type screen struct {
	k      sseScan
	bs     *blockSpectra
	b      int
	buf    *[]float64
	yRe    []float64 // conj-ready spectrum of (Y − mean(Y))/B, bit-reversed
	yIm    []float64
	wRe    []float64 // one pair's correlation, natural order
	wIm    []float64
	fftK   float64 // slack per unit ‖z_p‖₂: the FFT and centring term
	dotK   float64 // slack per unit max|x| over the pair: the kernel's rounding
	preK   float64 // slack per unit Σ|x| up to the pair's end: prefix sums
	fixedK float64 // slack shared by every pair: rounding of mean(Y)
}

// newScreen prepares the screened scan of one Y segment. ok is false when
// Y holds values the screen does not accept.
func (sp *Spectra) newScreen(x timeseries.Series, px *timeseries.Prefix, y timeseries.Series,
	sumY, sumY2 float64, startY, length int) (*screen, bool) {

	if !sp.usable {
		return nil, false
	}
	k := newSSEScan(x, px, y, sumY, sumY2, startY, length)
	var absY, ssY float64
	for _, v := range k.ys {
		if !(math.Abs(v) <= maxScreenAbs) {
			return nil, false
		}
		absY += math.Abs(v)
		d := v - k.my
		ssY += d * d
	}
	b := screenBlock(length)
	buf, _ := sp.bufs.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	*buf = growFloats(*buf, 4*b)
	w := *buf
	sc := &screen{
		k: k, b: b, buf: buf, bs: sp.spectra(b),
		yRe: w[:b], yIm: w[b : 2*b], wRe: w[2*b : 3*b], wIm: w[3*b : 4*b],
	}

	// The 1/B of the inverse transform rides on Y: a power of two, so the
	// scaling itself is exact.
	scale := 1 / float64(b)
	for i := range sc.yRe {
		sc.yRe[i], sc.yIm[i] = 0, 0
	}
	for i, v := range k.ys {
		sc.yRe[i] = (v - k.my) * scale
	}
	dft.ForwardDIF(sc.yRe, sc.yIm)

	// The slack ΔT bounds |T̃ − n·cov| between the FFT estimate T̃ of
	// Σ (X[s+i]−μ)(Y[i]−my) and the n·cov the kernel computes; DESIGN §9
	// derives each term, in units of u:
	//   FFT rounding (forward, product, inverse) and the centring
	//   subtractions:      √B·(25·log₂B + 3)·‖z_p‖₂·‖Y−my‖₂
	//   the kernel's 4-accumulator dot and its cov arithmetic:
	//                      (L+12)·max|x|·(Σ|Y| + L·|my|)
	//   the L prefix-sum additions inside Σ X:  (L+1)·max|prefix sum|·|my|
	//   rounding of my itself:                  (L+3)·|μ|·Σ|Y|
	fl := float64(length)
	lg := float64(bits.TrailingZeros(uint(b)))
	sc.fftK = slackU * math.Sqrt(float64(b)) * (25*lg + 3) * math.Sqrt(ssY)
	sc.dotK = slackU * (fl + 12) * (absY + fl*math.Abs(k.my))
	sc.preK = slackU * (fl + 1) * math.Abs(k.my)
	sc.fixedK = slackU*(fl+3)*math.Abs(sp.mean)*absY + slackFloor
	return sc, true
}

// pair computes pair p's cross-moment estimates: wRe[j] for shift p·B+j and
// wIm[j] for shift p·B+B/2+j, j < B/2. It returns the pair's slack ΔT.
func (sc *screen) pair(p int) float64 {
	b := sc.b
	zr, zi := sc.bs.re[p*b:(p+1)*b], sc.bs.im[p*b:(p+1)*b]
	yr, yi := sc.yRe[:b], sc.yIm[:b]
	wr, wi := sc.wRe[:b], sc.wIm[:b]
	for j := range zr {
		wr[j] = zr[j]*yr[j] + zi[j]*yi[j]
		wi[j] = zi[j]*yr[j] - zr[j]*yi[j]
	}
	dft.InverseDIT(wr, wi)
	return sc.fftK*sc.bs.norm[p] + sc.dotK*sc.bs.maxAbs[p] + sc.preK*sc.bs.absPre[p] + sc.fixedK
}

// scan runs the screened scan over [lo, hi) and returns how many shifts it
// evaluated exactly.
//
// Shift s is skipped when n·varY − (|T̃|+ΔT)²/(n·varX) − ε ≥ best, written
// without division as (n·varY·(1−ε') − best)·n·varX ≥ ((|T̃|+ΔT)·(1+ε'))².
// n·varX here is a lower bound on the kernel's own value, so a segment
// whose variance the kernel might round to ≤ epsVar always scans exactly,
// as does any shift where the comparison meets a NaN.
func (sc *screen) scan(lo, hi int, best float64, emit func(shift int, f Fit)) (exact int) {
	k := &sc.k
	length := len(k.ys)
	n := k.n
	invN := 1 / n
	nVarY := n*k.varY*(1-slackU) - slackFloor
	grow := 1 + slackU
	marginV := 10 * slackU
	floorV := 2 * n * epsVar
	psum, psum2 := k.psum, k.psum2
	b, half := sc.b, sc.b/2
	for p := lo / b; p*b < hi; p++ {
		if !(best > 0) {
			// Every kernel error is clamped at ≥ 0 (or is NaN): nothing can
			// strictly beat a bar at or below zero.
			return exact
		}
		dT := sc.pair(p)
		for part, est := range [2][]float64{sc.wRe[:half], sc.wIm[:half]} {
			base := p*b + part*half
			for j := max(lo-base, 0); j < half && base+j < hi; j++ {
				s := base + j
				sumX := psum[s+length] - psum[s]
				sumX2 := psum2[s+length] - psum2[s]
				q := sumX * sumX * invN
				nVarX := sumX2 - q - marginV*(sumX2+q)
				if nVarX > floorV {
					r := (math.Abs(est[j]) + dT) * grow
					if (nVarY-best)*nVarX >= r*r {
						continue
					}
				}
				exact++
				if f, ok := k.at(s, best); ok {
					best = f.Err
					emit(s, f)
				}
			}
		}
	}
	return exact
}
