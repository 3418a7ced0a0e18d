// Package dft provides the discrete Fourier machinery the evaluation needs:
// an iterative radix-2 FFT, a Bluestein chirp-z fallback for arbitrary
// lengths, and a top-B sparse approximation of real signals (the Fourier
// competitor the paper mentions produced "consistently larger errors than
// DCT"). The DCT package builds its fast transform on this FFT, and the
// screened BestMap scan correlates against it directly through
// ForwardDIF and InverseDIT.
package dft

import (
	"math"
	"math/bits"
	"sync"
)

// FFT computes the in-place forward discrete Fourier transform of the
// complex sequence (re, im). Any length is supported: powers of two run
// the radix-2 algorithm directly, other lengths use Bluestein's chirp-z
// reduction to a power-of-two convolution.
func FFT(re, im []float64) {
	transform(re, im, false)
}

// IFFT computes the inverse transform, including the 1/n scaling.
func IFFT(re, im []float64) {
	transform(re, im, true)
	n := float64(len(re))
	for i := range re {
		re[i] /= n
		im[i] /= n
	}
}

func transform(re, im []float64, inverse bool) {
	if len(re) != len(im) {
		panic("dft: mismatched real and imaginary lengths")
	}
	n := len(re)
	if n <= 1 {
		return
	}
	if n&(n-1) != 0 {
		bluestein(re, im, inverse)
		return
	}
	if inverse {
		bitReverse(re, im)
		InverseDIT(re, im)
		return
	}
	ForwardDIF(re, im)
	bitReverse(re, im)
}

// twiddleTable holds w_k = exp(−2πik/n) for k in [0, n/2), each entry
// computed directly from its angle. Advancing a twiddle by repeated
// complex multiplication instead lets rounding error grow with the
// transform length; a table keeps every factor within an ulp or two. A
// stage of size s of any longer transform reads the size-s table, so every
// stage's factors are contiguous.
type twiddleTable struct {
	re, im []float64
}

// twiddles caches one table per power-of-two size, built on first use.
var twiddles [64]struct {
	once sync.Once
	t    twiddleTable
}

func twiddlesFor(n int) *twiddleTable {
	slot := &twiddles[bits.TrailingZeros(uint(n))]
	slot.once.Do(func() {
		half := n / 2
		t := twiddleTable{re: make([]float64, half), im: make([]float64, half)}
		for k := 0; k < half; k++ {
			ang := -2 * math.Pi * float64(k) / float64(n)
			t.re[k], t.im[k] = math.Cos(ang), math.Sin(ang)
		}
		slot.t = t
	})
	return &slot.t
}

// ForwardDIF is the unscaled forward transform of a power-of-two length
// sequence by radix-2 decimation in frequency: natural order in,
// bit-reversed order out. Pointwise products of two such spectra fed to
// InverseDIT need no permutation pass at all.
func ForwardDIF(re, im []float64) {
	n := len(re)
	im = im[:n]
	for size := n; size >= 8; size >>= 1 {
		half := size / 2
		tw := twiddlesFor(size)
		twr, twi := tw.re[:half], tw.im[:half:half]
		for start := 0; start < n; start += size {
			a, ai := re[start:start+half], im[start:start+half]
			b, bi := re[start+half:start+size], im[start+half:start+size]
			ai, b, bi = ai[:len(a)], b[:len(a)], bi[:len(a)] // one bounds check per group
			for k := range a {
				dr, di := a[k]-b[k], ai[k]-bi[k]
				a[k] += b[k]
				ai[k] += bi[k]
				b[k] = dr*twr[k] - di*twi[k]
				bi[k] = dr*twi[k] + di*twr[k]
			}
		}
	}
	// The last two stages have the factors 1 and −i only.
	switch {
	case n >= 4:
		for s := 0; s+4 <= n; s += 4 {
			x, y := re[s:s+4], im[s:s+4]
			a0r, a0i := x[0]+x[2], y[0]+y[2]
			a2r, a2i := x[0]-x[2], y[0]-y[2]
			a1r, a1i := x[1]+x[3], y[1]+y[3]
			a3r, a3i := y[1]-y[3], x[3]-x[1] // (x1 − x3)·(−i)
			x[0], y[0] = a0r+a1r, a0i+a1i
			x[1], y[1] = a0r-a1r, a0i-a1i
			x[2], y[2] = a2r+a3r, a2i+a3i
			x[3], y[3] = a2r-a3r, a2i-a3i
		}
	case n == 2:
		re[0], re[1] = re[0]+re[1], re[0]-re[1]
		im[0], im[1] = im[0]+im[1], im[0]-im[1]
	}
}

// InverseDIT is the unscaled inverse transform of a power-of-two length
// sequence by radix-2 decimation in time: bit-reversed order in (as
// ForwardDIF leaves it), natural order out. The caller applies the 1/n
// factor, or folds it into one of the operands.
func InverseDIT(re, im []float64) {
	n := len(re)
	im = im[:n]
	// The first two stages have the factors 1 and +i only.
	switch {
	case n >= 4:
		for s := 0; s+4 <= n; s += 4 {
			x, y := re[s:s+4], im[s:s+4]
			a0r, a0i := x[0]+x[1], y[0]+y[1]
			a1r, a1i := x[0]-x[1], y[0]-y[1]
			a2r, a2i := x[2]+x[3], y[2]+y[3]
			a3r, a3i := y[3]-y[2], x[2]-x[3] // (x2 − x3)·(+i)
			x[0], y[0] = a0r+a2r, a0i+a2i
			x[2], y[2] = a0r-a2r, a0i-a2i
			x[1], y[1] = a1r+a3r, a1i+a3i
			x[3], y[3] = a1r-a3r, a1i-a3i
		}
	case n == 2:
		re[0], re[1] = re[0]+re[1], re[0]-re[1]
		im[0], im[1] = im[0]+im[1], im[0]-im[1]
	}
	for size := 8; size <= n; size <<= 1 {
		half := size / 2
		tw := twiddlesFor(size)
		twr, twi := tw.re[:half], tw.im[:half:half]
		for start := 0; start < n; start += size {
			a, ai := re[start:start+half], im[start:start+half]
			b, bi := re[start+half:start+size], im[start+half:start+size]
			ai, b, bi = ai[:len(a)], b[:len(a)], bi[:len(a)] // one bounds check per group
			for k := range a {
				// t = b·conj(w)
				tr := b[k]*twr[k] + bi[k]*twi[k]
				ti := bi[k]*twr[k] - b[k]*twi[k]
				b[k], bi[k] = a[k]-tr, ai[k]-ti
				a[k] += tr
				ai[k] += ti
			}
		}
	}
}

// bitReverse permutes a power-of-two length sequence into bit-reversed
// index order (an involution).
func bitReverse(re, im []float64) {
	n := len(re)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// bluestein reduces an arbitrary-length DFT to a cyclic convolution of
// power-of-two length: x[k]·w^(k²/2) convolved with the conjugate chirp.
func bluestein(re, im []float64, inverse bool) {
	n := len(re)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp c[k] = exp(sign·iπk²/n). k² mod 2n avoids precision loss for
	// large k.
	chirpRe := make([]float64, n)
	chirpIm := make([]float64, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		chirpRe[k] = math.Cos(ang)
		chirpIm[k] = math.Sin(ang)
	}
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	aRe := make([]float64, m)
	aIm := make([]float64, m)
	for k := 0; k < n; k++ {
		aRe[k] = re[k]*chirpRe[k] - im[k]*chirpIm[k]
		aIm[k] = re[k]*chirpIm[k] + im[k]*chirpRe[k]
	}
	bRe := make([]float64, m)
	bIm := make([]float64, m)
	bRe[0], bIm[0] = chirpRe[0], -chirpIm[0]
	for k := 1; k < n; k++ {
		bRe[k], bIm[k] = chirpRe[k], -chirpIm[k]
		bRe[m-k], bIm[m-k] = chirpRe[k], -chirpIm[k]
	}
	// The convolution never needs natural-order spectra: multiply the two
	// bit-reversed spectra pointwise and invert straight back.
	ForwardDIF(aRe, aIm)
	ForwardDIF(bRe, bIm)
	for k := 0; k < m; k++ {
		aRe[k], aIm[k] = aRe[k]*bRe[k]-aIm[k]*bIm[k], aRe[k]*bIm[k]+aIm[k]*bRe[k]
	}
	InverseDIT(aRe, aIm)
	scale := 1 / float64(m)
	for k := 0; k < n; k++ {
		cr, ci := aRe[k]*scale, aIm[k]*scale
		re[k] = cr*chirpRe[k] - ci*chirpIm[k]
		im[k] = cr*chirpIm[k] + ci*chirpRe[k]
	}
}
