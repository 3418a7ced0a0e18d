package dft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sbr/internal/timeseries"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(re, im []float64) ([]float64, []float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			outRe[k] += re[t]*c - im[t]*s
			outIm[k] += re[t]*s + im[t]*c
		}
	}
	return outRe, outIm
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 20, 31, 32, 100} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantRe, wantIm := naiveDFT(re, im)
		gotRe := append([]float64(nil), re...)
		gotIm := append([]float64(nil), im...)
		FFT(gotRe, gotIm)
		for k := 0; k < n; k++ {
			if math.Abs(gotRe[k]-wantRe[k]) > 1e-6 || math.Abs(gotIm[k]-wantIm[k]) > 1e-6 {
				t.Fatalf("n=%d k=%d: FFT (%v,%v), naive (%v,%v)",
					n, k, gotRe[k], gotIm[k], wantRe[k], wantIm[k])
			}
		}
	}
}

func TestFFTIFFTIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 8, 12, 33, 64, 100} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		origRe := append([]float64(nil), re...)
		origIm := append([]float64(nil), im...)
		FFT(re, im)
		IFFT(re, im)
		for i := 0; i < n; i++ {
			if math.Abs(re[i]-origRe[i]) > 1e-8 || math.Abs(im[i]-origIm[i]) > 1e-8 {
				t.Fatalf("n=%d: round trip diverged at %d", n, i)
			}
		}
	}
}

func TestFFTMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	FFT(make([]float64, 4), make([]float64, 3))
}

// Property: Parseval for the DFT — Σ|x|² = (1/n)·Σ|X|².
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		re := make([]float64, n)
		im := make([]float64, n)
		var et float64
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
			et += re[i]*re[i] + im[i]*im[i]
		}
		FFT(re, im)
		var ef float64
		for i := range re {
			ef += re[i]*re[i] + im[i]*im[i]
		}
		return math.Abs(et-ef/float64(n)) < 1e-6*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSynopsisReconstructIsReal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := make(timeseries.Series, 25)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	syn := TopB(s, 5)
	rec := syn.Reconstruct()
	if len(rec) != 25 {
		t.Fatalf("reconstruction length %d", len(rec))
	}
	if syn.Cost() != 15 {
		t.Errorf("Cost = %d, want 15", syn.Cost())
	}
}

func TestSynopsisFullBudgetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 9, 16, 21} {
		s := make(timeseries.Series, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		syn := TopB(s, n) // keeps all n/2+1 candidate frequencies
		rec := syn.Reconstruct()
		if !timeseries.Equal(rec, s, 1e-8) {
			t.Errorf("n=%d: full-frequency reconstruction diverged", n)
		}
	}
}

func TestPureToneCapturedByOneFrequency(t *testing.T) {
	n := 32
	s := make(timeseries.Series, n)
	for i := range s {
		s[i] = math.Sin(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	rec := TopB(s, 1).Reconstruct()
	if !timeseries.Equal(rec, s, 1e-8) {
		t.Error("pure tone not captured by a single retained frequency")
	}
}

func TestApproximateRowsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := []timeseries.Series{make(timeseries.Series, 20), make(timeseries.Series, 20)}
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	out := ApproximateRows(rows, 12)
	if len(out) != 2 || len(out[0]) != 20 {
		t.Fatal("ApproximateRows changed the shape")
	}
}

// TestFFTRoundTripAccuracyLarge: the radix-2 core reads every twiddle
// factor from a per-size table instead of advancing it by repeated
// multiplication, so round-trip error stays at a few ulps even for long
// transforms (the recurrence reached ~7e-12 at n = 65536).
func TestFFTRoundTripAccuracyLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8192, 1 << 16} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		origRe := append([]float64(nil), re...)
		origIm := append([]float64(nil), im...)
		FFT(re, im)
		IFFT(re, im)
		var worst float64
		for i := range re {
			worst = math.Max(worst, math.Max(math.Abs(re[i]-origRe[i]), math.Abs(im[i]-origIm[i])))
		}
		if worst > 1e-14 {
			t.Errorf("n=%d: round-trip error %.3g, want <= 1e-14", n, worst)
		}
	}
}

// TestDIFDITRoundTrip: ForwardDIF leaves a bit-reversed spectrum that
// InverseDIT consumes directly, returning n times the input.
func TestDIFDITRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 4, 64, 1024} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantRe, wantIm := naiveDFT(re, im)
		gotRe := append([]float64(nil), re...)
		gotIm := append([]float64(nil), im...)
		ForwardDIF(gotRe, gotIm)
		bitReverse(gotRe, gotIm)
		for k := 0; k < n; k++ {
			if math.Abs(gotRe[k]-wantRe[k]) > 1e-9 || math.Abs(gotIm[k]-wantIm[k]) > 1e-9 {
				t.Fatalf("n=%d k=%d: DIF (%v,%v), naive (%v,%v)", n, k, gotRe[k], gotIm[k], wantRe[k], wantIm[k])
			}
		}
		bitReverse(gotRe, gotIm)
		InverseDIT(gotRe, gotIm)
		for i := 0; i < n; i++ {
			if math.Abs(gotRe[i]/float64(n)-re[i]) > 1e-12 || math.Abs(gotIm[i]/float64(n)-im[i]) > 1e-12 {
				t.Fatalf("n=%d: DIF→DIT round trip diverged at %d", n, i)
			}
		}
	}
}
