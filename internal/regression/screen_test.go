package regression

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sbr/internal/timeseries"
)

// screenCase is one input family for the screened-scan equivalence test.
type screenCase struct {
	name string
	x, y timeseries.Series
}

func screenCases(rng *rand.Rand) []screenCase {
	const n = 700
	noise := func(scale, offset float64) timeseries.Series {
		s := make(timeseries.Series, n)
		for i := range s {
			s[i] = offset + scale*rng.NormFloat64()
		}
		return s
	}
	smooth := func() timeseries.Series {
		s := make(timeseries.Series, n)
		for i := range s {
			s[i] = 20 + 8*math.Sin(float64(i)/17) + 0.5*rng.NormFloat64()
		}
		return s
	}
	// Constant runs, like a solar sensor at night, between noisy spans.
	runs := func() timeseries.Series {
		s := smooth()
		for i := range s {
			if (i/60)%2 == 1 {
				s[i] = 3
			}
		}
		return s
	}
	// Segments whose variance sits just above epsVar.
	nearEps := func() timeseries.Series {
		s := make(timeseries.Series, n)
		for i := range s {
			s[i] = 5 + 1.5e-6*rng.NormFloat64()
		}
		return s
	}
	// Concatenated states of very different scale, like the phone-call
	// dataset's rows laid end to end.
	mixed := func() timeseries.Series {
		s := make(timeseries.Series, 0, n)
		for _, scale := range []float64{0.01, 1, 1e3, 1e5, 3, 1e4, 0.2} {
			for i := 0; i < n/7; i++ {
				s = append(s, math.Round(scale*(1+math.Sin(float64(i)/9))+math.Sqrt(scale)*rng.NormFloat64()))
			}
		}
		for len(s) < n {
			s = append(s, 0)
		}
		return s
	}
	withBad := func(s timeseries.Series, v float64) timeseries.Series {
		s = s.Clone()
		s[rng.Intn(len(s))] = v
		return s
	}
	return []screenCase{
		{"random", noise(1, 0), noise(1, 0)},
		{"smooth", smooth(), smooth()},
		{"offset1e6", noise(1, 1e6), noise(1, 1e6)},
		{"constant-runs", runs(), runs()},
		{"near-epsVar", nearEps(), smooth()},
		{"mixed-scales", mixed(), mixed()},
		{"huge", noise(1e55, 3e55), noise(1e55, 0)},
		{"tiny-y", smooth(), noise(1e-165, 0)},
		{"NaN-in-x", withBad(smooth(), math.NaN()), smooth()},
		{"Inf-in-x", withBad(smooth(), math.Inf(1)), smooth()},
		{"NaN-in-y", smooth(), withBad(smooth(), math.NaN())},
		{"-Inf-in-y", smooth(), withBad(smooth(), math.Inf(-1))},
	}
}

type emission struct {
	shift int
	fit   Fit
}

func sameEmissions(a, b []emission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i].fit, b[i].fit
		if a[i].shift != b[i].shift ||
			math.Float64bits(fa.A) != math.Float64bits(fb.A) ||
			math.Float64bits(fa.B) != math.Float64bits(fb.B) ||
			math.Float64bits(fa.Err) != math.Float64bits(fb.Err) {
			return false
		}
	}
	return true
}

// TestScreenedScanMatchesKernel is the screen's exactness contract: for
// random and adversarial signals, arbitrary shift ranges [lo, hi) and
// starting bars, Spectra.ScanSSEMins emits bit-for-bit the running minima
// ScanSSEMins emits. Alongside, it measures every screened shift's
// estimate error |T̃ − n·cov| against the slack ΔT the screen allowed for
// it, and fails if the largest ratio exceeds 1e-3: the slack must bound
// the error with a wide margin, not just barely.
func TestScreenedScanMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lengths := []int{1, 2, 3, 4, 5, 8, 13, 32, 64, 100}
	worst := 0.0
	for _, c := range screenCases(rng) {
		px := timeseries.NewPrefix(c.x)
		var sp Spectra
		sp.Reset(c.x)
		for trial := 0; trial < 40; trial++ {
			length := lengths[trial%len(lengths)]
			startY := rng.Intn(len(c.y) - length + 1)
			var sumY, sumY2 float64
			for _, v := range c.y[startY : startY+length] {
				sumY += v
				sumY2 += v * v
			}
			shifts := len(c.x) - length + 1
			lo := rng.Intn(shifts)
			hi := lo + 1 + rng.Intn(shifts-lo)
			if trial%4 == 0 {
				lo, hi = 0, shifts
			}
			best := math.Inf(1)
			switch trial % 5 {
			case 1: // a bar some shift of the range reaches
				ScanSSEMins(c.x, px, c.y, sumY, sumY2, startY, length, lo+(hi-lo)/2, lo+(hi-lo)/2+1, math.Inf(1),
					func(_ int, f Fit) { best = f.Err * 1.0000001 })
			case 2:
				best = 0
			case 3:
				best = 1e-300
			}
			var want, got []emission
			ScanSSEMins(c.x, px, c.y, sumY, sumY2, startY, length, lo, hi, best,
				func(s int, f Fit) { want = append(want, emission{s, f}) })
			sp.ScanSSEMins(c.x, px, c.y, sumY, sumY2, startY, length, lo, hi, best,
				func(s int, f Fit) { got = append(got, emission{s, f}) })
			if !sameEmissions(want, got) {
				t.Fatalf("%s: length %d, shifts [%d,%d), bar %g: screened scan emitted\n%v\nkernel emitted\n%v",
					c.name, length, lo, hi, best, got, want)
			}
			worst = math.Max(worst, slackRatio(&sp, c.x, px, c.y, sumY, sumY2, startY, length, lo, hi))
		}
		screened, exact := sp.Stats()
		t.Logf("%-14s exact evaluations %d of %d screened shifts", c.name, exact, screened)
		if c.name == "smooth" && exact*4 > screened {
			t.Errorf("%s: the screen ruled out only %d of %d shifts", c.name, screened-exact, screened)
		}
	}
	t.Logf("largest |estimate − exact| / slack: %.3g", worst)
	if worst > 1e-3 {
		t.Errorf("estimate error reached %.3g of the slack, want <= 1e-3", worst)
	}
}

// TestScreenedScanConcurrent: GetIntervals maps sibling intervals on two
// goroutines, so one Spectra serves concurrent scans, including the first
// ones that build a block size. Every scan must still match the kernel.
func TestScreenedScanConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := screenCases(rng)[1]
	px := timeseries.NewPrefix(c.x)
	var sp Spectra
	sp.Reset(c.x)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, length := range []int{5, 16, 40, 64} {
				startY := (g * 37) % (len(c.y) - length)
				var sumY, sumY2 float64
				for _, v := range c.y[startY : startY+length] {
					sumY += v
					sumY2 += v * v
				}
				lo, hi := g*11, len(c.x)-length+1
				var want, got []emission
				ScanSSEMins(c.x, px, c.y, sumY, sumY2, startY, length, lo, hi, math.Inf(1),
					func(s int, f Fit) { want = append(want, emission{s, f}) })
				sp.ScanSSEMins(c.x, px, c.y, sumY, sumY2, startY, length, lo, hi, math.Inf(1),
					func(s int, f Fit) { got = append(got, emission{s, f}) })
				if !sameEmissions(want, got) {
					t.Errorf("goroutine %d, length %d: screened scan diverged from the kernel", g, length)
				}
			}
		}(g)
	}
	wg.Wait()
}

// slackRatio returns the largest |T̃ − n·cov| / ΔT over the shifts of
// [lo, hi) the screen would test, where n·cov is the cross moment the
// kernel computes: the same 4-accumulator dot (Dot), prefix sums and
// mean arithmetic as sseScan.at.
func slackRatio(sp *Spectra, x timeseries.Series, px *timeseries.Prefix, y timeseries.Series,
	sumY, sumY2 float64, startY, length, lo, hi int) float64 {
	sc, ok := sp.newScreen(x, px, y, sumY, sumY2, startY, length)
	if !ok {
		return 0
	}
	defer sp.bufs.Put(sc.buf)
	k := &sc.k
	psum, psum2 := px.Raw()
	worst := 0.0
	b, half := sc.b, sc.b/2
	for p := lo / b; p*b < hi; p++ {
		dT := sc.pair(p)
		for part, est := range [2][]float64{sc.wRe[:half], sc.wIm[:half]} {
			for j := range est {
				s := p*b + part*half + j
				if s < lo || s >= hi {
					continue
				}
				sumX := psum[s+length] - psum[s]
				sumX2 := psum2[s+length] - psum2[s]
				mx := sumX / k.n
				if sumX2/k.n-mx*mx <= epsVar {
					continue // always evaluated exactly; the estimate is unused
				}
				cov := Dot(x[s:s+length], k.ys)/k.n - mx*k.my
				worst = math.Max(worst, math.Abs(est[j]-k.n*cov)/dT)
			}
		}
	}
	return worst
}

// TestScreenCostPrefersCheaperPath: the screened path is chosen from sizes
// alone, and only where its transforms undercut the direct dot products.
func TestScreenCostPrefersCheaperPath(t *testing.T) {
	x := make(timeseries.Series, 4096)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	var sp Spectra
	sp.Reset(x)
	for _, tc := range []struct {
		length, lo, hi int
		screened       bool
	}{
		{300, 0, 3797, true},     // long intervals over the whole signal
		{300, 3780, 3797, false}, // a short candidate tail
		{2, 0, 4095, false},      // shorter than a transform's log
		{64, 0, 4033, true},
	} {
		cost, ok := sp.ScreenCost(tc.length, tc.lo, tc.hi)
		got := ok && cost < (tc.hi-tc.lo)*tc.length
		if got != tc.screened {
			t.Errorf("length %d shifts [%d,%d): screened=%v (cost %d vs %d), want %v",
				tc.length, tc.lo, tc.hi, got, cost, (tc.hi-tc.lo)*tc.length, tc.screened)
		}
	}
	var nilSpectra *Spectra
	if _, ok := nilSpectra.ScreenCost(8, 0, 10); ok {
		t.Error("a nil Spectra accepted a scan")
	}
	bad := x.Clone()
	bad[9] = math.NaN()
	sp.Reset(bad)
	if _, ok := sp.ScreenCost(8, 0, 10); ok {
		t.Error("a signal holding NaN accepted a screened scan")
	}
}

func BenchmarkScanSSEMins(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make(timeseries.Series, 3800)
	for i := range x {
		x[i] = 20 + 10*math.Sin(float64(i)/40) + rng.NormFloat64()
	}
	px := timeseries.NewPrefix(x)
	var sp Spectra
	sp.Reset(x)
	for _, length := range []int{8, 64, 312} {
		y := make(timeseries.Series, length)
		var sumY, sumY2 float64
		for i := range y {
			y[i] = 5 + 3*math.Sin(float64(i+7)/40) + rng.NormFloat64()
			sumY += y[i]
			sumY2 += y[i] * y[i]
		}
		hi := len(x) - length + 1
		b.Run(fmt.Sprintf("direct/L=%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ScanSSEMins(x, px, y, sumY, sumY2, 0, length, 0, hi, math.Inf(1), func(int, Fit) {})
			}
		})
		b.Run(fmt.Sprintf("screened/L=%d", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp.ScanSSEMins(x, px, y, sumY, sumY2, 0, length, 0, hi, math.Inf(1), func(int, Fit) {})
			}
		})
	}
}
