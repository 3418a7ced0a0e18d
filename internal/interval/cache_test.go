package interval

import (
	"math"
	"math/rand"
	"testing"

	"sbr/internal/metrics"
	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

// TestSearchCacheMatchesCacheless replays the insert-count search's access
// pattern — the same intervals probed against a base signal that grows by
// reslicing a fixed backing array — and checks that every cached BestMap
// answer is identical to a fresh cache-less Mapper's. This exercises entry
// creation, incremental tail extension when X grows, and the bestAmong
// lookup when a later probe re-reads an entry at an earlier coverage.
func TestSearchCacheMatchesCacheless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const w = 16
	xFull := make(timeseries.Series, 8*w)
	for i := range xFull {
		xFull[i] = math.Sin(float64(i)/5) + 0.3*rng.NormFloat64()
	}
	y := make(timeseries.Series, 96)
	for i := range y {
		y[i] = 2*math.Sin(float64(i)/5+0.4) + 0.3*rng.NormFloat64()
	}

	for _, kind := range []metrics.Kind{metrics.SSE, metrics.RelativeSSE, metrics.MaxAbs} {
		fitter := regression.Fitter{Kind: kind}
		px := timeseries.NewPrefix(xFull)
		var spec regression.Spectra
		spec.Reset(xFull)
		cached := NewMapperWithPrefix(nil, w, fitter, px, &spec)
		cached.Cache = NewSearchCache()

		probes := []struct{ start, length int }{
			{0, 24}, {24, 24}, {48, 12}, {60, 20}, {80, 16}, {0, 96},
		}
		// Probe order mimics the binary search: coverage does not grow
		// monotonically, so later probes hit entries scanned further.
		for _, slots := range []int{2, 6, 4, 8, 3} {
			cached.X = xFull[:slots*w]
			fresh := NewMapper(xFull[:slots*w], w, fitter)
			for _, p := range probes {
				got := Interval{Start: p.start, Length: p.length}
				want := got
				cached.BestMap(y, &got)
				fresh.BestMap(y, &want)
				if got != want {
					t.Fatalf("%v slots=%d probe=%+v: cached %v, fresh %v",
						kind, slots, p, got, want)
				}
			}
		}
		hits, misses, tail := cached.Cache.Stats()
		if misses != int64(len(probes)) {
			t.Errorf("%v: %d misses, want one per distinct probe (%d)", kind, misses, len(probes))
		}
		if hits != int64(len(probes)*4) {
			t.Errorf("%v: %d hits, want %d (every revisit)", kind, hits, len(probes)*4)
		}
		if tail <= 0 {
			t.Errorf("%v: no tail shifts recorded", kind)
		}
	}
}

// TestSearchCacheStatsNil: a nil cache reports zeros rather than panicking.
func TestSearchCacheStatsNil(t *testing.T) {
	var c *SearchCache
	if h, m, ts := c.Stats(); h != 0 || m != 0 || ts != 0 {
		t.Fatalf("nil cache stats = %d/%d/%d, want zeros", h, m, ts)
	}
}

// TestBestAmong checks the running-minima lookup: the best fit over the
// first q shifts is the last improvement recorded strictly below q.
func TestBestAmong(t *testing.T) {
	mins := []shiftFit{
		{Shift: 2, Err: 9},
		{Shift: 5, Err: 4},
		{Shift: 11, Err: 1},
	}
	cases := []struct {
		q        int
		ok       bool
		wantErr  float64
		wantShft int
	}{
		{1, false, 0, 0},   // nothing scanned below q
		{3, true, 9, 2},    // only the first improvement visible
		{5, true, 9, 2},    // shift 5 itself is outside [0, 5)
		{6, true, 4, 5},    //
		{12, true, 1, 11},  // full coverage
		{100, true, 1, 11}, // beyond coverage: still the last improvement
	}
	for _, c := range cases {
		got, ok := bestAmong(mins, c.q)
		if ok != c.ok {
			t.Fatalf("q=%d: ok=%v want %v", c.q, ok, c.ok)
		}
		if ok && (got.Err != c.wantErr || got.Shift != c.wantShft) {
			t.Fatalf("q=%d: got shift=%d err=%g, want shift=%d err=%g",
				c.q, got.Shift, got.Err, c.wantShft, c.wantErr)
		}
	}
	if _, ok := bestAmong(nil, 10); ok {
		t.Fatal("bestAmong(nil) should report no fit")
	}
}
