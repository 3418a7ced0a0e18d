package interval

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

// helperFixture is a search-shaped mapper: a smooth base signal with
// spectra and a scan cache, and a batch that maps onto it.
func helperFixture(seed int64) (*Mapper, timeseries.Series) {
	rng := rand.New(rand.NewSource(seed))
	const w = 32
	x := make(timeseries.Series, 16*w)
	for i := range x {
		x[i] = math.Sin(float64(i)/7) + 0.2*rng.NormFloat64()
	}
	y := make(timeseries.Series, 4*128)
	for i := range y {
		y[i] = 3*math.Sin(float64(i)/7+1) + 0.2*rng.NormFloat64()
	}
	spec := &regression.Spectra{}
	spec.Reset(x)
	m := NewMapperWithPrefix(x, w, sseFitter(), timeseries.NewPrefix(x), spec)
	m.Cache = NewSearchCache()
	return m, y
}

// TestUnclaimedOfferMappedByCaller: an offer the helper never claims (here
// no helper goroutine runs at all) is taken back and mapped by the caller,
// with fits bit-identical to plain BestMap calls.
func TestUnclaimedOfferMappedByCaller(t *testing.T) {
	m, y := helperFixture(1)
	ref, _ := helperFixture(1)
	h := &helper{m: m, y: y}
	for _, p := range [][2]Interval{
		{{Start: 0, Length: 32}, {Start: 32, Length: 33}},
		{{Start: 100, Length: 7}, {Start: 107, Length: 7}},
		{{Start: 0, Length: 32}, {Start: 32, Length: 33}}, // cache hits
	} {
		left, right := p[0], p[1]
		m.mapPair(h, y, &left, &right)
		wantL, wantR := p[0], p[1]
		ref.BestMap(y, &wantL)
		ref.BestMap(y, &wantR)
		if left != wantL || right != wantR {
			t.Fatalf("pair %v: got %v / %v, want %v / %v", p, left, right, wantL, wantR)
		}
		if s := h.state.Load(); s != offerIdle {
			t.Fatalf("offer state %d after take-back, want idle", s)
		}
	}
	if got := m.TakeHandoffs(); got != (Handoffs{Pairs: 3, Workers: 1}) {
		t.Errorf("handoffs %+v, want 3 offered, none mapped by the helper, 1 worker", got)
	}
}

// TestHelperMapsClaimedOffer: an offer the helper claims comes back with
// the fit BestMap computes, and stop returns only after the helper exits.
func TestHelperMapsClaimedOffer(t *testing.T) {
	m, y := helperFixture(2)
	ref, _ := helperFixture(2)
	h := &helper{m: m, y: y}
	h.wg.Add(1)
	go h.run()
	for _, iv := range []Interval{{Start: 0, Length: 40}, {Start: 200, Length: 64}, {Start: 0, Length: 40}} {
		h.offer = iv
		h.state.Store(offerPending)
		for h.state.Load() != offerMapped {
			runtime.Gosched()
		}
		want := iv
		ref.BestMap(y, &want)
		if h.offer != want {
			t.Fatalf("helper mapped %v, BestMap gives %v", h.offer, want)
		}
		h.state.Store(offerIdle)
	}
	h.stop()
}

// TestGetIntervalsHelperMatchesSerial forces the helper onto every call
// and checks the intervals and cache counters against a run without it.
// Run it under -cpu 1,2,4: at GOMAXPROCS 1 no helper may start, above it
// one must, and no call may leave a goroutine running.
func TestGetIntervalsHelperMatchesSerial(t *testing.T) {
	saved := ParallelScanThreshold
	defer func() { ParallelScanThreshold = saved }()
	run := func(threshold int) ([][]Interval, Handoffs, [3]int64) {
		ParallelScanThreshold = threshold
		m, y := helperFixture(3)
		var lists [][]Interval
		for _, budget := range []int{16, 64, 200, 64} {
			for _, xLen := range []int{len(m.X), len(m.X) / 2} {
				m.X = m.X[:xLen]
				lists = append(lists, GetIntervals(m, y, 4, 128, budget, Options{}))
			}
			m.X = m.X[:cap(m.X)]
		}
		hits, misses, tail := m.Cache.Stats()
		return lists, m.TakeHandoffs(), [3]int64{hits, misses, tail}
	}

	before := runtime.NumGoroutine()
	want, serial, wantStats := run(math.MaxInt)
	got, helped, gotStats := run(1)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("call %d: %d intervals with the helper, %d without", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("call %d interval %d: %v with the helper, %v without", i, j, got[i][j], want[i][j])
			}
		}
	}
	if gotStats != wantStats {
		t.Errorf("cache hits/misses/tail %v with the helper, %v without", gotStats, wantStats)
	}
	if serial != (Handoffs{Workers: 1}) {
		t.Errorf("below the threshold: handoffs %+v, want none", serial)
	}
	wantWorkers := 1
	if runtime.GOMAXPROCS(0) > 1 {
		wantWorkers = 2
	}
	if helped.Workers != wantWorkers || (wantWorkers == 2) != (helped.Pairs > 0) || helped.HelperPairs > helped.Pairs {
		t.Errorf("GOMAXPROCS %d: handoffs %+v, want %d workers", runtime.GOMAXPROCS(0), helped, wantWorkers)
	}
	t.Logf("GOMAXPROCS %d: helper mapped %d of %d offered pairs", runtime.GOMAXPROCS(0), helped.HelperPairs, helped.Pairs)

	// Each helper has signalled its exit before GetIntervals returned; give
	// the runtime a moment to retire the goroutines, then count them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after %d GetIntervals calls, %d before", n, len(got), before)
	}
}
