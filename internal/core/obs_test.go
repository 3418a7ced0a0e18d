package core

import (
	"runtime"
	"testing"

	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/obs"
)

// TestInstrumentCountsScreenWork: the screened scan's work reaches the
// registry through CompressionReport, and the counters add up — every
// exact evaluation is of a screened shift, and the totals are the sums of
// the per-Encode reports.
func TestInstrumentCountsScreenWork(t *testing.T) {
	const n, m = 4, 512
	comp, err := NewCompressor(Config{TotalBand: n * m / 10, MBase: 2048, Metric: metrics.SSE})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	comp.Instrument(reg)
	var screened, exact int
	for seed := int64(0); seed < 4; seed++ {
		if _, err := comp.Encode(testRows(seed, n, m)); err != nil {
			t.Fatal(err)
		}
		rep := comp.LastReport()
		if rep.ExactShifts > rep.ScreenedShifts {
			t.Fatalf("batch %d: %d exact of %d screened shifts", seed, rep.ExactShifts, rep.ScreenedShifts)
		}
		screened += rep.ScreenedShifts
		exact += rep.ExactShifts
	}
	if screened == 0 {
		t.Fatal("no scan took the screened path")
	}
	v := reg.Values()
	if got := int(v["sbr_encode_screened_shifts_total"]); got != screened {
		t.Errorf("sbr_encode_screened_shifts_total = %d, want %d", got, screened)
	}
	if got := int(v["sbr_encode_exact_shifts_total"]); got != exact {
		t.Errorf("sbr_encode_exact_shifts_total = %d, want %d", got, exact)
	}
	t.Logf("%d of %d screened shifts needed an exact evaluation", exact, screened)
}

// TestInstrumentCountsSiblingHandoffs: with the GetIntervals helper forced
// on, every Encode reports two scan workers and the sibling pairs it
// offered, of which the helper mapped at most all; the registry totals are
// the sums of the reports. At GOMAXPROCS 1 no helper runs and nothing is
// offered.
func TestInstrumentCountsSiblingHandoffs(t *testing.T) {
	savedThreshold := interval.ParallelScanThreshold
	interval.ParallelScanThreshold = 1
	savedProcs := runtime.GOMAXPROCS(0)
	defer func() {
		interval.ParallelScanThreshold = savedThreshold
		runtime.GOMAXPROCS(savedProcs)
	}()
	const n, m = 4, 512
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		comp, err := NewCompressor(Config{TotalBand: n * m / 10, MBase: 2048, Metric: metrics.SSE})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		comp.Instrument(reg)
		var pairs, helped int
		for seed := int64(0); seed < 3; seed++ {
			if _, err := comp.Encode(testRows(seed, n, m)); err != nil {
				t.Fatal(err)
			}
			rep := comp.LastReport()
			if rep.ScanWorkers != procs || (rep.SiblingPairs > 0) != (procs > 1) || rep.HelperPairs > rep.SiblingPairs {
				t.Fatalf("GOMAXPROCS %d batch %d: %d scan workers, %d of %d pairs mapped by the helper",
					procs, seed, rep.ScanWorkers, rep.HelperPairs, rep.SiblingPairs)
			}
			pairs += rep.SiblingPairs
			helped += rep.HelperPairs
		}
		v := reg.Values()
		if got := int(v["sbr_encode_sibling_pairs_total"]); got != pairs {
			t.Errorf("GOMAXPROCS %d: sbr_encode_sibling_pairs_total = %d, want %d", procs, got, pairs)
		}
		if got := int(v["sbr_encode_helper_pairs_total"]); got != helped {
			t.Errorf("GOMAXPROCS %d: sbr_encode_helper_pairs_total = %d, want %d", procs, got, helped)
		}
		if got := int(v["sbr_encode_scan_workers"]); got != procs {
			t.Errorf("GOMAXPROCS %d: sbr_encode_scan_workers = %d", procs, got)
		}
	}
}
