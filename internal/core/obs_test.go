package core

import (
	"testing"

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
