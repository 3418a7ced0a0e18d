package station

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
)

// stationWithHistory builds a station whose reconstructed history is easy
// to reason about by feeding it through the real pipeline.
func stationWithHistory(t *testing.T) (*Station, timeseries.Series) {
	t.Helper()
	st, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset()
	feed(t, st, "s", ds, 4, false)
	hist, err := st.History("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	return st, hist
}

func TestRunWindowedQuery(t *testing.T) {
	st, hist := stationWithHistory(t)
	pts, err := st.Run(Query{Sensor: "s", Row: 0, Step: 50, Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	wantWindows := (len(hist) + 49) / 50
	if len(pts) != wantWindows {
		t.Fatalf("%d windows, want %d", len(pts), wantWindows)
	}
	for _, p := range pts {
		want := hist[p.Start:p.End].Mean()
		if math.Abs(p.Value-want) > 1e-12 {
			t.Errorf("window [%d,%d): %v, want %v", p.Start, p.End, p.Value, want)
		}
	}
	// The final window may be shorter but must end exactly at the history.
	if pts[len(pts)-1].End != len(hist) {
		t.Errorf("last window ends at %d, want %d", pts[len(pts)-1].End, len(hist))
	}
}

func TestRunSingleWindow(t *testing.T) {
	st, hist := stationWithHistory(t)
	pts, err := st.Run(Query{Sensor: "s", Row: 0, Agg: AggMax})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("%d windows for step 0, want 1", len(pts))
	}
	if pts[0].Value != hist.Max() {
		t.Errorf("max = %v, want %v", pts[0].Value, hist.Max())
	}
}

func TestRunQueryErrors(t *testing.T) {
	st, hist := stationWithHistory(t)
	if _, err := st.Run(Query{Sensor: "nope", Row: 0}); err == nil {
		t.Error("unknown sensor accepted")
	}
	if _, err := st.Run(Query{Sensor: "s", Row: 0, From: 10, To: 5}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := st.Run(Query{Sensor: "s", Row: 0, To: len(hist) + 1}); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := st.Run(Query{Sensor: "s", Row: 0, Agg: AggregateKind(9)}); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestDownsample(t *testing.T) {
	st, hist := stationWithHistory(t)
	ds, err := st.Downsample("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) > 10 {
		t.Fatalf("downsampled to %d points, want <= 10", len(ds))
	}
	// Mean is preserved within the rounding of unequal windows.
	if math.Abs(ds.Mean()-hist.Mean()) > math.Abs(hist.Mean())*0.2+1 {
		t.Errorf("downsampled mean %v far from %v", ds.Mean(), hist.Mean())
	}
	// Requesting more points than samples returns the raw history.
	full, err := st.Downsample("s", 0, len(hist)+5)
	if err != nil {
		t.Fatal(err)
	}
	if !timeseries.Equal(full, hist, 0) {
		t.Error("oversized downsample is not the raw history")
	}
	if _, err := st.Downsample("s", 0, 0); err == nil {
		t.Error("zero-point downsample accepted")
	}
}

func TestExceedances(t *testing.T) {
	st, hist := stationWithHistory(t)
	// Pick a threshold that is guaranteed to split the history: the 75th
	//-ish percentile via mean+something.
	threshold := hist.Mean()
	runs, err := st.Exceedances("s", 0, 0, 0, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("no exceedances above the mean — implausible")
	}
	covered := 0
	for _, r := range runs {
		if r.End <= r.Start {
			t.Fatalf("empty run %+v", r)
		}
		covered += r.End - r.Start
		for i := r.Start; i < r.End; i++ {
			if hist[i] < threshold {
				t.Fatalf("sample %d inside run %+v is below the threshold", i, r)
			}
		}
		if r.Start > 0 && hist[r.Start-1] >= threshold {
			t.Fatalf("run %+v is not maximal on the left", r)
		}
		if r.End < len(hist) && hist[r.End] >= threshold {
			t.Fatalf("run %+v is not maximal on the right", r)
		}
		peak := hist[r.Start:r.End].Max()
		if r.Peak != peak {
			t.Fatalf("run %+v peak, want %v", r, peak)
		}
	}
	// Total covered samples equals the count of above-threshold samples.
	var above int
	for _, v := range hist {
		if v >= threshold {
			above++
		}
	}
	if covered != above {
		t.Errorf("runs cover %d samples, %d are above threshold", covered, above)
	}
}

func TestExceedancesErrors(t *testing.T) {
	st, _ := stationWithHistory(t)
	if _, err := st.Exceedances("nope", 0, 0, 0, 1); err == nil {
		t.Error("unknown sensor accepted")
	}
	if _, err := st.Exceedances("s", 0, 10, 5, 1); err == nil {
		t.Error("inverted range accepted")
	}
	// A threshold above everything yields no runs, not an error.
	runs, err := st.Exceedances("s", 0, 0, 0, 1e18)
	if err != nil || len(runs) != 0 {
		t.Errorf("impossible threshold gave %v, %v", runs, err)
	}
}

// TestExceedancesToSentinel checks that to == 0 means "end of history" and
// is equivalent to passing the length explicitly.
func TestExceedancesToSentinel(t *testing.T) {
	st, hist := stationWithHistory(t)
	threshold := hist.Mean()
	implicit, err := st.Exceedances("s", 0, 0, 0, threshold)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := st.Exceedances("s", 0, 0, len(hist), threshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(implicit) != len(explicit) {
		t.Fatalf("sentinel gave %d runs, explicit %d", len(implicit), len(explicit))
	}
	for i := range implicit {
		if implicit[i] != explicit[i] {
			t.Fatalf("run %d: sentinel %+v, explicit %+v", i, implicit[i], explicit[i])
		}
	}
}

// TestExceedancesRunTouchingEnd forces a run still open at the end of the
// scan window: it must be closed at `to`, with the right peak.
func TestExceedancesRunTouchingEnd(t *testing.T) {
	hist := timeseries.Series{1, 5, 2, 6, 7, 8}
	runs, err := ScanExceedances(hist, 0, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	if runs[0].Start != 3 || runs[0].End != len(hist) || runs[0].Peak != 8 {
		t.Fatalf("end-touching run %+v, want {3 6 8}", runs[0])
	}
	// Same but with an explicit sub-range ending mid-run.
	runs, err = ScanExceedances(hist, 0, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].End != 5 || runs[0].Peak != 7 {
		t.Fatalf("clipped run %+v, want end 5 peak 7", runs)
	}
}

// TestExceedancesEmptyHistory: an empty series with the to == 0 sentinel
// yields no runs and no error; any explicit range beyond it fails.
func TestExceedancesEmptyHistory(t *testing.T) {
	runs, err := ScanExceedances(nil, 0, 0, 1)
	if err != nil {
		t.Fatalf("empty history errored: %v", err)
	}
	if len(runs) != 0 {
		t.Fatalf("empty history gave %d runs", len(runs))
	}
	if _, err := ScanExceedances(nil, 0, 1, 1); err == nil {
		t.Fatal("range beyond empty history accepted")
	}
	if _, err := ScanExceedances(nil, -1, 0, 1); err == nil {
		t.Fatal("negative from accepted")
	}
}

// TestReadWindowMatchesWholeHistory checks the windowed reader against the
// whole-history reference over random windows on both sides of the
// cold/hot boundary: the samples equal History's slice, Exceedances equals
// ScanExceedances over History, and the bound is the worst §4.5 bound the
// sensor shipped for the chunks the window overlaps.
func TestReadWindowMatchesWholeHistory(t *testing.T) {
	cfg := core.Config{TotalBand: 160, MBase: 64, Metric: metrics.MaxAbs}
	st, store := newArchivedStation(t, cfg, t.TempDir(), 3, 2)
	defer store.Close()
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(5, 64, 10)
	var bounds []float64
	for f := 0; f < 10; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive("mx", tr); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, tr.ErrBound)
	}
	hist, err := st.History("mx", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.FileLen
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		from := rng.Intn(len(hist))
		to := from + rng.Intn(len(hist)-from+1)
		end := to
		if end == 0 {
			end = len(hist)
		}
		w, err := st.ReadWindow("mx", 0, from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w.From != from || w.To != end || !timeseries.Equal(w.Values, hist[from:end], 0) {
			t.Fatalf("ReadWindow(%d,%d) = [%d,%d) with %d values, want History[%d:%d]",
				from, to, w.From, w.To, len(w.Values), from, end)
		}
		var bound float64
		for c := from / m; from < end && c <= (end-1)/m; c++ {
			bound = max(bound, bounds[c])
		}
		if w.Bound != bound {
			t.Fatalf("ReadWindow(%d,%d) bound %v, want %v", from, to, w.Bound, bound)
		}
		threshold := hist[rng.Intn(len(hist))]
		got, err := st.Exceedances("mx", 0, from, to, threshold)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ScanExceedances(hist, from, to, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Exceedances(%d,%d,%v) = %+v, want %+v", from, to, threshold, got, want)
		}
	}
}
