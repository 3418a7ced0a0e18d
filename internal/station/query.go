package station

import (
	"fmt"

	"sbr/internal/timeseries"
)

// This file implements the historical-query layer over the approximate
// per-sensor logs: windowed (downsampled) aggregates for plotting and
// analysis, and threshold scans — the "detailed historical information"
// workloads (military surveillance, environmental forensics) the paper's
// introduction contrasts with plain aggregation.

// Query describes a windowed aggregate over one quantity's history.
type Query struct {
	Sensor string
	Row    int
	// From and To bound the sample range [From, To); To == 0 means the end
	// of the recorded history.
	From, To int
	// Step partitions the range into windows of this many samples, each
	// reduced by Agg. Step == 0 means a single window over the whole range.
	Step int
	Agg  AggregateKind
}

// QueryPoint is one window of a query result.
type QueryPoint struct {
	Start, End int // sample range of the window
	Value      float64
}

// Run executes a windowed-aggregate query. Each window is answered from
// the hierarchical aggregate index (plus exact ragged edges), so a query
// over w windows costs O(w log n) instead of materialising the history.
func (s *Station) Run(q Query) ([]QueryPoint, error) {
	done := s.queryTimer()
	defer done()
	// One snapshot answers every window, so the whole query sees a single
	// consistent point in time regardless of concurrent ingest.
	sn, err := s.snapshot(q.Sensor, q.Row)
	if err != nil {
		return nil, err
	}
	total := sn.totalSamples()
	from, to := q.From, q.To
	if to == 0 {
		to = total
	}
	if from < 0 || to > total || from >= to {
		return nil, fmt.Errorf("%w: query range [%d,%d) outside history [0,%d)",
			ErrInvalidQuery, from, to, total)
	}
	if err := sn.readable(from); err != nil {
		return nil, err
	}
	step := q.Step
	if step <= 0 {
		step = to - from
	}
	var out []QueryPoint
	for start := from; start < to; start += step {
		end := start + step
		if end > to {
			end = to
		}
		sum, err := sn.summarize(q.Row, start, end, nil)
		if err != nil {
			return nil, err
		}
		v, _, err := answerSummary(sum, q.Agg)
		if err != nil {
			return nil, err
		}
		out = append(out, QueryPoint{Start: start, End: end, Value: v})
	}
	return out, nil
}

// Downsample returns the history of one quantity reduced to at most points
// samples by window-averaging — the typical plotting export.
func (s *Station) Downsample(id string, row, points int) (timeseries.Series, error) {
	hist, err := s.History(id, row)
	if err != nil {
		return nil, err
	}
	return DownsampleSeries(hist, points)
}

// DownsampleSeries reduces a reconstructed history to at most points
// samples by window-averaging, each window summed in sample order.
func DownsampleSeries(hist timeseries.Series, points int) (timeseries.Series, error) {
	if points <= 0 {
		return nil, fmt.Errorf("%w: non-positive point count %d", ErrInvalidQuery, points)
	}
	if points >= len(hist) {
		return hist, nil
	}
	factor := (len(hist) + points - 1) / points
	return timeseries.Downsample(hist, factor), nil
}

// Exceedance is one maximal run of samples at or above a threshold.
type Exceedance struct {
	Start, End int     // sample range [Start, End)
	Peak       float64 // largest value inside the run
}

// Exceedances scans [from, to) of a quantity's history for maximal runs of
// samples >= threshold — "when was the temperature above 30 °C, and how
// hot did it get" over the approximate record. Only the window is read;
// a zero `to` means the end of the history.
func (s *Station) Exceedances(id string, row int, from, to int, threshold float64) ([]Exceedance, error) {
	w, err := s.ReadWindow(id, row, from, to, nil)
	if err != nil {
		return nil, err
	}
	return w.Exceedances(threshold), nil
}

// ScanExceedances runs the threshold scan over an already-reconstructed
// history, with the same [from, to) semantics as Exceedances (zero `to`
// means the end of the series).
func ScanExceedances(hist timeseries.Series, from, to int, threshold float64) ([]Exceedance, error) {
	if to == 0 {
		to = len(hist)
	}
	if from < 0 || to > len(hist) || from > to {
		return nil, fmt.Errorf("%w: scan range [%d,%d) outside history [0,%d)",
			ErrInvalidQuery, from, to, len(hist))
	}
	return Window{From: from, To: to, Values: hist[from:to]}.Exceedances(threshold), nil
}

// Exceedances returns the window's maximal runs of samples >= threshold,
// indexed in history samples; a run still open at To ends there.
func (w Window) Exceedances(threshold float64) []Exceedance {
	var out []Exceedance
	inRun := false
	var cur Exceedance
	for i, v := range w.Values {
		if v >= threshold {
			if !inRun {
				inRun = true
				cur = Exceedance{Start: w.From + i, Peak: v}
			} else if v > cur.Peak {
				cur.Peak = v
			}
			continue
		}
		if inRun {
			cur.End = w.From + i
			out = append(out, cur)
			inRun = false
		}
	}
	if inRun {
		cur.End = w.To
		out = append(out, cur)
	}
	return out
}
