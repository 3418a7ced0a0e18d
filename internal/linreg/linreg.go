// Package linreg implements the plain piecewise-linear-regression
// competitor of Section 5.2: the data is split into intervals that are each
// modelled as a straight line in time. Because no base signal exists, no
// bandwidth is spent on it and no shift pointer is transmitted, so each
// interval costs 3 values and a budget of TotalBand buys TotalBand/3
// intervals. The adaptive variant reuses SBR's error-driven splitting; the
// uniform variant is the naive fixed-grid layout, kept as an ablation.
package linreg

import (
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

// Adaptive approximates the batch with at most budget/3 time-linear
// intervals placed by the same max-error splitting as SBR's GetIntervals,
// just with the base signal removed. Returns the reconstruction.
func Adaptive(rows []timeseries.Series, budget int, kind metrics.Kind) []timeseries.Series {
	if len(rows) == 0 {
		return nil
	}
	n, m := len(rows), len(rows[0])
	y := timeseries.Concat(rows...)
	fitter := regression.Fitter{Kind: kind}
	mapper := interval.NewMapper(nil, 1, fitter)
	list := interval.GetIntervals(mapper, y, n, m, budget, interval.Options{
		ValuesPerRecord: interval.ValuesPerRampInterval,
	})
	approx := interval.ReconstructRange(nil, list, 0, len(y))
	return splitLike(approx, rows)
}

// Uniform approximates each row independently with equal-length segments,
// each fitted by least squares against time. With fixed segmentation the
// boundaries are implicit, so each segment costs 2 values (a, b).
func Uniform(rows []timeseries.Series, budget int, kind metrics.Kind) []timeseries.Series {
	if len(rows) == 0 {
		return nil
	}
	segments := budget / 2
	perRow := segments / len(rows)
	if perRow < 1 {
		perRow = 1
	}
	fitter := regression.Fitter{Kind: kind}
	out := make([]timeseries.Series, len(rows))
	for i, r := range rows {
		out[i] = uniformRow(r, perRow, fitter)
	}
	return out
}

func uniformRow(r timeseries.Series, segments int, fitter regression.Fitter) timeseries.Series {
	n := len(r)
	if segments > n {
		segments = n
	}
	out := make(timeseries.Series, n)
	for s := 0; s < segments; s++ {
		start := s * n / segments
		end := (s + 1) * n / segments
		fit := fitter.FitRamp(r, start, end-start)
		for i := start; i < end; i++ {
			out[i] = fit.A*float64(i-start) + fit.B
		}
	}
	return out
}

func splitLike(y timeseries.Series, like []timeseries.Series) []timeseries.Series {
	out := make([]timeseries.Series, len(like))
	off := 0
	for i, r := range like {
		out[i] = y[off : off+len(r)]
		off += len(r)
	}
	return out
}
