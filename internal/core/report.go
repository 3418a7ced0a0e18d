package core

import "sbr/internal/interval"

// CompressionReport is the per-transmission SBR telemetry record: the
// quantities the paper's Section 6 evaluation plots, extracted from one
// compressed batch so the instrumentation layer (internal/obs) can
// aggregate them across a live stream. Both ends of the wire produce
// one — the sensor from its Compressor (which also knows how hard the
// Algorithm 7 insert-count search worked), the base station from each
// decoded Transmission via ReportTransmission.
type CompressionReport struct {
	Seq  int // transmission sequence number
	Cost int // bandwidth consumed, in values

	Intervals     int // piece-wise regression records shipped
	BaseInserts   int // base intervals inserted this transmission (Table 6)
	BaseHits      int // intervals mapped onto a base-signal segment
	RampIntervals int // intervals that fell back to plain regression

	// SearchEvals counts the CalculateError evaluations the Algorithm 7
	// binary search spent choosing the insert count. Sender-side only:
	// the search never leaves the sensor, so reports derived from a
	// received Transmission carry zero here.
	SearchEvals int

	// AchievedError is the sender-side approximation error under the
	// active metric; ErrBound the §4.5 guaranteed maximum absolute error
	// (zero unless the stream runs under metrics.MaxAbs).
	AchievedError float64
	ErrBound      float64

	// Encode fast-path telemetry, sender-side only (like SearchEvals):
	// how the insert-count search's cross-probe scan cache fared.
	// CacheHits/CacheMisses count BestMap calls served from / creating a
	// cache entry; TailShifts counts the shift positions actually scanned
	// incrementally on top of cached coverage (the redundant work a
	// non-incremental search would have repeated). All zero when the
	// Encode ran without a search (forced or zero-candidate insert counts).
	CacheHits   int
	CacheMisses int
	TailShifts  int

	// ScanWorkers is the number of goroutines that mapped intervals in
	// the Encode: 1, or 2 when GetIntervals ran its sibling helper.
	// SiblingPairs counts the split halves (and seeding row pairs) offered
	// to the helper, HelperPairs the offers it mapped; the caller mapped
	// the rest itself. Sender-side only.
	ScanWorkers  int
	SiblingPairs int
	HelperPairs  int

	// ScreenedShifts counts the shifts SSE scans covered through the
	// block-FFT screen, and ExactShifts how many of those still needed the
	// exact per-shift evaluation; ExactShifts/ScreenedShifts is the share
	// of the screen's work that was not saved. Sender-side only, and zero
	// when no scan took the screened path.
	ScreenedShifts int
	ExactShifts    int
}

// ReportTransmission derives the telemetry record of one transmission —
// everything except the sender-private search effort.
func ReportTransmission(t *Transmission) CompressionReport {
	rep := CompressionReport{
		Seq:           t.Seq,
		Cost:          t.Cost,
		Intervals:     len(t.Intervals),
		BaseInserts:   t.Ins(),
		AchievedError: t.TotalErr,
		ErrBound:      t.ErrBound,
	}
	for _, iv := range t.Intervals {
		if iv.Shift == interval.RampShift {
			rep.RampIntervals++
		} else {
			rep.BaseHits++
		}
	}
	return rep
}

// LastReport returns the telemetry record of the most recent Encode,
// including the insert-count search effort. The zero report is returned
// before the first batch.
func (c *Compressor) LastReport() CompressionReport { return c.lastReport }
