package interval

import "math"

// This file is the shift-scan engine behind BestMap: one running-minima
// reduction shared by all three scan paths (the generic per-metric fitter,
// the quadratic encoding, and the screened or fused SSE kernel). The rule
// is "smallest error, ties to the smallest shift" — the order of an
// ascending scan with a strict < comparison. Parallelism lives one level
// up, in GetIntervals' sibling helper (helper.go); each scan runs on one
// goroutine.

// shiftFit is one scanned candidate mapping: the shift (or RampShift) and
// its fitted coefficients. C stays zero under the linear encoding.
type shiftFit struct {
	Shift   int
	A, B, C float64
	Err     float64
}

// A rangeScanner is one scan path's unit of work: evaluate shifts [lo, hi)
// in ascending order and append every fit whose error strictly beats best
// (which then becomes the new bar) to out. Implementations must be pure
// functions of (lo, hi, best): the same range must always produce the same
// fits, which is what makes the cross-probe cache exact and BestMap safe
// to run for distinct intervals on two goroutines at once.
type rangeScanner func(lo, hi int, best float64, out []shiftFit) []shiftFit

// evalScanner lifts a per-shift evaluator into a rangeScanner — the
// generic-fitter and quadratic paths; the SSE path uses a fused kernel
// instead.
func evalScanner(eval func(int) shiftFit) rangeScanner {
	return func(lo, hi int, best float64, out []shiftFit) []shiftFit {
		for s := lo; s < hi; s++ {
			if f := eval(s); f.Err < best {
				best = f.Err
				out = append(out, f)
			}
		}
		return out
	}
}

// scanBest reduces a scan of [lo, hi) to its winner only — the path for
// scans whose improvements are not being cached.
func scanBest(scan rangeScanner, lo, hi int) (shiftFit, bool) {
	mins := scan(lo, hi, math.Inf(1), nil)
	if len(mins) == 0 {
		return shiftFit{}, false
	}
	return mins[len(mins)-1], true
}

// bestAmong answers "best mapping over shifts [0, shifts)" from a
// running-minima list: the last improvement below that bound, found by
// binary search. ok is false when no improvement falls in the range.
func bestAmong(mins []shiftFit, shifts int) (shiftFit, bool) {
	lo, hi := 0, len(mins)
	for lo < hi {
		mid := (lo + hi) / 2
		if mins[mid].Shift < shifts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return shiftFit{}, false
	}
	return mins[lo-1], true
}
