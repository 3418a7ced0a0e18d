// Package base implements the base-signal side of the SBR framework: the
// GetBase greedy feature-selection algorithm (Algorithm 4 of the paper) and
// its memory-constrained variant, the alternative constructions from the
// Appendix (GetBaseSVD, GetBaseDCT), and the bounded base-signal pool with
// LFU eviction used by the SBR driver (Algorithm 5, lines 10–13).
package base

import (
	"runtime"
	"sync"

	"sbr/internal/metrics"
	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

// Candidate is one candidate base interval (CBI): a width-W window cut from
// one of the collected signals, with its provenance recorded for debugging
// and experiment reporting.
type Candidate struct {
	Row   int // which input signal the window came from
	Index int // window offset within the row, in units of W
	Data  timeseries.Series
}

// Candidates cuts every row into non-overlapping windows of width w,
// producing the dictionary of K = N·M/W CBIs of Algorithm 4.
func Candidates(rows []timeseries.Series, w int) []Candidate {
	var out []Candidate
	for r, row := range rows {
		for i, win := range row.Split(w) {
			out = append(out, Candidate{Row: r, Index: i, Data: win})
		}
	}
	return out
}

// pairErrs returns err(i, j), the error of approximating CBI j as a linear
// image of CBI i — the entry type of Algorithm 4's K×K error matrix. Under
// the SSE metric the per-candidate moments are hoisted (O(K·W) once) so
// each pair costs only one unrolled cross moment instead of a full
// five-moment accumulation. Every GetBase variant evaluates pairs through
// this same function, which keeps their selections identical.
func pairErrs(cands []Candidate, w int, fitter regression.Fitter) func(i, j int) float64 {
	if fitter.Kind != metrics.SSE {
		return func(i, j int) float64 {
			return fitter.Fit(cands[i].Data, cands[j].Data, 0, 0, w).Err
		}
	}
	sums := make([]float64, len(cands))
	sumSqs := make([]float64, len(cands))
	for c, cand := range cands {
		var s, s2 float64
		for _, v := range cand.Data {
			s += v
			s2 += v * v
		}
		sums[c], sumSqs[c] = s, s2
	}
	return func(i, j int) float64 {
		cross := regression.Dot(cands[i].Data, cands[j].Data)
		return regression.SSEFromSums(sums[i], sums[j], cross, sumSqs[i], sumSqs[j], w).Err
	}
}

// GetBase selects up to maxIns CBIs from the rows using the greedy
// benefit-adjustment procedure of Algorithm 4: the benefit of CBI i is the
// total error reduction it offers over the best approximation each other
// CBI j has so far (initially plain linear regression), and after every
// selection the per-CBI best errors tighten, discounting candidates that
// cover the same data features. Selected CBIs are returned in selection
// order, most beneficial first.
//
// Time is O(K²·W) to build the error matrix plus O(maxIns·K²) for the
// greedy phase; space is O(K²). With the paper's W = √n this is the
// O(n^1.5) time / O(n) space configuration.
func GetBase(rows []timeseries.Series, w, maxIns int, fitter regression.Fitter) []Candidate {
	cands := Candidates(rows, w)
	k := len(cands)
	if k == 0 || maxIns <= 0 {
		return nil
	}
	if maxIns > k {
		maxIns = k
	}

	// errMat[i][j] is the error of approximating CBI j as a·CBI_i + b.
	// Rows are independent, so the O(K²·W) fill — the dominant cost of the
	// whole SBR pipeline — fans out over GOMAXPROCS workers, the cap the
	// shift-scan engine uses too. The greedy selection below stays
	// sequential and deterministic.
	errMat := make([][]float64, k)
	backing := make([]float64, k*k)
	pairErr := pairErrs(cands, w, fitter)
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < k; i += workers {
				row := backing[i*k : (i+1)*k : (i+1)*k]
				for j := 0; j < k; j++ {
					row[j] = pairErr(i, j)
				}
				errMat[i] = row
			}
		}(wk)
	}
	wg.Wait()
	// bestErr[j] is the best approximation error available for CBI j so
	// far: initially LinearErr(j), then tightened by every selected CBI.
	bestErr := make([]float64, k)
	for j := 0; j < k; j++ {
		bestErr[j] = fitter.FitRamp(cands[j].Data, 0, w).Err
	}

	selected := make([]Candidate, 0, maxIns)
	taken := make([]bool, k)
	for pick := 0; pick < maxIns; pick++ {
		bestIdx, bestBenefit := -1, 0.0
		for i := 0; i < k; i++ {
			if taken[i] {
				continue
			}
			var benefit float64
			for j := 0; j < k; j++ {
				if gain := bestErr[j] - errMat[i][j]; gain > 0 {
					benefit += gain
				}
			}
			if bestIdx == -1 || benefit > bestBenefit {
				bestIdx, bestBenefit = i, benefit
			}
		}
		if bestIdx == -1 {
			break
		}
		taken[bestIdx] = true
		selected = append(selected, cands[bestIdx])
		for j := 0; j < k; j++ {
			if e := errMat[bestIdx][j]; e < bestErr[j] {
				bestErr[j] = e
			}
		}
	}
	return selected
}

// GetBaseNoAdjust is the ablation of GetBase's benefit-adjustment step
// (Figure 4): candidates are ranked once by their initial benefit over
// plain linear regression and the top maxIns are taken, without
// re-discounting after each selection. It therefore happily picks several
// near-duplicates of the same dominant feature — exactly the failure mode
// the adjustment exists to prevent; the ablation benchmark quantifies the
// cost.
func GetBaseNoAdjust(rows []timeseries.Series, w, maxIns int, fitter regression.Fitter) []Candidate {
	cands := Candidates(rows, w)
	k := len(cands)
	if k == 0 || maxIns <= 0 {
		return nil
	}
	if maxIns > k {
		maxIns = k
	}
	linErr := make([]float64, k)
	for j := 0; j < k; j++ {
		linErr[j] = fitter.FitRamp(cands[j].Data, 0, w).Err
	}
	benefits := make([]float64, k)
	pairErr := pairErrs(cands, w, fitter)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if gain := linErr[j] - pairErr(i, j); gain > 0 {
				benefits[i] += gain
			}
		}
	}
	selected := make([]Candidate, 0, maxIns)
	taken := make([]bool, k)
	for pick := 0; pick < maxIns; pick++ {
		best := -1
		for i := 0; i < k; i++ {
			if taken[i] {
				continue
			}
			if best == -1 || benefits[i] > benefits[best] {
				best = i
			}
		}
		taken[best] = true
		selected = append(selected, cands[best])
	}
	return selected
}

// GetBaseLowMem is the memory-constrained variant sketched at the end of
// Section 4.2: it never materialises the K×K error matrix, storing only the
// per-CBI best error and recomputing pairwise regressions at each greedy
// step. Space drops to O(K) = O(√n) at the cost of O(maxIns·K²·W) =
// O(maxIns·n^1.5) time. Its selections are identical to GetBase.
func GetBaseLowMem(rows []timeseries.Series, w, maxIns int, fitter regression.Fitter) []Candidate {
	cands := Candidates(rows, w)
	k := len(cands)
	if k == 0 || maxIns <= 0 {
		return nil
	}
	if maxIns > k {
		maxIns = k
	}

	bestErr := make([]float64, k)
	for j := 0; j < k; j++ {
		bestErr[j] = fitter.FitRamp(cands[j].Data, 0, w).Err
	}
	pairErr := pairErrs(cands, w, fitter)

	selected := make([]Candidate, 0, maxIns)
	taken := make([]bool, k)
	for pick := 0; pick < maxIns; pick++ {
		bestIdx, bestBenefit := -1, 0.0
		for i := 0; i < k; i++ {
			if taken[i] {
				continue
			}
			var benefit float64
			for j := 0; j < k; j++ {
				if gain := bestErr[j] - pairErr(i, j); gain > 0 {
					benefit += gain
				}
			}
			if bestIdx == -1 || benefit > bestBenefit {
				bestIdx, bestBenefit = i, benefit
			}
		}
		if bestIdx == -1 {
			break
		}
		taken[bestIdx] = true
		selected = append(selected, cands[bestIdx])
		for j := 0; j < k; j++ {
			if err := pairErr(bestIdx, j); err < bestErr[j] {
				bestErr[j] = err
			}
		}
	}
	return selected
}

// Signals extracts the raw data windows of the candidates, in order.
func Signals(cands []Candidate) []timeseries.Series {
	out := make([]timeseries.Series, len(cands))
	for i, c := range cands {
		out[i] = c.Data
	}
	return out
}
