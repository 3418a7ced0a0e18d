package core

import "sbr/internal/obs"

// encodeMetrics is the sender-side instrumentation of the Encode fast
// path. All fields are nil until Instrument is called; the obs package's
// nil-receiver no-ops make the uninstrumented path free.
type encodeMetrics struct {
	encodes     *obs.Counter
	searchEvals *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	tailShifts  *obs.Counter
	screened    *obs.Counter
	exact       *obs.Counter
	siblings    *obs.Counter
	helped      *obs.Counter
	scanWorkers *obs.Gauge
}

// Instrument registers the compressor's encode metrics on reg. Many
// compressors may share one registry: registration is idempotent, so every
// sensor in a simulated network accumulates into the same series.
func (c *Compressor) Instrument(reg *obs.Registry) {
	c.met = encodeMetrics{
		encodes:     reg.Counter("sbr_encode_total", "Batches compressed by Encode."),
		searchEvals: reg.Counter("sbr_encode_search_evals_total", "CalculateError evaluations spent by the Algorithm 7 insert-count search."),
		cacheHits:   reg.Counter("sbr_encode_cache_hits_total", "BestMap calls answered from the cross-probe scan cache."),
		cacheMisses: reg.Counter("sbr_encode_cache_misses_total", "BestMap calls that created their scan-cache entry."),
		tailShifts:  reg.Counter("sbr_encode_tail_shifts_total", "Candidate-tail shift positions scanned incrementally beyond cached coverage."),
		screened:    reg.Counter("sbr_encode_screened_shifts_total", "Shift positions SSE scans covered through the block-FFT screen."),
		exact:       reg.Counter("sbr_encode_exact_shifts_total", "Screened shift positions that still needed the exact per-shift evaluation."),
		siblings:    reg.Counter("sbr_encode_sibling_pairs_total", "Sibling interval pairs offered to the GetIntervals helper goroutine."),
		helped:      reg.Counter("sbr_encode_helper_pairs_total", "Offered sibling pairs whose half the helper goroutine mapped."),
		scanWorkers: reg.Gauge("sbr_encode_scan_workers", "Goroutines that mapped intervals in the last Encode: 1, or 2 when the sibling helper ran."),
	}
}

// observe folds one Encode's report into the registered metrics.
func (m *encodeMetrics) observe(rep *CompressionReport) {
	m.encodes.Inc()
	m.searchEvals.Add(uint64(rep.SearchEvals))
	m.cacheHits.Add(uint64(rep.CacheHits))
	m.cacheMisses.Add(uint64(rep.CacheMisses))
	m.tailShifts.Add(uint64(rep.TailShifts))
	m.screened.Add(uint64(rep.ScreenedShifts))
	m.exact.Add(uint64(rep.ExactShifts))
	m.siblings.Add(uint64(rep.SiblingPairs))
	m.helped.Add(uint64(rep.HelperPairs))
	m.scanWorkers.Set(float64(rep.ScanWorkers))
}
