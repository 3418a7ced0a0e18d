package core

import (
	"fmt"

	"sbr/internal/base"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/regression"
	"sbr/internal/timeseries"
)

// Transmission is one compressed batch: everything the sensor ships to the
// base station for the latest N×M values, within Config.TotalBand values
// (Algorithm 5 line 15 and Section 3.2).
type Transmission struct {
	Seq     int // 0-based transmission number
	N, M, W int

	// BaseIntervals are the newly inserted base-signal features (W values
	// each) and Placements their final slots in the base-signal buffer.
	BaseIntervals []timeseries.Series
	Placements    []base.Placement

	// Intervals are the piece-wise regression records, sorted by Start.
	Intervals []interval.Interval

	// Cost is the bandwidth consumed, in values.
	Cost int

	// TotalErr is the sender-side approximation error under the metric the
	// compressor ran with.
	TotalErr float64

	// ErrBound is the guaranteed maximum absolute error of the chunk's
	// reconstruction, populated when the compressor runs under the MaxAbs
	// metric (Section 4.5: the bound ships with the approximate signal).
	// Zero under the other metrics, whose totals are not per-value bounds.
	ErrBound float64
}

// Ins returns the number of inserted base intervals.
func (t *Transmission) Ins() int { return len(t.BaseIntervals) }

// Bounded reports whether the transmission ships a §4.5 guaranteed
// maximum-absolute error bound — the signal the wire format flags and the
// base station's aggregate index folds into query answers.
func (t *Transmission) Bounded() bool { return t.ErrBound != 0 }

// Compressor runs the SBR algorithm over successive batches of sensor
// measurements, maintaining the base-signal pool between transmissions.
// It is not safe for concurrent use.
type Compressor struct {
	cfg    Config
	fitter regression.Fitter

	w    int // base-interval width, fixed at the first batch
	n    int // batch size N×M, fixed at the first batch
	pool *base.Pool
	dctX timeseries.Series // fixed cosine base, BuilderDCT only
	seq  int

	searchEvals int               // CalculateError evaluations of the last Encode
	handoffs    interval.Handoffs // GetIntervals' helper use in the last Encode
	lastReport  CompressionReport // telemetry record of the last Encode

	// Encode fast-path scratch state, reused across batches: the
	// concatenated search signal, its prefix sums and block spectra, and
	// the cache of the last insert-count search (nil when the last Encode
	// did not search).
	sigScratch timeseries.Series
	yScratch   timeseries.Series
	px         timeseries.Prefix
	spec       regression.Spectra
	mapper     *interval.Mapper
	lastCache  *interval.SearchCache

	met encodeMetrics // obs instruments, all nil until Instrument
}

// NewCompressor validates the configuration and creates a compressor.
// The zero value of Config.ForceIns means "search"; callers who want to
// pin the insert count set ForceIns explicitly via ConfigWithForceIns or by
// building the Config by hand with ForceIns >= 0.
func NewCompressor(cfg Config) (*Compressor, error) {
	if cfg.ForceIns == 0 && !cfg.SkipBaseUpdate {
		// Distinguish "unset" from "force zero inserts": the constructor
		// treats a zero value as AutoIns, matching the paper's default.
		cfg.ForceIns = AutoIns
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Compressor{
		cfg:    cfg,
		fitter: regression.Fitter{Kind: cfg.Metric, Sanity: cfg.Sanity},
	}, nil
}

// NewCompressorForceIns creates a compressor whose every transmission
// inserts exactly min(ins, maxIns) base intervals instead of searching —
// the manual sweep of Figure 6.
func NewCompressorForceIns(cfg Config, ins int) (*Compressor, error) {
	if ins < 0 {
		return nil, fmt.Errorf("core: negative forced insert count %d", ins)
	}
	cfg.ForceIns = ins
	c, err := NewCompressor(cfg)
	if err != nil {
		return nil, err
	}
	c.cfg.ForceIns = ins // NewCompressor may have reset 0 to AutoIns
	return c, nil
}

// Config returns the active configuration.
func (c *Compressor) Config() Config { return c.cfg }

// SetErrorTarget adjusts the Section 4.5 error budget applied to
// subsequent Encode calls. The target only steers interval splitting on
// the sender; it is not part of the replicated decoder state, so sender
// and receiver stay in sync no matter how it changes between batches.
// The self-monitoring sampler uses this to scale each window's budget to
// that window's signal range instead of fixing one absolute number for
// the life of the stream.
func (c *Compressor) SetErrorTarget(target float64) { c.cfg.ErrorTarget = target }

// W returns the base-interval width, or 0 before the first batch.
func (c *Compressor) W() int { return c.w }

// BaseSignal returns a copy of the current base signal.
func (c *Compressor) BaseSignal() timeseries.Series {
	if c.cfg.Builder == BuilderDCT {
		return c.dctX.Clone()
	}
	if c.pool == nil {
		return nil
	}
	return c.pool.Signal()
}

// Pool exposes the base-signal pool for diagnostics; nil before the first
// batch or under BuilderDCT/BuilderNone.
func (c *Compressor) Pool() *base.Pool { return c.pool }

// recordCost returns the per-interval transmission cost for the builder
// and encoding: the shift pointer is elided without a base signal, and the
// quadratic extension adds one coefficient.
func (c *Compressor) recordCost() int {
	cost := interval.ValuesPerInterval
	if c.cfg.Builder == BuilderNone {
		cost = interval.ValuesPerRampInterval
	}
	if c.cfg.Quadratic {
		cost++
	}
	return cost
}

// EncodeShortcut is Encode with the Section 4.4 shortcut forced for this
// one batch: the base-signal update phase (GetBase plus the insert-count
// search, by far the most expensive part of SBR) is skipped and the whole
// bandwidth goes to interval records. Sensors use it between the periodic
// full runs that refresh the base signal.
func (c *Compressor) EncodeShortcut(rows []timeseries.Series) (*Transmission, error) {
	saved := c.cfg.SkipBaseUpdate
	c.cfg.SkipBaseUpdate = true
	t, err := c.Encode(rows)
	c.cfg.SkipBaseUpdate = saved
	return t, err
}

// Encode compresses one batch of rows (each of equal length M) into a
// Transmission, updating the base-signal pool exactly as the base station's
// Decoder will replay it. Every batch after the first must have the same
// shape.
func (c *Compressor) Encode(rows []timeseries.Series) (*Transmission, error) {
	n, m, err := shape(rows)
	if err != nil {
		return nil, err
	}
	if c.w == 0 {
		c.w = c.cfg.widthFor(n * m)
		c.n = n * m
		if c.cfg.Builder != BuilderDCT && c.cfg.Builder != BuilderNone {
			c.pool = base.NewPool(c.cfg.MBase, c.w)
		}
		if c.cfg.Builder == BuilderDCT {
			maxIvs := c.cfg.MBase / c.w
			c.dctX = timeseries.Concat(base.GetBaseDCT(c.w, maxIvs)...)
		}
	} else if n*m != c.n {
		return nil, fmt.Errorf("core: batch size %d differs from first batch %d", n*m, c.n)
	}
	minCost := c.recordCost() * n
	if c.cfg.TotalBand < minCost {
		return nil, fmt.Errorf("core: TotalBand %d cannot cover %d rows (need >= %d values)",
			c.cfg.TotalBand, n, minCost)
	}

	// Concatenate into a reused scratch: nothing built from the batch holds
	// a reference into y once Encode returns (intervals store coefficients
	// only), so the buffer is safe to recycle next batch.
	c.yScratch = c.yScratch[:0]
	for _, row := range rows {
		c.yScratch = append(c.yScratch, row...)
	}
	y := c.yScratch
	t := &Transmission{Seq: c.seq, N: n, M: m, W: c.w}
	c.seq++
	c.searchEvals = 0
	c.lastCache = nil

	switch c.cfg.Builder {
	case BuilderDCT:
		list := c.getIntervals(c.dctX, y, n, m, c.cfg.TotalBand)
		t.Intervals = list
		t.Cost = len(list) * c.recordCost()
	case BuilderNone:
		list := c.getIntervals(nil, y, n, m, c.cfg.TotalBand)
		t.Intervals = list
		t.Cost = len(list) * c.recordCost()
	default:
		if err := c.encodeWithPool(rows, y, n, m, t); err != nil {
			return nil, err
		}
	}
	t.TotalErr = interval.TotalError(c.cfg.Metric, t.Intervals)
	if c.cfg.Metric == metrics.MaxAbs {
		t.ErrBound = t.TotalErr
	}
	if t.Cost > c.cfg.TotalBand {
		return nil, fmt.Errorf("core: internal error: cost %d exceeds TotalBand %d",
			t.Cost, c.cfg.TotalBand)
	}
	c.lastReport = ReportTransmission(t)
	c.lastReport.SearchEvals = c.searchEvals
	hits, misses, tail := c.lastCache.Stats()
	c.lastReport.CacheHits = int(hits)
	c.lastReport.CacheMisses = int(misses)
	c.lastReport.TailShifts = int(tail)
	screened, exact := c.spec.Stats()
	c.lastReport.ScreenedShifts = int(screened)
	c.lastReport.ExactShifts = int(exact)
	c.lastReport.SiblingPairs = c.handoffs.Pairs
	c.lastReport.HelperPairs = c.handoffs.HelperPairs
	c.lastReport.ScanWorkers = c.handoffs.Workers
	c.met.observe(&c.lastReport)
	return t, nil
}

// encodeWithPool runs the full Algorithm 5 path: select candidate base
// intervals, search for the best insert count, approximate, and commit the
// pool update.
func (c *Compressor) encodeWithPool(rows []timeseries.Series, y timeseries.Series,
	n, m int, t *Transmission) error {

	w := c.w
	var candidates []timeseries.Series
	if !c.cfg.SkipBaseUpdate {
		maxIns := c.maxIns(n)
		switch c.cfg.Builder {
		case BuilderGetBase:
			candidates = base.Signals(base.GetBase(rows, w, maxIns, c.fitter))
		case BuilderGetBaseLowMem:
			candidates = base.Signals(base.GetBaseLowMem(rows, w, maxIns, c.fitter))
		case BuilderGetBaseNoAdjust:
			candidates = base.Signals(base.GetBaseNoAdjust(rows, w, maxIns, c.fitter))
		case BuilderSVD:
			candidates = base.GetBaseSVD(rows, w, maxIns)
		}
	}

	st := c.newSearch(candidates, y, n, m)
	ins := c.chooseIns(st, len(candidates))
	inserted := candidates[:ins]

	// The winning probe's interval list is memoised in the search state, so
	// the final approximation is free when the search already evaluated it.
	list := c.searchList(st, ins)
	c.handoffs = st.mapper.TakeHandoffs()

	counts := c.pool.UseCounts(ins)
	for _, iv := range list {
		if iv.Shift != interval.RampShift {
			c.pool.CountUse(counts, iv.Shift, iv.Length)
		}
	}
	placements, err := c.pool.Commit(inserted, counts)
	if err != nil {
		return err
	}

	t.BaseIntervals = make([]timeseries.Series, ins)
	for i, iv := range inserted {
		t.BaseIntervals[i] = iv.Clone()
	}
	t.Placements = placements
	t.Intervals = list
	t.Cost = ins*(w+1) + len(list)*c.recordCost()
	return nil
}

// maxIns computes the cap on inserted base intervals: the paper's
// min(M_base, TotalBand)/W, further limited so the remaining budget can
// still carry at least one record per row.
func (c *Compressor) maxIns(n int) int {
	w := c.w
	maxIns := min(c.cfg.MBase, c.cfg.TotalBand) / w
	if limit := (c.cfg.TotalBand - c.recordCost()*n) / (w + 1); limit < maxIns {
		maxIns = limit
	}
	if maxIns < 0 {
		maxIns = 0
	}
	return maxIns
}

// searchState is the shared context of one insert-count search: the full
// candidate signal X₀‖candidates (built once into the compressor's scratch
// buffer), its prefix sums, one Mapper whose X is resliced per probe, the
// cross-probe scan cache, and the memoised per-probe interval lists and
// errors (Algorithm 6).
//
// Every probe pos approximates the batch against the prefix
// xFull[:prefixLen+pos·W]. Nothing mutates xFull or the prefix sums between
// probes, which is what makes the scan cache and the shared prefix sums
// bit-exact: a fit computed at any probe is the fit every other probe would
// compute.
type searchState struct {
	xFull     timeseries.Series
	prefixLen int // length of the stored pool signal X₀
	mapper    *interval.Mapper
	cache     *interval.SearchCache
	y         timeseries.Series
	n, m      int

	lists [][]interval.Interval
	errs  []float64
	known []bool
}

// newSearch builds the search state for one Encode, reusing the
// compressor's scratch signal, prefix sums, block spectra and mapper
// across batches. The scan cache is installed only when an actual
// Algorithm 7 search will run (AutoIns with more than one candidate);
// single-probe encodes would pay the bookkeeping without ever re-reading
// an entry.
func (c *Compressor) newSearch(candidates []timeseries.Series, y timeseries.Series, n, m int) *searchState {
	c.sigScratch = c.pool.AppendSignal(c.sigScratch[:0], candidates)
	c.px.Reset(c.sigScratch)
	c.spec.Reset(c.sigScratch)
	if c.mapper == nil {
		c.mapper = interval.NewMapperWithPrefix(nil, c.w, c.fitter, &c.px, &c.spec)
		c.mapper.Quadratic = c.cfg.Quadratic
	}
	c.mapper.Cache = nil
	st := &searchState{
		xFull:     c.sigScratch,
		prefixLen: c.pool.Size(),
		mapper:    c.mapper,
		y:         y,
		n:         n,
		m:         m,
		lists:     make([][]interval.Interval, len(candidates)+1),
		errs:      make([]float64, len(candidates)+1),
		known:     make([]bool, len(candidates)+1),
	}
	if !c.cfg.SkipBaseUpdate && c.cfg.ForceIns == AutoIns && len(candidates) > 1 {
		st.cache = interval.NewSearchCache()
		st.mapper.Cache = st.cache
	}
	c.lastCache = st.cache
	return st
}

// searchList returns the interval list of probe pos (insert the first pos
// candidates), computing and memoising it on first use. This is
// CalculateError's expensive half; the error itself lands in st.errs.
func (c *Compressor) searchList(st *searchState, pos int) []interval.Interval {
	if !st.known[pos] {
		x := st.xFull[:st.prefixLen+pos*c.w]
		st.mapper.X = x
		st.mapper.DisableRamp = c.cfg.DisableRampFallback && len(x) > 0
		budget := c.cfg.TotalBand - pos*(c.w+1)
		st.lists[pos] = interval.GetIntervals(st.mapper, st.y, st.n, st.m, budget, interval.Options{
			ErrorTarget:     c.cfg.ErrorTarget,
			ValuesPerRecord: c.recordCost(),
		})
		st.errs[pos] = interval.TotalError(c.cfg.Metric, st.lists[pos])
		st.known[pos] = true
	}
	return st.lists[pos]
}

// chooseIns picks how many of the candidate base intervals to insert:
// a forced count, zero in shortcut mode, or the binary search of
// Algorithm 7 with memoised CalculateError evaluations (Algorithm 6).
func (c *Compressor) chooseIns(st *searchState, maxIns int) int {
	if c.cfg.SkipBaseUpdate || maxIns == 0 {
		return 0
	}
	if c.cfg.ForceIns >= 0 {
		return min(c.cfg.ForceIns, maxIns)
	}

	calc := func(pos int) float64 { // CalculateError, memoised
		if !st.known[pos] {
			c.searchEvals++
			c.searchList(st, pos)
		}
		return st.errs[pos]
	}
	return search(calc, 0, maxIns)
}

// search is Algorithm 7: a binary search over the (assumed unimodal) error
// curve Errors[0..end], returning the insert count with the locally minimal
// error.
func search(calc func(int) float64, start, end int) int {
	for start < end {
		middle := (start + end) / 2
		if calc(middle) > calc(start) {
			if calc(end) > calc(start) {
				end = middle
			} else {
				start = middle
			}
			continue
		}
		if calc(middle+1) < calc(middle) {
			start = middle + 1
		} else {
			end = middle
		}
	}
	return start
}

// getIntervals wraps interval.GetIntervals with the compressor's fitter,
// ramp-fallback switch and record cost.
func (c *Compressor) getIntervals(x, y timeseries.Series, n, m, budget int) []interval.Interval {
	mapper := interval.NewMapper(x, c.w, c.fitter)
	mapper.DisableRamp = c.cfg.DisableRampFallback && len(x) > 0
	mapper.Quadratic = c.cfg.Quadratic
	list := interval.GetIntervals(mapper, y, n, m, budget, interval.Options{
		ErrorTarget:     c.cfg.ErrorTarget,
		ValuesPerRecord: c.recordCost(),
	})
	c.handoffs = mapper.TakeHandoffs()
	return list
}

// shape validates that all rows have the same positive length and returns
// (N, M).
func shape(rows []timeseries.Series) (int, int, error) {
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("core: no rows to encode")
	}
	m := len(rows[0])
	if m == 0 {
		return 0, 0, fmt.Errorf("core: empty rows")
	}
	for i, r := range rows[1:] {
		if len(r) != m {
			return 0, 0, fmt.Errorf("core: row %d has length %d, want %d", i+1, len(r), m)
		}
	}
	return len(rows), m, nil
}

// ReconstructionError evaluates a transmission against the original rows
// under the given metric, by decoding it against the supplied base signal
// (the pre-eviction X the intervals were fitted against).
func ReconstructionError(kind metrics.Kind, x timeseries.Series, t *Transmission,
	rows []timeseries.Series) float64 {
	y := timeseries.Concat(rows...)
	approx := interval.ReconstructRange(x, t.Intervals, 0, len(y))
	return metrics.Eval(kind, y, approx)
}
