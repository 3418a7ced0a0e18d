package station

// This file is the station's read path. Every historical query — point
// reads, ReadWindow (which serves every read of samples), the aggregates
// and the windowed Run — starts by capturing a snapshot of the sensor's
// state under a brief acquisition of the sensor's lock, then runs
// entirely lock-free: index walks, exact edge scans and cold archive
// fetches (disk reads + windowed decodes) never hold any station lock, so
// a slow cold query blocks neither ingest nor other readers. See the
// package comment for why the captured headers stay valid while the
// writer keeps appending and evicting.

import (
	"fmt"
	"math"
	"time"

	"sbr/internal/obs/trace"
	"sbr/internal/query"
	"sbr/internal/segstore"
	"sbr/internal/timeseries"
)

// snap is an immutable view of one sensor's history, valid without locks
// for its whole lifetime. Chunks [0, first) are cold (archive only);
// window[i] holds global chunk first+i; bounds[c-base] and index leaf
// c-base cover chunks [base, first+len(window)).
type snap struct {
	id     string
	n, m   int
	base   int
	first  int
	window [][]timeseries.Series
	bounds []float64
	index  *query.Snapshot
	store  *segstore.Store
	met    *stationMetrics
}

func (sn *snap) totalChunks() int    { return sn.first + len(sn.window) }
func (sn *snap) totalSamples() int   { return sn.totalChunks() * sn.m }
func (sn *snap) bound(c int) float64 { return sn.bounds[c-sn.base] }

// readable fails when samples from on reach below the purge watermark
// (the archive's ErrPurged). Every read checks it before it looks anywhere
// — window, aggregate index or archive — so purged history answers the
// same whichever structure could still serve it, and no read reaches below
// base.
func (sn *snap) readable(from int) error {
	if sn.store == nil {
		return nil
	}
	if p := sn.store.PurgedThrough(sn.id); from/sn.m < p {
		return fmt.Errorf("%w: sensor %q sample %d (archive starts at chunk %d)",
			segstore.ErrPurged, sn.id, from, p)
	}
	return nil
}

// snapshot captures the named sensor's read view and validates the
// quantity row. The common case — a sensor that has not absorbed a frame
// since the last query — is one atomic load of the cached view: no lock,
// no allocation. On a miss the sensor lock is held only for the header
// copies, and the fresh view is published for the readers behind us
// (while still holding the lock, so a stale view can never overwrite a
// writer's invalidation).
func (s *Station) snapshot(id string, row int) (*snap, error) {
	log := s.lookupLog(id)
	if log == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownSensor, id)
	}
	sn := log.view.Load()
	if sn == nil {
		store, _ := s.archiveBinding()
		met := s.metrics()
		if met.queryLockWait != nil {
			t0 := time.Now()
			log.mu.Lock()
			met.queryLockWait.Observe(time.Since(t0).Seconds())
		} else {
			log.mu.Lock()
		}
		sn = &snap{
			id:     id,
			n:      log.n,
			m:      log.m,
			base:   log.base,
			first:  log.first,
			window: log.chunks,
			bounds: log.bounds,
			store:  store,
			met:    met,
		}
		if log.index != nil {
			sn.index = log.index.Snapshot()
		}
		log.view.Store(sn)
		log.mu.Unlock()
	}
	if row < 0 || row >= sn.n {
		return nil, fmt.Errorf("%w: sensor %q has %d quantities, row %d requested",
			ErrInvalidQuery, id, sn.n, row)
	}
	return sn, nil
}

// queryTimer counts one query and returns the latency observer to defer.
func (s *Station) queryTimer() func() {
	met := s.metrics()
	met.queries.Inc()
	if met.querySeconds == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { met.querySeconds.Observe(time.Since(t0).Seconds()) }
}

// chunkRow returns quantity row of global chunk c: straight from the
// snapshot window when c is inside it, otherwise cold from the archive,
// which loads the segment holding c and reconstructs only that row of
// that chunk. Cold fetches are recorded as children of sp.
func (sn *snap) chunkRow(c, row int, sp *trace.Span) (timeseries.Series, error) {
	if c >= sn.first {
		if i := c - sn.first; i < len(sn.window) {
			return sn.window[i][row], nil
		}
		return nil, fmt.Errorf("station: sensor %q chunk %d beyond recorded history", sn.id, c)
	}
	values := make(timeseries.Series, sn.m)
	if err := sn.coldRange(c, c+1, row, values, sp); err != nil {
		return nil, err
	}
	return values, nil
}

// coldRange reconstructs quantity row of cold chunks [c0, c1) into dst,
// sn.m samples per chunk, through the store's windowed range read,
// recorded as one segstore.cold_fetch child of sp.
func (sn *snap) coldRange(c0, c1, row int, dst timeseries.Series, sp *trace.Span) error {
	if sn.store == nil {
		return fmt.Errorf("station: sensor %q chunk %d evicted and no archive attached", sn.id, c0)
	}
	err := sn.store.ChunkRangeRow(sn.id, c0, c1, row, dst, sp)
	if err == nil {
		sn.met.queryCold.Add(uint64(c1 - c0))
	}
	return err
}

// Window is one quantity's reconstructed samples over [From, To) of a
// sensor's history, read from a single snapshot.
type Window struct {
	From, To int
	Values   timeseries.Series // the To−From samples
	// Bound is the worst §4.5 per-chunk maximum absolute error over the
	// chunks the window overlaps: zero for an empty window or a sensor
	// that did not run under the MaxAbs metric.
	Bound float64
}

// ReadWindow is the station's one sample reader: every query that needs
// reconstructed samples rather than summaries reads through it. It
// returns quantity row of the named sensor over [from, to), a zero `to`
// meaning the end of the history as of the same snapshot that serves the
// samples. Only the chunks the window overlaps are materialised, into one
// buffer the window then spans: the cold prefix through the archive's
// windowed range read, which reconstructs only this row of those chunks,
// recorded as children of sp (nil: untraced), the in-memory suffix copied
// off the snapshot window. It fails with the archive's purge error when
// retention has dropped part of the window.
func (s *Station) ReadWindow(id string, row, from, to int, sp *trace.Span) (Window, error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return Window{}, err
	}
	total := sn.totalSamples()
	if to == 0 {
		to = total
	}
	if from < 0 || to > total || from > to {
		return Window{}, fmt.Errorf("%w: range [%d,%d) outside history [0,%d)",
			ErrInvalidQuery, from, to, total)
	}
	w := Window{From: from, To: to}
	if from == to {
		w.Values = timeseries.Series{}
		return w, nil
	}
	if err := sn.readable(from); err != nil {
		return Window{}, err
	}
	// The chunks [cLo, cHi) the window overlaps, whole: buf[i·m:(i+1)·m]
	// holds chunk cLo+i, the cold ones decoded there by the archive.
	m := sn.m
	cLo, cHi := from/m, (to+m-1)/m
	buf := make(timeseries.Series, (cHi-cLo)*m)
	if coldHi := min(cHi, sn.first); cLo < coldHi {
		if err := sn.coldRange(cLo, coldHi, row, buf[:(coldHi-cLo)*m], sp); err != nil {
			return Window{}, err
		}
	}
	for c := max(cLo, sn.first); c < cHi; c++ {
		copy(buf[(c-cLo)*m:], sn.window[c-sn.first][row])
	}
	for c := cLo; c < cHi; c++ {
		w.Bound = max(w.Bound, sn.bound(c))
	}
	w.Values = buf[from-cLo*m : to-cLo*m : to-cLo*m]
	return w, nil
}

// History returns the full reconstructed history of quantity row of the
// named sensor: the concatenation of that row across every received chunk,
// decoding archived segments for any chunk evicted from memory. It fails
// with the archive's purge error when retention has dropped part of the
// history.
func (s *Station) History(id string, row int) (timeseries.Series, error) {
	w, err := s.ReadWindow(id, row, 0, 0, nil)
	return w.Values, err
}

// Range answers a historical range query over [from, to) of quantity row
// (a zero `to` means the end of the history), materialising only the
// chunks the range overlaps.
func (s *Station) Range(id string, row, from, to int) (timeseries.Series, error) {
	w, err := s.ReadWindow(id, row, from, to, nil)
	return w.Values, err
}

// At answers a historical point query: the reconstructed value of quantity
// row at global sample index idx (counted from the first transmission).
// Samples evicted from memory are served cold from the archive.
func (s *Station) At(id string, row, idx int) (float64, error) {
	v, _, err := s.AtWithBound(id, row, idx)
	return v, err
}

// AtWithBound answers a point query together with the guaranteed maximum
// absolute error of the chunk the sample came from (Section 4.5). The
// bound is zero when the sensor did not run under the MaxAbs metric.
func (s *Station) AtWithBound(id string, row, idx int) (value, bound float64, err error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return 0, 0, err
	}
	if idx < 0 || idx >= sn.totalSamples() {
		return 0, 0, fmt.Errorf("%w: sample %d outside recorded history [0,%d)",
			ErrInvalidQuery, idx, sn.totalSamples())
	}
	if err := sn.readable(idx); err != nil {
		return 0, 0, err
	}
	values, err := sn.chunkRow(idx/sn.m, row, nil)
	if err != nil {
		return 0, 0, err
	}
	return values[idx%sn.m], sn.bound(idx / sn.m), nil
}

// AggregateKind selects a range-aggregate function.
type AggregateKind int

const (
	AggAvg AggregateKind = iota
	AggSum
	AggMin
	AggMax
)

// Aggregate answers a historical aggregate query over [from, to) of
// quantity row (a zero `to` means the end of the history). It is answered
// from the hierarchical aggregate index in O(log n) chunk-summary merges;
// only the ragged sub-chunk edges of the range touch the reconstructed
// samples.
func (s *Station) Aggregate(id string, row, from, to int, kind AggregateKind) (float64, error) {
	v, _, err := s.AggregateWithBound(id, row, from, to, kind)
	return v, err
}

// AggregateWithBound answers an aggregate query together with the
// guaranteed maximum absolute error of the answer, derived from the §4.5
// per-chunk bounds the sensors shipped: for Sum the bounds of the covered
// samples accumulate, for Avg they average, and for Min/Max the worst
// per-sample bound applies. The bound is zero when the sensor did not run
// under the MaxAbs metric.
func (s *Station) AggregateWithBound(id string, row, from, to int, kind AggregateKind) (value, bound float64, err error) {
	value, bound, _, err = s.AggregateWithBoundTraced(id, row, from, to, kind, nil)
	return value, bound, err
}

// AggregateWithBoundTraced is AggregateWithBound recording the index walk
// and any archive cold fetches as children of sp (nil: untraced). It also
// returns the range's end: `to`, or for a zero `to` the history length on
// the snapshot that answered.
func (s *Station) AggregateWithBoundTraced(id string, row, from, to int, kind AggregateKind, sp *trace.Span) (value, bound float64, end int, err error) {
	done := s.queryTimer()
	defer done()
	sn, err := s.snapshot(id, row)
	if err != nil {
		return 0, 0, 0, err
	}
	total := sn.totalSamples()
	if to == 0 {
		to = total
	}
	if from < 0 || to > total || from > to {
		return 0, 0, 0, fmt.Errorf("%w: range [%d,%d) outside history [0,%d)",
			ErrInvalidQuery, from, to, total)
	}
	if from == to {
		return 0, 0, 0, fmt.Errorf("%w: aggregate over empty range [%d,%d)", ErrInvalidQuery, from, to)
	}
	if err := sn.readable(from); err != nil {
		return 0, 0, 0, err
	}
	wsp := sp.Child("query.index_walk")
	sum, err := sn.summarize(row, from, to, sp)
	wsp.End()
	if err != nil {
		return 0, 0, 0, err
	}
	value, bound, err = answerSummary(sum, kind)
	return value, bound, to, err
}

// answerSummary turns a merged span summary into the aggregate answer and
// its guaranteed maximum absolute error.
func answerSummary(sum query.Summary, kind AggregateKind) (value, bound float64, err error) {
	switch kind {
	case AggAvg:
		return sum.Sum / float64(sum.Count), sum.BoundSum / float64(sum.Count), nil
	case AggSum:
		return sum.Sum, sum.BoundSum, nil
	case AggMin:
		return sum.Min, sum.BoundMax, nil
	case AggMax:
		return sum.Max, sum.BoundMax, nil
	default:
		return math.NaN(), 0, fmt.Errorf("%w: unknown aggregate kind %d", ErrInvalidQuery, kind)
	}
}

// summarize reduces [from, to) of one quantity: whole chunks come from the
// aggregate-index snapshot in O(log n) merges (the index spans the history
// from base, evicted chunks included), the ragged edges from an exact scan
// of the overlapped chunk windows — cold-loaded from the archive when
// evicted. The caller has validated the range and checked it against the
// purge watermark.
func (sn *snap) summarize(row, from, to int, sp *trace.Span) (query.Summary, error) {
	m := sn.m
	c0 := (from + m - 1) / m // first fully covered chunk
	c1 := to / m             // one past the last fully covered chunk
	if c0 >= c1 {
		// The range lives inside one chunk or straddles one boundary with
		// no whole chunk in between: the exact scan is already minimal.
		return sn.scanRange(row, from, to, sp)
	}
	sum, err := sn.index.QueryChunks(row, c0-sn.base, c1-sn.base)
	if err != nil {
		// Unreachable: receive() keeps the index in lock-step with chunks,
		// and the snapshot captured both under one lock.
		panic(err)
	}
	if lead := c0 * m; from < lead {
		edge, err := sn.scanRange(row, from, lead, sp)
		if err != nil {
			return query.Summary{}, err
		}
		sum = query.Merge(edge, sum)
	}
	if tail := c1 * m; tail < to {
		edge, err := sn.scanRange(row, tail, to, sp)
		if err != nil {
			return query.Summary{}, err
		}
		sum = query.Merge(sum, edge)
	}
	return sum, nil
}

// scanRange summarises [from, to) exactly by reducing each overlapped
// chunk window in place, fetching evicted chunks cold from the archive.
func (sn *snap) scanRange(row, from, to int, sp *trace.Span) (query.Summary, error) {
	var out query.Summary
	for from < to {
		c := from / sn.m
		values, err := sn.chunkRow(c, row, sp)
		if err != nil {
			return query.Summary{}, err
		}
		lo := from - c*sn.m
		hi := sn.m
		if limit := to - c*sn.m; limit < hi {
			hi = limit
		}
		out = query.Merge(out, query.Summarize(values[lo:hi], sn.bound(c)))
		from = c*sn.m + hi
	}
	return out, nil
}
