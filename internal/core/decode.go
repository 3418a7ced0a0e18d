package core

import (
	"fmt"
	"sort"

	"sbr/internal/base"
	"sbr/internal/interval"
	"sbr/internal/timeseries"
)

// Decoder is the base-station counterpart of Compressor: it reconstructs
// the approximate rows of each transmission and replays every base-signal
// update on its own replica pool, so that sender and receiver agree on the
// base signal at every point in time (Section 3.2).
//
// The decoder must be fed the transmissions of one sensor in order.
type Decoder struct {
	cfg  Config
	w    int
	pool *base.Pool
	dctX timeseries.Series
	next int

	// Scratch space every transmission reuses: its interval list with the
	// lengths filled in, and the base signal its intervals were fitted
	// against. Neither outlives the call that fills it.
	list []interval.Interval
	x    timeseries.Series
}

// NewDecoder creates a decoder for a stream produced by a Compressor with
// the same configuration.
func NewDecoder(cfg Config) (*Decoder, error) {
	if cfg.ForceIns == 0 && !cfg.SkipBaseUpdate {
		cfg.ForceIns = AutoIns
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg}, nil
}

// BaseSignal returns a copy of the replica base signal.
func (d *Decoder) BaseSignal() timeseries.Series {
	if d.cfg.Builder == BuilderDCT {
		return d.dctX.Clone()
	}
	if d.pool == nil {
		return nil
	}
	return d.pool.Signal()
}

// Decode reconstructs the N rows approximated by t and applies t's
// base-signal update to the replica. A transmission it refuses leaves the
// replica untouched.
func (d *Decoder) Decode(t *Transmission) ([]timeseries.Series, error) {
	x, list, err := d.step(t, true)
	if err != nil {
		return nil, err
	}
	approx := interval.ReconstructRange(x, list, 0, t.N*t.M)
	rows := make([]timeseries.Series, t.N)
	for i := range rows {
		rows[i] = approx[i*t.M : (i+1)*t.M]
	}
	return rows, nil
}

// DecodeRow reconstructs only quantity row of t into dst, which must hold
// t.M samples, and applies t's base-signal update: dst ends up
// bit-identical to Decode(t)[row], and t is validated exactly as Decode
// validates it.
func (d *Decoder) DecodeRow(t *Transmission, row int, dst timeseries.Series) error {
	if row < 0 || row >= t.N {
		return fmt.Errorf("core: row %d outside a transmission of %d rows", row, t.N)
	}
	if len(dst) != t.M {
		return fmt.Errorf("core: %d samples of room for a row of %d", len(dst), t.M)
	}
	x, list, err := d.step(t, true)
	if err != nil {
		return err
	}
	interval.ReconstructInto(dst, x, list, row*t.M)
	return nil
}

// Advance validates t exactly as Decode does and applies its base-signal
// update without reconstructing anything, nor building the signal t was
// fitted against: it moves the replica past a transmission whose samples
// the caller does not need. A later transmission decodes against the
// replica only, so skipping earlier reconstructions changes none of its
// samples.
func (d *Decoder) Advance(t *Transmission) error {
	_, _, err := d.step(t, false)
	return err
}

// step is the path Decode, DecodeRow and Advance share. It checks t's
// sequence number, width, intervals and base-signal placements against
// the replica, then applies t's base-signal update and returns the
// interval list, lengths recovered, and — when signal is set — the
// signal t's intervals were fitted against. Both live in the decoder's
// scratch space until the next step. Nothing changes until every check
// has passed.
func (d *Decoder) step(t *Transmission, signal bool) (timeseries.Series, []interval.Interval, error) {
	if t.Seq != d.next {
		return nil, nil, fmt.Errorf("core: transmission %d decoded out of order (want %d)", t.Seq, d.next)
	}
	w, pool, dctX := d.w, d.pool, d.dctX
	if w == 0 {
		if t.W <= 0 {
			return nil, nil, fmt.Errorf("core: transmission width %d", t.W)
		}
		w = t.W
		switch d.cfg.Builder {
		case BuilderDCT:
			dctX = timeseries.Concat(base.GetBaseDCT(w, d.cfg.MBase/w)...)
		case BuilderNone:
			// no base signal
		default:
			pool = base.NewPool(d.cfg.MBase, w)
		}
	} else if t.W != w {
		return nil, nil, fmt.Errorf("core: transmission width %d differs from stream width %d", t.W, w)
	}

	var x timeseries.Series
	var xLen int
	switch d.cfg.Builder {
	case BuilderDCT:
		x, xLen = dctX, len(dctX)
	case BuilderNone:
		// no base signal
	default:
		// The intervals were fitted against the pre-eviction X_new.
		xLen = pool.Size()
		for _, iv := range t.BaseIntervals {
			xLen += len(iv)
		}
		if signal {
			d.x = pool.AppendSignal(d.x[:0], t.BaseIntervals)
			x = d.x
		}
	}

	n := t.N * t.M
	d.list = withLengths(d.list[:0], t.Intervals, n)
	if err := validateIntervals(d.list, xLen, n); err != nil {
		return nil, nil, err
	}
	if pool != nil {
		// Apply checks every placement before it stores any insert.
		if err := pool.Apply(t.BaseIntervals, t.Placements); err != nil {
			return nil, nil, err
		}
	}
	d.w, d.pool, d.dctX = w, pool, dctX
	d.next++
	return x, d.list, nil
}

// DecoderState is a serialisable snapshot of a decoder's replica state:
// the stream width, the next expected sequence number and the base-signal
// pool slots in slot order. It is what the persistent segment store writes
// into segment headers, so one sealed segment can be decoded cold without
// replaying the whole stream, and a restart resumes the replica from the
// newest segment's header.
//
// The replica pool carries no LFU frequencies — eviction decisions are the
// sender's and arrive as placements — so the slots alone reproduce it.
type DecoderState struct {
	W    int                 `json:"w"`
	Next int                 `json:"next"`
	Base []timeseries.Series `json:"base,omitempty"`
}

// State snapshots the decoder. The zero state (W == 0) describes a
// decoder that has not yet seen a transmission.
func (d *Decoder) State() DecoderState {
	st := DecoderState{W: d.w, Next: d.next}
	if d.pool != nil && d.pool.NumIntervals() > 0 {
		sig := d.pool.Signal()
		st.Base = make([]timeseries.Series, d.pool.NumIntervals())
		for i := range st.Base {
			st.Base[i] = sig[i*d.w : (i+1)*d.w]
		}
	}
	return st
}

// NewDecoderAt creates a decoder resumed at the given snapshot: the next
// Decode call must be fed the transmission with sequence st.Next, and the
// replica pool starts from st.Base. A zero state is a fresh decoder.
func NewDecoderAt(cfg Config, st DecoderState) (*Decoder, error) {
	d, err := NewDecoder(cfg)
	if err != nil {
		return nil, err
	}
	if st.W == 0 {
		return d, nil
	}
	d.w = st.W
	d.next = st.Next
	switch d.cfg.Builder {
	case BuilderDCT:
		d.dctX = timeseries.Concat(base.GetBaseDCT(d.w, d.cfg.MBase/d.w)...)
	case BuilderNone:
		// no base signal
	default:
		d.pool = base.NewPool(d.cfg.MBase, d.w)
		placements := make([]base.Placement, len(st.Base))
		for i := range placements {
			placements[i] = base.Placement{Slot: i}
		}
		if err := d.pool.Apply(st.Base, placements); err != nil {
			return nil, fmt.Errorf("core: seeding replica pool: %w", err)
		}
	}
	return d, nil
}

// validateIntervals rejects transmissions whose records cannot be
// reconstructed — out-of-range starts or base-signal shifts. The wire
// checksum catches random corruption; this guards the decoder (and any
// long-running base station built on it) against malformed frames that
// still carry a valid CRC.
func validateIntervals(list []interval.Interval, xLen, total int) error {
	for _, iv := range list {
		if iv.Start < 0 || iv.Start+iv.Length > total || iv.Length < 0 {
			return fmt.Errorf("core: interval [%d,%d) outside batch [0,%d)",
				iv.Start, iv.Start+iv.Length, total)
		}
		if iv.Shift == interval.RampShift {
			continue
		}
		if iv.Shift < 0 || iv.Shift+iv.Length > xLen {
			return fmt.Errorf("core: interval shift %d+%d outside base signal of %d values",
				iv.Shift, iv.Length, xLen)
		}
	}
	return nil
}

// withLengths appends in to list and recovers the interval lengths from
// the sorted start offsets, the way the base station does after receiving
// only (start, shift, a, b) records: each interval extends to the start of
// the next one (Section 4.2). The encoder emits strictly increasing
// starts, which need no sort.
func withLengths(list, in []interval.Interval, total int) []interval.Interval {
	list = append(list, in...)
	for i := 1; i < len(list); i++ {
		if list[i].Start <= list[i-1].Start {
			sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
			break
		}
	}
	for i := range list {
		end := total
		if i+1 < len(list) {
			end = list[i+1].Start
		}
		list[i].Length = end - list[i].Start
	}
	return list
}
