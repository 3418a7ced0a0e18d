package base

import (
	"fmt"

	"sbr/internal/timeseries"
)

// Pool is the sensor's bounded buffer of base intervals (size M_base,
// Section 3.3). It tracks how frequently transmitted interval records map
// onto each stored base interval and applies the Least Frequently Used
// replacement policy of Algorithm 5 when an update overflows the buffer.
// The base station maintains an identical replica by applying the
// placements shipped with every transmission.
type Pool struct {
	w            int
	maxIntervals int
	slots        []timeseries.Series
	freq         []uint64
}

// Placement records where an inserted base interval ultimately landed:
// either appended (Slot == previous size) or replacing an evicted slot.
// Placements are part of every transmission ("their offsets in the base
// signal", Algorithm 5 line 15).
type Placement struct {
	Slot int
}

// NewPool creates a pool of capacity mbase values holding intervals of
// width w. mbase is rounded down to a whole number of intervals.
func NewPool(mbase, w int) *Pool {
	if w <= 0 {
		panic("base: non-positive interval width")
	}
	n := mbase / w
	return &Pool{w: w, maxIntervals: n, slots: make([]timeseries.Series, 0, n), freq: make([]uint64, 0, n)}
}

// W returns the interval width.
func (p *Pool) W() int { return p.w }

// MaxIntervals returns the capacity in intervals (M_base / W).
func (p *Pool) MaxIntervals() int { return p.maxIntervals }

// NumIntervals returns the number of stored intervals.
func (p *Pool) NumIntervals() int { return len(p.slots) }

// Size returns the current base-signal length in values.
func (p *Pool) Size() int { return len(p.slots) * p.w }

// Signal returns the concatenated base signal X.
func (p *Pool) Signal() timeseries.Series {
	return timeseries.Concat(p.slots...)
}

// AppendSignal appends the concatenation of the stored signal and the
// given pending intervals to dst and returns the extended slice: the
// pre-eviction X_new that Algorithm 5 hands to GetIntervals before the
// replacement step runs. Callers hold a reusable scratch buffer (the
// insert-count search rebuilds this signal on every Encode, the decoder
// on every transmission it reconstructs).
func (p *Pool) AppendSignal(dst timeseries.Series, pending []timeseries.Series) timeseries.Series {
	for _, s := range p.slots {
		dst = append(dst, s...)
	}
	for _, s := range pending {
		dst = append(dst, s...)
	}
	return dst
}

// UseCounts returns a zeroed per-slot counter sized for the layout of
// AppendSignal(nil, pending): callers accumulate, via CountUse, one increment per
// interval record mapped onto each slot, then pass the counters to Commit.
func (p *Pool) UseCounts(pendingCount int) []int {
	return make([]int, len(p.slots)+pendingCount)
}

// CountUse bumps the counters of every slot overlapped by a mapping onto
// [shift, shift+length) of the concatenated signal.
func (p *Pool) CountUse(counts []int, shift, length int) {
	if length <= 0 || shift < 0 {
		return
	}
	first := shift / p.w
	last := (shift + length - 1) / p.w
	for s := first; s <= last && s < len(counts); s++ {
		counts[s]++
	}
}

// Commit inserts the pending intervals, folds the accumulated use counts
// into the LFU frequencies, and — if the pool overflows — evicts the least
// frequently used intervals among those that predate this commit, moving
// the last overflowing pending intervals into the vacated slots
// (Algorithm 5 lines 10–13). It returns one Placement per pending interval,
// in order, for transmission to the base station.
func (p *Pool) Commit(pending []timeseries.Series, counts []int) ([]Placement, error) {
	for _, iv := range pending {
		if len(iv) != p.w {
			return nil, fmt.Errorf("base: interval width %d, pool width %d", len(iv), p.w)
		}
	}
	if len(pending) > p.maxIntervals {
		return nil, fmt.Errorf("base: inserting %d intervals into pool of capacity %d",
			len(pending), p.maxIntervals)
	}
	if counts != nil && len(counts) != len(p.slots)+len(pending) {
		return nil, fmt.Errorf("base: use counts length %d, want %d",
			len(counts), len(p.slots)+len(pending))
	}

	oldCount := len(p.slots)
	for i, iv := range pending {
		p.slots = append(p.slots, iv.Clone())
		var c uint64
		if counts != nil {
			c = uint64(counts[oldCount+i])
		}
		p.freq = append(p.freq, c)
	}
	if counts != nil {
		for s := 0; s < oldCount; s++ {
			p.freq[s] += uint64(counts[s])
		}
	}

	placements := make([]Placement, len(pending))
	for i := range pending {
		placements[i] = Placement{Slot: oldCount + i}
	}

	overflow := len(p.slots) - p.maxIntervals
	if overflow <= 0 {
		return placements, nil
	}
	victims := p.leastFrequent(oldCount, overflow)
	// The last `overflow` pending intervals move into the vacated slots.
	moveFrom := len(p.slots) - overflow
	for k, victim := range victims {
		src := moveFrom + k
		p.slots[victim] = p.slots[src]
		p.freq[victim] = p.freq[src]
		placements[src-oldCount] = Placement{Slot: victim}
	}
	p.slots = p.slots[:moveFrom]
	p.freq = p.freq[:moveFrom]
	return placements, nil
}

// leastFrequent returns the indexes of the count least-frequently-used
// slots among the first limit slots, in ascending frequency (ties by lower
// index).
func (p *Pool) leastFrequent(limit, count int) []int {
	type slotFreq struct {
		idx  int
		freq uint64
	}
	all := make([]slotFreq, limit)
	for i := 0; i < limit; i++ {
		all[i] = slotFreq{idx: i, freq: p.freq[i]}
	}
	// Partial selection sort: count is small (at most maxIns).
	for i := 0; i < count && i < limit; i++ {
		best := i
		for j := i + 1; j < limit; j++ {
			if all[j].freq < all[best].freq ||
				(all[j].freq == all[best].freq && all[j].idx < all[best].idx) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([]int, 0, count)
	for i := 0; i < count && i < limit; i++ {
		out = append(out, all[i].idx)
	}
	return out
}

// Apply replays a received transmission's base-signal update on a replica
// pool: interval i is appended when its placement equals the current size,
// or overwrites an existing slot otherwise. The replica needs no frequency
// information — eviction decisions were made by the sender and are implied
// by the placements. The whole update is checked before any of it is
// stored: a refused update leaves the pool as it was. A replaced slot's
// values are overwritten in place, so a replica that has filled its pool
// applies updates without allocating.
func (p *Pool) Apply(intervals []timeseries.Series, placements []Placement) error {
	if len(intervals) != len(placements) {
		return fmt.Errorf("base: %d intervals but %d placements", len(intervals), len(placements))
	}
	size := len(p.slots)
	for i, iv := range intervals {
		if len(iv) != p.w {
			return fmt.Errorf("base: interval width %d, pool width %d", len(iv), p.w)
		}
		switch slot := placements[i].Slot; {
		case slot == size && slot < p.maxIntervals:
			size++
		case slot < 0 || slot >= size:
			return fmt.Errorf("base: placement slot %d out of range (have %d, cap %d)",
				slot, size, p.maxIntervals)
		}
	}
	var fresh timeseries.Series // one array for the slots this update appends
	for i, iv := range intervals {
		if slot := placements[i].Slot; slot < len(p.slots) {
			copy(p.slots[slot], iv)
			continue
		}
		if len(fresh) == 0 {
			fresh = make(timeseries.Series, (len(intervals)-i)*p.w)
		}
		slot := fresh[:p.w:p.w]
		fresh = fresh[p.w:]
		copy(slot, iv)
		p.slots = append(p.slots, slot)
		p.freq = append(p.freq, 0)
	}
	return nil
}

// Clone returns a deep copy of the pool (used by tests and by the station
// replica bootstrap).
func (p *Pool) Clone() *Pool {
	cp := &Pool{w: p.w, maxIntervals: p.maxIntervals}
	cp.slots = make([]timeseries.Series, len(p.slots))
	for i, s := range p.slots {
		cp.slots[i] = s.Clone()
	}
	cp.freq = append([]uint64(nil), p.freq...)
	return cp
}

// Frequencies exposes a copy of the LFU counters, for tests and diagnostics.
func (p *Pool) Frequencies() []uint64 {
	return append([]uint64(nil), p.freq...)
}
