package interval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sbr/internal/timeseries"
)

// This file is the encoder's only parallel mechanism: one helper goroutine
// per GetIntervals call that maps the left half of every split while the
// caller maps the right half. Siblings are distinct (Start, Length)
// intervals and BestMap is a pure function of the mapper's signal and the
// interval, so which goroutine maps a half never changes its result, and
// the caller still pushes both halves in the serial order: the queue
// layout and every transmitted byte are the same at any GOMAXPROCS.
//
// Handing work to a parked thread costs more than a typical sibling pair
// on a small host, so the helper never parks: it spins between offers,
// yielding its processor to any other runnable goroutine. And the caller
// never waits on a thread that is not running: once it has mapped the
// right half it takes back an offer the helper has not claimed and maps it
// itself (DESIGN §9, "The sibling helper").

// ParallelScanThreshold is the scan work, measured as signal length ×
// interval budget, from which GetIntervals starts its helper goroutine
// (when GOMAXPROCS > 1); below it the handoffs cost more than they save.
// It is a variable so tests can force the helper on small inputs — by
// construction the result is identical either way.
var ParallelScanThreshold = 1 << 17

// Handoffs counts how GetIntervals shared a Mapper's work with its helper.
type Handoffs struct {
	Pairs       int // sibling pairs whose left half was offered to the helper
	HelperPairs int // of those, the pairs whose left half the helper mapped
	Workers     int // goroutines that mapped intervals: 1, or 2 once a helper ran
}

// TakeHandoffs returns the handoff counts of the GetIntervals calls since
// the last TakeHandoffs and resets them.
func (m *Mapper) TakeHandoffs() Handoffs {
	h := m.handoffs
	m.handoffs = Handoffs{}
	if h.Workers == 0 {
		h.Workers = 1
	}
	return h
}

// Offer states: the caller moves idle → pending and may take a pending
// offer back; the helper claims it and marks it mapped, and the caller
// returns a mapped offer to idle once it has read the result.
const (
	offerIdle int32 = iota
	offerPending
	offerClaimed
	offerMapped
)

// helper is one GetIntervals call's second mapping goroutine.
type helper struct {
	m     *Mapper
	y     timeseries.Series
	offer Interval     // written by the caller while idle, by the helper while claimed
	state atomic.Int32 // one of the offer states
	quit  atomic.Bool
	wg    sync.WaitGroup
}

// startHelper starts the helper for a GetIntervals call that may map up to
// maxIntervals intervals, or returns nil when the call is too small to
// gain from one or there is no second processor to run it.
func (m *Mapper) startHelper(y timeseries.Series, maxIntervals int) *helper {
	if len(m.X)*maxIntervals < ParallelScanThreshold || runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	h := &helper{m: m, y: y}
	h.wg.Add(1)
	go h.run()
	m.handoffs.Workers = 2
	return h
}

// run claims and maps offers until stop.
func (h *helper) run() {
	defer h.wg.Done()
	for !h.quit.Load() {
		if h.state.CompareAndSwap(offerPending, offerClaimed) {
			h.m.BestMap(h.y, &h.offer)
			h.state.Store(offerMapped)
			continue
		}
		runtime.Gosched()
	}
}

// stop ends the helper and waits for it to exit, so nothing it reads (the
// mapper's signal, prefix sums and spectra) is touched once GetIntervals
// returns. Safe on nil.
func (h *helper) stop() {
	if h == nil {
		return
	}
	h.quit.Store(true)
	h.wg.Wait()
}

// mapPair maps two sibling intervals. With a helper running and intervals
// that will scan, it offers left to the helper, maps right, and then
// either takes the offer back and maps it too, or waits for the helper's
// result; otherwise it maps both in turn. The fits are the same either way.
func (m *Mapper) mapPair(h *helper, y timeseries.Series, left, right *Interval) {
	if h == nil || m.shifts(left.Length) == 0 {
		m.BestMap(y, left)
		m.BestMap(y, right)
		return
	}
	m.handoffs.Pairs++
	h.offer = *left
	h.state.Store(offerPending)
	m.BestMap(y, right)
	if h.state.CompareAndSwap(offerPending, offerIdle) {
		m.BestMap(y, left)
		return
	}
	for h.state.Load() != offerMapped {
		runtime.Gosched()
	}
	*left = h.offer
	h.state.Store(offerIdle)
	m.handoffs.HelperPairs++
}
