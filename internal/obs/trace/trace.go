// Package trace is the repository's causal-tracing substrate: a small,
// dependency-free span recorder in the Dapper style. One frame's life —
// SBR encode on the sensor, transport send with its retries and
// reconnects, station receive (dedup, decode, index update), segment-store
// append/fsync/seal, and much later the query handlers that read it back —
// is stitched into a single trace identified by an 8-byte ID that rides in
// the traced wire frame header (frame version 3) next to a sampling bit.
//
// The design follows internal/obs's nil-safety convention: every method is
// safe on a nil *Recorder, nil *Trace and nil *Span, so an uninstrumented
// path pays exactly one nil check per event and "tracing off" is a true
// no-op — the bar is the same <5% ReceiveFrame overhead the metrics
// registry is held to. Sampling is decided once, where a trace is born
// (the sensor-side encode, or an HTTP request without an inherited
// context); everything downstream only ever *continues* a trace whose
// sampled bit arrived on the wire, so an unsampled frame costs a header
// peek and nothing else.
//
// Completed traces land in a lock-free bounded ring buffer; the N slowest
// traces per stage are additionally pinned as exemplars that outlive ring
// wraparound, which is what keeps "why was p99 slow an hour ago"
// answerable without a tracing backend.
package trace

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 64-bit trace identifier. Zero means "no trace": it is never
// allocated, and a frame carrying it is treated as untraced.
type ID uint64

// String renders the ID as 16 lower-case hex digits, the form the debug
// endpoints and annotations use.
func (id ID) String() string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses the 16-hex-digit form. Malformed input returns 0 (the
// "no trace" sentinel) and false.
func ParseID(s string) (ID, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return ID(v), true
}

// Annotation is one key/value note on a span. Values are pre-rendered
// strings: annotations exist for humans reading a span tree, not for
// aggregation (that is what the metrics registry is for).
type Annotation struct {
	Key, Value string
}

// Span is one timed stage of a trace. Spans form a tree via parent IDs;
// the zero parent marks a root. Create spans with Trace.StartSpan or
// Span.Child and close them with End; all methods are no-ops on nil.
type Span struct {
	tr     *Trace
	id     uint32
	parent uint32
	stage  string
	start  time.Time
	dur    time.Duration
	ended  bool
	annots []Annotation
}

// Trace returns the trace the span belongs to (nil for a nil span), so
// a component holding only a span can Finish the whole trace.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Stage returns the span's stage name ("" for nil).
func (s *Span) Stage() string {
	if s == nil {
		return ""
	}
	return s.stage
}

// Annotate attaches one key/value note to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.annots = append(s.annots, Annotation{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// AnnotateInt attaches one integer-valued note to the span.
func (s *Span) AnnotateInt(key string, v int64) {
	s.Annotate(key, strconv.FormatInt(v, 10))
}

// Child starts a new span under s, in s's trace.
func (s *Span) Child(stage string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(stage, s.id)
}

// End closes the span, fixing its duration. A second End is a no-op, so
// deferred and explicit closes can coexist.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Trace accumulates the spans of one traced frame (or request). A trace
// object is shared: every component that Continues the same ID appends to
// the same span list, which is what joins the sensor-side and
// station-side halves when both run in one process. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Trace struct {
	rec *Recorder
	id  ID

	mu        sync.Mutex
	sensor    string
	start     time.Time
	spans     []*Span
	nextSpan  uint32
	published bool
}

// TraceID returns the trace's wire identifier (0 for nil).
func (t *Trace) TraceID() ID {
	if t == nil {
		return 0
	}
	return t.id
}

// Sensor returns the sensor the trace is attributed to.
func (t *Trace) Sensor() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sensor
}

// setSensor records the owning sensor; the first non-empty value wins.
func (t *Trace) setSensor(sensor string) {
	if t == nil || sensor == "" {
		return
	}
	t.mu.Lock()
	if t.sensor == "" {
		t.sensor = sensor
	}
	t.mu.Unlock()
}

// StartSpan opens a new span at the top level of the trace: a root span
// when the trace is empty, otherwise a child of the trace's root — so the
// stage that births a trace (encode, or an HTTP handler) becomes the
// parent of every stage recorded after it.
func (t *Trace) StartSpan(stage string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var parent uint32
	if len(t.spans) > 0 {
		parent = t.spans[0].id
	}
	t.mu.Unlock()
	return t.startSpan(stage, parent)
}

func (t *Trace) startSpan(stage string, parent uint32) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, stage: stage, parent: parent, start: time.Now()}
	t.mu.Lock()
	t.nextSpan++
	sp.id = t.nextSpan
	if len(t.spans) == 0 {
		t.start = sp.start
		sp.parent = 0 // first span is the root regardless of the caller's guess
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Finish publishes the trace into the recorder's ring of completed traces
// and refreshes the slow-stage exemplars. It is idempotent and
// non-terminal: each stage that completes its part of the trace calls
// Finish, the first call places the trace in the ring, and later spans
// appended by downstream stages remain visible because the ring holds the
// live object. Exemplar rankings are re-evaluated on every call so a slow
// late stage still pins the trace.
func (t *Trace) Finish() {
	if t == nil || t.rec == nil {
		return
	}
	t.mu.Lock()
	first := !t.published
	t.published = true
	t.mu.Unlock()
	if first {
		t.rec.publish(t)
	}
	t.rec.pinExemplars(t)
}

// duration is the trace's span-covered extent: latest span end minus
// trace start. The caller must hold t.mu.
func (t *Trace) durationLocked() time.Duration {
	var d time.Duration
	for _, sp := range t.spans {
		end := sp.start.Sub(t.start)
		if sp.ended {
			end += sp.dur
		}
		if end > d {
			d = end
		}
	}
	return d
}

// Options configures a Recorder. The zero value is usable.
type Options struct {
	// Capacity bounds the ring of completed traces (default 256).
	Capacity int

	// SampleEvery controls locally-born traces: Begin samples one in
	// every SampleEvery calls. 0 disables local sampling entirely — the
	// recorder then only continues traces whose sampled bit arrived on
	// the wire, which is the right setting for a pure receiver.
	SampleEvery int

	// Exemplars pins the N slowest traces per stage beyond ring
	// wraparound (default 4, 0 keeps the default; negative disables).
	Exemplars int

	// MaxInflight bounds the table of traces that have started but never
	// Finished (default 1024). Overflow publishes and drops the oldest,
	// so a crashed peer cannot leak trace objects forever.
	MaxInflight int
}

// Recorder assembles spans into traces and retains the interesting ones.
// All methods are safe for concurrent use and no-ops on a nil receiver.
type Recorder struct {
	sampleEvery uint64
	births      atomic.Uint64
	exN         int

	ring []atomic.Pointer[Trace]
	head atomic.Uint64

	mu          sync.Mutex
	inflight    map[ID]*Trace
	order       []ID // inflight insertion order, for bounded eviction
	maxInflight int
	dropped     atomic.Uint64

	exMu      sync.Mutex
	exemplars map[string][]*Trace // stage -> slowest-first pinned traces
}

// NewRecorder builds a recorder. See Options for the knobs.
func NewRecorder(opt Options) *Recorder {
	if opt.Capacity <= 0 {
		opt.Capacity = 256
	}
	if opt.Exemplars == 0 {
		opt.Exemplars = 4
	}
	if opt.Exemplars < 0 {
		opt.Exemplars = 0
	}
	if opt.MaxInflight <= 0 {
		opt.MaxInflight = 1024
	}
	return &Recorder{
		sampleEvery: uint64(opt.SampleEvery),
		exN:         opt.Exemplars,
		ring:        make([]atomic.Pointer[Trace], opt.Capacity),
		inflight:    make(map[ID]*Trace),
		maxInflight: opt.MaxInflight,
		exemplars:   make(map[string][]*Trace),
	}
}

// newID draws a non-zero trace identifier.
func newID() ID {
	for {
		if v := rand.Uint64(); v != 0 {
			return ID(v)
		}
	}
}

// Begin births a trace for the named sensor, subject to the local
// sampling policy: one in SampleEvery calls returns a live trace, the
// rest (and every call on a nil recorder or with sampling disabled)
// return nil — and a nil trace propagates no-ops through every span
// call, so callers never branch.
func (r *Recorder) Begin(sensor string) *Trace {
	if r == nil || r.sampleEvery == 0 {
		return nil
	}
	if r.births.Add(1)%r.sampleEvery != 0 {
		return nil
	}
	return r.Continue(newID(), sensor)
}

// Continue returns the live trace for id, creating it when this is the
// first sighting: the wire-propagated join point. A frame retransmitted
// after an ack loss, or a query carrying a frame's trace ID, lands on the
// same object — one trace, never a restart. Returns nil on a nil
// recorder or the zero ID.
func (r *Recorder) Continue(id ID, sensor string) *Trace {
	if r == nil || id == 0 {
		return nil
	}
	r.mu.Lock()
	if t, ok := r.inflight[id]; ok {
		r.mu.Unlock()
		t.setSensor(sensor)
		return t
	}
	r.mu.Unlock()
	// Finished traces stay continuable while the ring holds them: a
	// retransmitted duplicate or a late query joins instead of forking.
	if t := r.lookupRing(id); t != nil {
		t.setSensor(sensor)
		return t
	}
	t := &Trace{rec: r, id: id, sensor: sensor, start: time.Now()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.inflight[id]; ok { // lost the race to another continuer
		return prior
	}
	if len(r.inflight) >= r.maxInflight {
		r.evictOldestLocked()
	}
	r.inflight[id] = t
	r.order = append(r.order, id)
	return t
}

// evictOldestLocked publishes and drops the oldest inflight trace. The
// caller holds r.mu.
func (r *Recorder) evictOldestLocked() {
	for len(r.order) > 0 {
		id := r.order[0]
		r.order = r.order[1:]
		t, ok := r.inflight[id]
		if !ok {
			continue // already finished normally
		}
		delete(r.inflight, id)
		r.dropped.Add(1)
		// Publish outside the map so the partial trace is still findable.
		go t.Finish()
		return
	}
}

// lookupRing scans the completed ring for id. Lock-free: the ring entries
// are atomic pointers.
func (r *Recorder) lookupRing(id ID) *Trace {
	for i := range r.ring {
		if t := r.ring[i].Load(); t != nil && t.id == id {
			return t
		}
	}
	return nil
}

// publish moves a trace from the inflight table into the completed ring.
func (r *Recorder) publish(t *Trace) {
	r.mu.Lock()
	delete(r.inflight, t.id)
	r.mu.Unlock()
	i := r.head.Add(1) - 1
	r.ring[i%uint64(len(r.ring))].Store(t)
}

// pinExemplars re-ranks t against the per-stage slowest lists.
func (r *Recorder) pinExemplars(t *Trace) {
	if r.exN == 0 {
		return
	}
	// Per-stage worst span duration of this trace.
	t.mu.Lock()
	worst := make(map[string]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.ended && sp.dur > worst[sp.stage] {
			worst[sp.stage] = sp.dur
		}
	}
	t.mu.Unlock()

	r.exMu.Lock()
	defer r.exMu.Unlock()
	for stage := range worst {
		list := r.exemplars[stage]
		found := false
		for _, have := range list {
			if have == t {
				found = true
				break
			}
		}
		if !found {
			list = append(list, t)
		}
		sort.SliceStable(list, func(i, j int) bool {
			return stageWorst(list[i], stage) > stageWorst(list[j], stage)
		})
		if len(list) > r.exN {
			list = list[:r.exN]
		}
		r.exemplars[stage] = list
	}
}

// stageWorst returns a trace's slowest ended span duration for stage.
func stageWorst(t *Trace, stage string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, sp := range t.spans {
		if sp.stage == stage && sp.ended && sp.dur > d {
			d = sp.dur
		}
	}
	return d
}

// Dropped reports how many never-finished traces the inflight bound
// evicted.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}
