// Package station implements the base-station side of the paper's data
// model (Section 3.2, Figure 1): it receives the compressed transmissions
// of many sensors, appends each sensor's chunks to a per-sensor log,
// maintains the per-sensor base-signal replica via the core decoder, and
// answers historical point, range and aggregate queries over the
// approximate reconstruction of any quantity at any time in the past.
//
// # Concurrency and lock ordering
//
// The station has no global lock. Its concurrency discipline, which every
// method in this package follows, is:
//
//   - The sensor directory is sharded: each shard guards only its slice of
//     the id → *sensorLog map with a short RWMutex. Shard locks protect map
//     access alone — never state inside a log — and logs are never removed
//     from the directory, so a *sensorLog pointer, once fetched, stays
//     valid forever and may be used after the shard lock is released.
//   - Each sensorLog has its own mutex serialising every state mutation:
//     ingest (decode, archive append, index append, eviction), the
//     checkpoint roll and recovery all hold l.mu. Writers on different
//     sensors never contend.
//   - Queries never hold l.mu while doing work: they capture an immutable
//     snapshot of the sensor's history (window slice header, bounds
//     header, aggregate-index snapshot) under a brief l.mu acquisition and
//     then run entirely lock-free — cold archive fetches, segment decodes
//     and aggregation included. Ingest is never blocked by a reader, and a
//     slow cold query blocks nobody. The snapshot is safe because every
//     captured structure is append-only: eviction replaces the window
//     slice instead of mutating the shared backing array, and the index
//     snapshot only reads tree nodes that later appends never rewrite
//     (see query.Snapshot).
//   - Disk I/O under l.mu happens in two places, deliberately: the archive
//     append inside receive, and Checkpoint's roll of the sensor's
//     segments. Durability-before-acknowledgement and the archive's strict
//     per-sensor chunk ordering require the append to be serialised with
//     the decode that produced the chunk, and the rolled header must hold
//     the state after the sensor's last archived chunk. Each is a
//     per-sensor stall only; readers (snapshots) and other sensors are
//     unaffected. Eviction is pure memory, and recovery's replay reads
//     archive files outside the segment-store lock.
//   - Lock order is shard.mu → l.mu → segstore.Store.mu, and no path holds
//     two of them at once except ingest and the roll (l.mu → store.mu
//     inside Append and Roll).
//     The segment store's lock is a leaf: it is never held during disk
//     reads or segment decodes (see segstore's cold-read path).
//   - Station-wide mutable state (metrics, tracer, archive binding,
//     degraded-sensor count) lives behind atomics, so hot paths read it
//     without any lock.
package station

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/core"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/query"
	"sbr/internal/segstore"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// ErrDuplicate reports a transmission the station had already accepted: a
// lossy link lost the acknowledgement and the sensor retransmitted. The
// transport re-acknowledges it as OK instead of treating it as a protocol
// violation, which is what makes retransmission idempotent end to end.
var ErrDuplicate = errors.New("station: duplicate transmission")

// ErrUnknownSensor reports a query naming a sensor the station has never
// heard from.
var ErrUnknownSensor = errors.New("station: unknown sensor")

// ErrInvalidQuery reports a query the station cannot answer as asked: a
// quantity row the sensor does not have, a sample or range outside the
// recorded history, or a malformed parameter.
var ErrInvalidQuery = errors.New("station: invalid query")

// sensorShards is the size of the sharded sensor directory. Power of two;
// large enough that directory lookups on different sensors almost never
// share a cache line of lock, small enough to iterate cheaply.
const sensorShards = 32

// dirShard is one slice of the sensor directory. Its lock guards only the
// map; sensorLog state is guarded by the log's own mutex.
type dirShard struct {
	mu      sync.RWMutex
	sensors map[string]*sensorLog
}

// archiveRef is the station's archive binding, swapped atomically so the
// ingest and query hot paths read it without a lock.
type archiveRef struct {
	store     *segstore.Store
	memChunks int
}

// Station is a base station serving many sensors. It is safe for
// concurrent use: sensor networks deliver frames from many radios at once,
// and readers query the history while frames keep arriving.
type Station struct {
	cfg core.Config

	// AllowRestart accepts a transmission with sequence 0 from a known
	// sensor as a sensor reboot: the base-signal replica is reset (the
	// restarted sensor's base signal starts empty too) and the history
	// keeps growing. Enabled by default by New; without it a rebooted
	// sensor would be rejected forever as out-of-order.
	AllowRestart bool

	shards   [sensorShards]dirShard
	nsensors atomic.Int64 // distinct sensors heard from
	degraded atomic.Int64 // sensors whose archive append failed (archDown)

	// met is the installed telemetry (nil: uninstrumented). Atomic so the
	// hot paths read it without a lock; the zero stationMetrics is all
	// nil-safe no-ops.
	met atomic.Pointer[stationMetrics]

	// tracer, when set via SetTracer, continues the trace a sampled v3
	// frame carries and records receive-path spans.
	tracer atomic.Pointer[trace.Recorder]

	// arch, when set via SetArchive, holds the durable archive that
	// receives every accepted transmission and serves cold reads for
	// chunks evicted from memory, plus the per-sensor in-memory window
	// bound (0: unbounded).
	arch atomic.Pointer[archiveRef]
}

// stationMetrics is the station's telemetry: reception totals, the
// receive-path latency, the per-transmission SBR compression record
// (core.CompressionReport) aggregated across every sensor — the paper's
// §6 evaluation quantities read off a live station — and the query-serving
// latency/contention series added with the concurrent read path. All
// fields are nil-safe obs metrics; an uninstrumented station pays one
// atomic load per event.
type stationMetrics struct {
	sensors         *obs.Gauge
	transmissions   *obs.Counter
	values          *obs.Counter
	rawBytes        *obs.Counter
	restarts        *obs.Counter
	rejects         *obs.Counter
	duplicates      *obs.Counter
	replayed        *obs.Counter
	tornTails       *obs.Counter
	recoverSeconds  *obs.Gauge
	receiveSeconds  *obs.Histogram
	indexDepth      *obs.Gauge
	degradedSensors *obs.Gauge

	intervals     *obs.Counter
	baseInserts   *obs.Counter
	baseHits      *obs.Counter
	rampIntervals *obs.Counter
	achievedError *obs.Histogram
	errBound      *obs.Histogram

	queryQueries *obs.Counter
	queryNodes   *obs.Counter

	// Read-path series: query volume and latency, chunks served cold from
	// the archive, and the time ingest and snapshot capture spend waiting
	// for a sensor lock — the contention numbers that prove (or disprove)
	// that readers and writers no longer block each other.
	queries        *obs.Counter
	querySeconds   *obs.Histogram
	queryCold      *obs.Counter
	queryLockWait  *obs.Histogram
	ingestLockWait *obs.Histogram
}

// noMetrics is the uninstrumented default: every field nil, every obs call
// a nil-safe no-op.
var noMetrics = &stationMetrics{}

// metrics returns the installed telemetry, never nil.
func (s *Station) metrics() *stationMetrics {
	if m := s.met.Load(); m != nil {
		return m
	}
	return noMetrics
}

// Instrument registers the station's metrics on reg and starts feeding
// them. Call it before traffic arrives; a nil registry attaches no-op
// metrics (the baseline the overhead benchmark measures against).
func (s *Station) Instrument(reg *obs.Registry) {
	met := &stationMetrics{
		sensors:         reg.Gauge("sbr_station_sensors", "Distinct sensors the station has heard from."),
		transmissions:   reg.Counter("sbr_station_transmissions_total", "Transmissions accepted across all sensors."),
		values:          reg.Counter("sbr_station_values_total", "Abstract bandwidth values received (paper's cost unit)."),
		rawBytes:        reg.Counter("sbr_station_bytes_total", "Raw frame bytes ingested."),
		restarts:        reg.Counter("sbr_station_restarts_total", "Sensor reboots observed (sequence reset to zero)."),
		rejects:         reg.Counter("sbr_station_rejects_total", "Transmissions the station refused (decode, shape, order)."),
		duplicates:      reg.Counter("sbr_station_duplicates_total", "Retransmitted already-accepted transmissions dropped idempotently."),
		replayed:        reg.Counter("sbr_station_replayed_frames_total", "Archived frames of the newest segment files replayed during recovery."),
		tornTails:       reg.Counter("sbr_station_torn_tails_total", "Torn segment tails truncated when the archive was opened for crash recovery."),
		recoverSeconds:  reg.Gauge("sbr_station_recover_seconds", "Seconds the last Recover took to restore and replay the sensors from the archive."),
		receiveSeconds:  reg.Histogram("sbr_station_receive_seconds", "Receive-path latency per transmission (decode + index append).", obs.LatencyBuckets),
		indexDepth:      reg.Gauge("sbr_station_index_depth", "Deepest per-sensor aggregate index (segment-tree levels)."),
		degradedSensors: reg.Gauge("sbr_station_degraded_sensors", "Sensors whose archive append failed; they refuse frames until the station restarts."),

		intervals:     reg.Counter("sbr_core_intervals_total", "Piece-wise regression records received."),
		baseInserts:   reg.Counter("sbr_core_base_inserts_total", "Base intervals inserted into the pool (Table 6)."),
		baseHits:      reg.Counter("sbr_core_base_hits_total", "Intervals mapped onto a base-signal segment."),
		rampIntervals: reg.Counter("sbr_core_ramp_intervals_total", "Intervals that fell back to plain linear regression."),
		achievedError: reg.Histogram("sbr_core_achieved_error", "Sender-side approximation error per transmission (§6).", obs.ExpBuckets(1e-3, 10, 8)),
		errBound:      reg.Histogram("sbr_core_error_bound", "Guaranteed §4.5 max-abs error bound per transmission.", obs.ExpBuckets(1e-3, 10, 8)),

		queryQueries: reg.Counter("sbr_query_index_queries_total", "Aggregate-index lookups answered."),
		queryNodes:   reg.Counter("sbr_query_index_nodes_total", "Segment-tree nodes merged answering index lookups."),

		queries:        reg.Counter("sbr_station_queries_total", "Historical queries answered (history, point, range, aggregate, windowed)."),
		querySeconds:   reg.Histogram("sbr_station_query_seconds", "Query latency end to end, cold archive fetches included.", obs.LatencyBuckets),
		queryCold:      reg.Counter("sbr_station_query_cold_chunks_total", "Chunks served from the archive (beyond the in-memory window) answering queries."),
		queryLockWait:  reg.Histogram("sbr_station_query_lock_wait_seconds", "Time queries spent acquiring a sensor lock to capture their snapshot.", obs.LatencyBuckets),
		ingestLockWait: reg.Histogram("sbr_station_ingest_lock_wait_seconds", "Time ingest spent acquiring a sensor lock before decoding.", obs.LatencyBuckets),
	}
	s.met.Store(met)
	s.forEachLog(func(_ string, l *sensorLog) {
		l.mu.Lock()
		if l.index != nil {
			l.index.Instrument(met.queryQueries, met.queryNodes)
		}
		l.view.Store(nil) // cached views bake the metrics pointer
		l.mu.Unlock()
	})
	met.sensors.Set(float64(s.nsensors.Load()))

	// Report-derived lazy gauges: state that otherwise only surfaces in
	// reports and probes, evaluated at scrape (and self-monitoring
	// sample) time so the history plane can watch and alert on it.
	reg.GaugeFunc("sbr_station_archive_degraded",
		"1 once any sensor's archive append has failed since start (its frames refused until restart).",
		func() float64 {
			if s.ArchiveDegraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("sbr_station_mem_window_chunks",
		"Decoded chunks currently held in the in-memory windows across all sensors.",
		func() float64 {
			var n int
			s.forEachLog(func(_ string, l *sensorLog) {
				l.mu.Lock()
				n += len(l.chunks)
				l.mu.Unlock()
			})
			return float64(n)
		})
	reg.GaugeFunc("sbr_station_archived_chunks",
		"Chunks made durable in the segment archive across all sensors.",
		func() float64 {
			if store, _ := s.archiveBinding(); store == nil {
				return 0
			}
			var n int
			s.forEachLog(func(_ string, l *sensorLog) {
				l.mu.Lock()
				n += l.totalChunks()
				l.mu.Unlock()
			})
			return float64(n)
		})
}

// sensorLog is the per-sensor state: the decoder replica and the decoded
// history, the in-memory equivalent of the paper's per-sensor log file.
// Its mutex serialises every mutation; queries hold it only long enough to
// capture a snapshot (see the package comment).
type sensorLog struct {
	mu sync.Mutex

	// view caches the last snapshot captured from this log: queries load
	// it with a single atomic read and skip the lock entirely while the
	// sensor is quiescent. Every mutation under mu clears it before
	// unlocking, and snapshot() repopulates it only while holding mu, so a
	// non-nil view always describes a state no older than the last
	// completed mutation.
	view atomic.Pointer[snap]

	decoder *core.Decoder
	n, m    int

	// chunks is the in-memory window of the decoded history: chunks[i]
	// holds global chunk first+i. With an archive attached, every chunk is
	// in the archive before it is accepted, and chunks below first have
	// been evicted and are served cold from the segment store; without
	// one, first stays 0 and the window is the whole history. bounds,
	// inserts and the aggregate index cover the history from chunk base
	// on: they are tiny per chunk, and keeping them hot is what keeps
	// aggregates O(log n) regardless of eviction. base is 0, or the purge
	// watermark the archive stood at when Recover rebuilt the log —
	// retention only moves the watermark up, and every read checks it
	// first, so no read reaches below base.
	//
	// Snapshot discipline: chunks and bounds are append-only as seen from
	// any captured slice header — eviction builds a fresh slice instead of
	// mutating the shared backing array, so a query snapshot stays valid
	// without holding the lock.
	base  int
	first int
	// archDown is set when an archive append (or roll) failed: the frame
	// was refused, but the decoder replica had already moved past it, so
	// the sensor refuses every frame until a restart resumes it from the
	// archive.
	archDown bool

	chunks   [][]timeseries.Series // chunks[i][row] has m samples
	bounds   []float64             // bounds[c-base]: chunk c's max-abs error bound (0: none)
	index    *query.Index          // aggregate index; leaf i is chunk base+i
	frames   int                   // frames received
	bytes    int                   // raw bytes received
	values   int                   // abstract bandwidth values received
	inserts  []int                 // inserts[c-base]: base intervals chunk c inserted
	restarts int                   // sensor reboots observed (sequence reset to zero)

	// Retransmission state. nextSeq is the sequence the current sensor
	// incarnation should send next; srcNonce identifies the transport
	// incarnation that delivered the incarnation's first frame (0 when the
	// frame arrived without one, e.g. in-process or replayed); zeroSum
	// fingerprints the raw bytes of that first frame so a retransmitted
	// seq 0 can be told from a genuine reboot even when the nonce is lost
	// (e.g. after a crash-recovery replay).
	nextSeq  int
	srcNonce uint64
	zeroSum  uint64
}

// totalChunks is the number of chunks ever accepted (in memory + archived).
// The caller holds l.mu.
func (l *sensorLog) totalChunks() int { return l.first + len(l.chunks) }

// state is what a segment header records about the sensor with decoder
// dec as its replica: the replica's state and the receive bookkeeping.
// The caller holds l.mu.
func (l *sensorLog) state(dec *core.Decoder) segstore.SensorState {
	return segstore.SensorState{
		Decoder:  dec.State(),
		Frames:   l.frames,
		Bytes:    l.bytes,
		Values:   l.values,
		Restarts: l.restarts,
		NextSeq:  l.nextSeq,
		SrcNonce: l.srcNonce,
		ZeroSum:  l.zeroSum,
	}
}

// New creates a station whose sensors all run the given configuration.
func New(cfg core.Config) (*Station, error) {
	if _, err := core.NewDecoder(cfg); err != nil {
		return nil, err
	}
	s := &Station{cfg: cfg, AllowRestart: true}
	for i := range s.shards {
		s.shards[i].sensors = make(map[string]*sensorLog)
	}
	return s, nil
}

// shard returns the directory shard owning the named sensor (FNV-1a).
func (s *Station) shard(id string) *dirShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &s.shards[h&(sensorShards-1)]
}

// lookupLog returns the named sensor's log, or nil when unknown. The
// returned pointer outlives the shard lock: logs are never removed.
func (s *Station) lookupLog(id string) *sensorLog {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sensors[id]
}

// getOrCreate returns (creating if needed) the log of the named sensor.
// With an archive attached, a sensor whose ID the archive cannot name is
// refused before it is created: the archive could never hold its frames.
func (s *Station) getOrCreate(id string) (*sensorLog, error) {
	if l := s.lookupLog(id); l != nil {
		return l, nil
	}
	if store, _ := s.archiveBinding(); store != nil {
		if err := segstore.CheckSensorID(id); err != nil {
			return nil, fmt.Errorf("station: sensor %q: %w", id, err)
		}
	}
	dec, err := core.NewDecoder(s.cfg)
	if err != nil {
		return nil, err
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if l := sh.sensors[id]; l != nil {
		return l, nil // lost the creation race; the spare decoder is dropped
	}
	l := &sensorLog{decoder: dec}
	sh.sensors[id] = l
	s.nsensors.Add(1)
	return l, nil
}

// forEachLog visits every sensor log, unordered. The callback runs without
// any shard lock held, so it may lock l.mu freely.
func (s *Station) forEachLog(fn func(id string, l *sensorLog)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids := make([]string, 0, len(sh.sensors))
		logs := make([]*sensorLog, 0, len(sh.sensors))
		for id, l := range sh.sensors {
			ids = append(ids, id)
			logs = append(logs, l)
		}
		sh.mu.RUnlock()
		for j, l := range logs {
			fn(ids[j], l)
		}
	}
}

// SetTracer installs (or removes, with nil) the span recorder the
// receive and query paths feed. Safe to call at any time.
func (s *Station) SetTracer(rec *trace.Recorder) {
	s.tracer.Store(rec)
}

// Tracer returns the installed span recorder (nil: untraced).
func (s *Station) Tracer() *trace.Recorder {
	return s.tracer.Load()
}

// archiveRef returns the current archive binding (nil store: none).
func (s *Station) archiveBinding() (store *segstore.Store, memChunks int) {
	if a := s.arch.Load(); a != nil {
		return a.store, a.memChunks
	}
	return nil, 0
}

// ArchiveDegraded reports whether any sensor's archive append has failed
// since the station started. That sensor refuses its frames until a
// restart, and the archive may be refusing others' too. The transport's
// admission control and the /readyz probe watch this: the right move is
// to shed new traffic back to the sensors' outboxes. Lock-free: admission
// control calls it on every arrival.
func (s *Station) ArchiveDegraded() bool {
	return s.degraded.Load() > 0
}

// degrade marks the sensor's archive as failed. The caller holds l.mu.
func (s *Station) degrade(l *sensorLog) {
	if !l.archDown {
		l.archDown = true
		s.degraded.Add(1)
		s.metrics().degradedSensors.Add(1)
	}
}

// ReceiveFrame ingests one wire-encoded frame from the named sensor.
func (s *Station) ReceiveFrame(id string, frame []byte) error {
	return s.ReceiveFrameFrom(id, 0, frame)
}

// ReceiveFrameFrom ingests one wire-encoded frame delivered by the
// transport incarnation identified by src (0: unknown). The incarnation
// nonce lets the station classify a re-delivered already-accepted
// sequence as a retransmission — answered with ErrDuplicate so the
// transport can re-acknowledge it — instead of a decode-order violation,
// and disambiguates a retransmitted seq 0 from a sensor reboot.
func (s *Station) ReceiveFrameFrom(id string, src uint64, frame []byte) error {
	// Continue the wire-propagated trace, if the frame carries a sampled
	// one and a tracer is installed. The header peek only happens with a
	// live tracer, so the untraced path pays a single atomic load.
	var rsp *trace.Span
	if rec := s.tracer.Load(); rec != nil {
		if tc := wire.FrameTrace(frame); tc.Sampled {
			tr := rec.Continue(trace.ID(tc.ID), id)
			rsp = tr.StartSpan("station.receive")
		}
	}
	dsp := rsp.Child("station.decode")
	t, err := wire.DecodeBytes(frame)
	dsp.End()
	if err != nil {
		rsp.End()
		rsp.Trace().Finish()
		return fmt.Errorf("station: sensor %q: %w", id, err)
	}
	err = s.receive(id, t, frame, len(frame), src, fingerprint(frame), false, rsp)
	rsp.End()
	rsp.Trace().Finish()
	return err
}

// Receive ingests one decoded transmission from the named sensor (used
// when sender and receiver share an address space, e.g. in tests and the
// simulator's loss-free fast path).
func (s *Station) Receive(id string, t *core.Transmission) error {
	return s.receive(id, t, nil, 0, 0, 0, false, nil)
}

// fingerprint hashes a raw frame for the seq-0 duplicate heuristic.
func fingerprint(frame []byte) uint64 {
	h := fnv.New64a()
	h.Write(frame) //nolint:errcheck — fnv never fails
	return h.Sum64()
}

// duplicate classifies t against the log's retransmission state. The
// caller holds l.mu.
func (l *sensorLog) duplicate(t *core.Transmission, src, sum uint64) bool {
	if t.Seq >= l.nextSeq {
		return false
	}
	if t.Seq > 0 {
		// Sequences only restart at zero, so any already-passed positive
		// sequence is a retransmission (a genuinely confused sensor would
		// be rejected by the decoder anyway; dropping idempotently is the
		// safer answer for both).
		return true
	}
	// Seq 0 is ambiguous: retransmission of the incarnation's first frame,
	// or a rebooted sensor starting over. When both sides carry a nonce,
	// the same transport incarnation is further split by the frame
	// fingerprint: identical bytes are a retransmission (including a
	// crashed sensor replaying its durable outbox, which persists and
	// reuses its nonce exactly so this case classifies right), while
	// different bytes under the same nonce are an in-process sensor
	// reboot speaking through its long-lived radio client. A different
	// nonce is always a fresh start. Without nonces (in-process delivery,
	// crash-recovery replay) the fingerprint alone decides.
	if src != 0 && l.srcNonce != 0 {
		if src != l.srcNonce {
			return false
		}
		if sum != 0 && l.zeroSum != 0 {
			return sum == l.zeroSum
		}
		return true
	}
	return sum != 0 && sum == l.zeroSum
}

// receive is the single ingestion path. frame is the raw wire encoding
// when the caller has it (nil for in-process delivery: re-encoded on
// demand if an archive needs it); replay marks frames re-read from the
// archive during recovery, which are neither checked for duplicates — the
// archive holds only accepted frames — nor archived again; rsp is the
// caller's receive span for sampled traced frames (nil: untraced). With an
// archive attached, the frame is archived before anything else changes:
// the chunk joins the window, the index and the bookkeeping only once the
// append has succeeded, so no frame is accepted that the archive does not
// hold. It serialises on the sensor's own lock only: ingest for different
// sensors runs fully in parallel, and readers never hold this lock during
// work.
func (s *Station) receive(id string, t *core.Transmission, frame []byte, rawBytes int, src, sum uint64, replay bool, rsp *trace.Span) (err error) {
	met := s.metrics()
	start := time.Now()
	defer func() {
		if err != nil {
			if !errors.Is(err, ErrDuplicate) {
				met.rejects.Inc()
			}
			return
		}
		met.receiveSeconds.Observe(time.Since(start).Seconds())
	}()
	log, err := s.getOrCreate(id)
	if err != nil {
		return err
	}
	store, memChunks := s.archiveBinding()
	if met.ingestLockWait != nil {
		t0 := time.Now()
		log.mu.Lock()
		met.ingestLockWait.Observe(time.Since(t0).Seconds())
	} else {
		log.mu.Lock()
	}
	defer log.mu.Unlock()
	// Runs before the unlock above: any cached read view is stale once
	// this frame lands (cleared even on the reject paths — cheap, and
	// always safe).
	defer log.view.Store(nil)
	if log.archDown {
		return fmt.Errorf("station: sensor %q: an archive append failed; its frames are refused until the station restarts", id)
	}
	if !replay && log.duplicate(t, src, sum) {
		met.duplicates.Inc()
		// The dedup decision is the interesting event on this path: it is
		// what turns a retransmission into an idempotent re-ack.
		if dsp := rsp.Child("station.dedup"); dsp != nil {
			dsp.AnnotateInt("seq", int64(t.Seq))
			dsp.Annotate("verdict", "duplicate")
			dsp.End()
		}
		return fmt.Errorf("station: sensor %q seq %d: %w", id, t.Seq, ErrDuplicate)
	}
	// A refused frame leaves the sensor as it was: the shape is checked
	// before the replica sees the frame, the decoder validates the whole
	// frame before it changes anything, and a reboot's fresh replica
	// replaces the old one only once the frame is accepted. A failed
	// append is the one exception (see archDown).
	if log.n != 0 && (log.n != t.N || log.m != t.M) {
		return fmt.Errorf("station: sensor %q: batch shape %dx%d, want %dx%d",
			id, t.N, t.M, log.n, log.m)
	}
	dec := log.decoder
	reboot := s.AllowRestart && t.Seq == 0 && log.frames > 0
	if reboot {
		// Sensor reboot: a fresh compressor numbers from zero and starts
		// with an empty base signal, so the replica must reset too.
		if dec, err = core.NewDecoder(s.cfg); err != nil {
			return err
		}
	}
	// Archiving needs the raw frame and, when this append opens a fresh
	// segment, the sensor as it stands *before* this frame — that snapshot
	// becomes the segment header that makes the segment self-contained for
	// cold reads and a restart point.
	archiving := store != nil && !replay
	var pre segstore.SensorState
	if archiving {
		if frame == nil {
			if frame, err = wire.Encode(t); err != nil {
				return fmt.Errorf("station: sensor %q: re-encoding for archive: %w", id, err)
			}
		}
		if store.NeedsSegment(id) {
			pre = log.state(dec)
		}
	}
	rsp2 := rsp.Child("station.replica")
	rows, err := dec.Decode(t)
	rsp2.End()
	if err != nil {
		return fmt.Errorf("station: sensor %q: %w", id, err)
	}
	if log.index == nil {
		ix, err := query.NewIndex(t.N, t.M)
		if err != nil {
			return fmt.Errorf("station: sensor %q: %w", id, err)
		}
		ix.Instrument(met.queryQueries, met.queryNodes)
		log.index = ix
	}
	gchunk := log.totalChunks() // global index of this chunk
	if archiving {
		asp := rsp.Child("segstore.append")
		err := store.AppendTraced(id, gchunk, rows, t.ErrBound, t.Ins(), frame,
			func() segstore.SensorState { return pre }, asp)
		asp.End()
		if err != nil {
			// Not acknowledged, so the sender keeps the frame. The replica
			// has decoded it, though, and the archive may even hold it (when
			// the seal after it failed): the sensor refuses frames until a
			// restart resumes it from what the archive holds. The
			// transport's admission control watches ArchiveDegraded and
			// sheds new arrivals back to the sensors' durable outboxes.
			s.degrade(log)
			return fmt.Errorf("station: sensor %q: archiving chunk %d: %w", id, gchunk, err)
		}
	}
	isp := rsp.Child("station.index")
	err = log.index.AppendChunk(rows, t.ErrBound)
	isp.End()
	if err != nil {
		return fmt.Errorf("station: sensor %q: %w", id, err)
	}
	if reboot {
		log.decoder = dec
		log.restarts++
		met.restarts.Inc()
	}
	log.n, log.m = t.N, t.M
	log.chunks = append(log.chunks, rows)
	log.bounds = append(log.bounds, t.ErrBound)
	log.nextSeq = t.Seq + 1
	if t.Seq == 0 {
		log.srcNonce = src
		log.zeroSum = sum
	}
	log.frames++
	log.bytes += rawBytes
	log.values += t.Cost
	log.inserts = append(log.inserts, t.Ins())
	evict(log, memChunks)
	s.observeTransmission(met, log, t, rawBytes)
	return nil
}

// evict trims the in-memory window to memChunks (0: unbounded). Every
// chunk is in the archive before the window takes it, so any can go. The
// caller holds l.mu. The surviving window is copied into a fresh slice —
// never trimmed in place — so query snapshots captured before the
// eviction keep reading a stable backing array.
func evict(l *sensorLog, memChunks int) {
	drop := len(l.chunks) - memChunks
	if memChunks <= 0 || drop <= 0 {
		return
	}
	rest := make([][]timeseries.Series, memChunks)
	copy(rest, l.chunks[drop:])
	l.chunks = rest
	l.first += drop
}

// observeTransmission feeds the accepted transmission into the telemetry:
// reception totals plus the aggregated core.CompressionReport quantities.
// The caller holds l.mu.
func (s *Station) observeTransmission(met *stationMetrics, log *sensorLog, t *core.Transmission, rawBytes int) {
	if met.transmissions == nil {
		return // uninstrumented: skip even the report derivation
	}
	rep := core.ReportTransmission(t)
	met.sensors.Set(float64(s.nsensors.Load()))
	met.transmissions.Inc()
	met.values.Add(uint64(t.Cost))
	met.rawBytes.Add(uint64(rawBytes))
	met.indexDepth.SetMax(float64(log.index.Depth()))
	met.intervals.Add(uint64(rep.Intervals))
	met.baseInserts.Add(uint64(rep.BaseInserts))
	met.baseHits.Add(uint64(rep.BaseHits))
	met.rampIntervals.Add(uint64(rep.RampIntervals))
	met.achievedError.Observe(rep.AchievedError)
	if t.Bounded() {
		met.errBound.Observe(rep.ErrBound)
	}
}

// Sensors returns the known sensor IDs, sorted.
func (s *Station) Sensors() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.sensors {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Stats summarises what the station has received from one sensor.
type Stats struct {
	Transmissions int
	Quantities    int
	SamplesPerRow int
	RawBytes      int
	Values        int // abstract bandwidth consumed
	// BaseInserts lists the base intervals each transmission inserted
	// (Table 6). After retention purged history and the station restarted,
	// it covers the retained chunks only.
	BaseInserts []int
	Restarts    int // sensor reboots observed
}

// SensorStats reports reception statistics for the named sensor.
func (s *Station) SensorStats(id string) (Stats, error) {
	log := s.lookupLog(id)
	if log == nil {
		return Stats{}, fmt.Errorf("%w %q", ErrUnknownSensor, id)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return Stats{
		Transmissions: log.frames,
		Quantities:    log.n,
		SamplesPerRow: log.m,
		RawBytes:      log.bytes,
		Values:        log.values,
		BaseInserts:   append([]int(nil), log.inserts...),
		Restarts:      log.restarts,
	}, nil
}

// HistoryLen returns the number of recorded samples per quantity of the
// named sensor (archived chunks included).
func (s *Station) HistoryLen(id string) (int, error) {
	log := s.lookupLog(id)
	if log == nil {
		return 0, fmt.Errorf("%w %q", ErrUnknownSensor, id)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return log.totalChunks() * log.m, nil
}

// BaseSignal returns the current base-signal replica of the named sensor.
func (s *Station) BaseSignal(id string) (timeseries.Series, error) {
	log := s.lookupLog(id)
	if log == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownSensor, id)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return log.decoder.BaseSignal(), nil
}

// QueryStats is a point-in-time summary of the read path, served on
// /v1/stats next to the reception statistics.
type QueryStats struct {
	Queries    uint64 `json:"queries"`
	ColdChunks uint64 `json:"cold_chunks"`
}

// ReadStats reports the station's query-serving counters (zero when
// uninstrumented).
func (s *Station) ReadStats() QueryStats {
	met := s.metrics()
	return QueryStats{
		Queries:    met.queries.Value(),
		ColdChunks: met.queryCold.Value(),
	}
}
