// Package segstore is the base station's persistent archive: an
// append-only, crash-safe on-disk segment store whose unit of record is
// the wire-encoded SBR transmission — the compressed form the sensor
// actually shipped, exactly the deployment model of the paper's Section 3.2
// ("a separate file exists for each sensor") hardened for production.
//
// Records are CRC32C-framed blocks in per-sensor segment files. The active
// segment absorbs appends (fsynced by default, so an acknowledged frame is
// durable); once it holds SegmentChunks records it is sealed — a binary
// footer holding each record's per-chunk facts (bound, inserted base
// intervals, per-row sum/min/max, time) is written and the manifest is
// atomically replaced. Each segment header carries the decoder replica
// state at segment start, so a cold read decodes one segment in isolation
// and never reads its footer: queries over history evicted from station
// memory load only the segments whose chunks overlap the requested range
// and reconstruct only the requested quantity of those chunks. Periodic
// station checkpoints (decoder replicas and receive bookkeeping, nothing
// per chunk) land next to the manifest; a restart reads the newest
// checkpoint and one footer per sealed segment and hands both to the
// station (TakeRecovery), which then replays only the records appended
// since the checkpoint. Background retention drops the oldest sealed
// segments by age or byte budget, never touching records newer than the
// last checkpoint.
//
// Crash safety relies on two invariants: every block is independently
// checksummed (a torn append is detected and truncated at reopen), and the
// manifest and checkpoints are only ever replaced by atomic rename after
// an fsync, so readers see either the old or the new index, never a
// partial one. Compaction deletes files only after the manifest that
// forgets them is durable; leftovers from a crash in between are swept at
// the next open.
package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/timeseries"
)

// ErrPurged reports a query for chunks that retention has dropped.
var ErrPurged = errors.New("segstore: chunk purged by retention")

// ErrUnknownSensor reports a query for a sensor the store has no data for.
var ErrUnknownSensor = errors.New("segstore: unknown sensor")

// DefaultSegmentChunks is the records-per-segment seal threshold when
// Options leaves it zero: big enough to amortise footer and manifest
// writes, small enough that a cold read decodes a bounded batch.
const DefaultSegmentChunks = 64

// DefaultCacheSegments bounds the scanned-segment cache when Options
// leaves it zero.
const DefaultCacheSegments = 4

// Retention bounds the archive. Zero values mean unlimited.
type Retention struct {
	// MaxAge drops sealed segments whose newest record is older than this.
	MaxAge time.Duration
	// MaxBytes drops the oldest sealed segments while the store exceeds
	// this byte budget.
	MaxBytes int64
}

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if needed).
	Dir string
	// Config must match the station's core configuration: cold reads seed
	// replica decoders from it.
	Config core.Config
	// SegmentChunks is the seal threshold in records (DefaultSegmentChunks
	// when zero).
	SegmentChunks int
	// NoSync skips every fsync — per-append, segment seal, manifest and
	// checkpoint installs. Throughput rises; a crash may lose acknowledged
	// frames. The default (false) is the durable mode the recovery
	// guarantees assume.
	NoSync bool
	// CacheSegments bounds the scanned-segment LRU (DefaultCacheSegments
	// when zero).
	CacheSegments int
	// FetchWorkers bounds the segments one range read scans and decodes
	// in parallel (DefaultFetchWorkers when zero).
	FetchWorkers int
	// Retention bounds the archive by age and/or bytes.
	Retention Retention
}

const segExt = ".seg"

// activeSeg is the per-sensor segment currently absorbing appends. Its
// raw frames are mirrored in memory (bounded by SegmentChunks) so tail
// replay and cold reads of the newest chunks need no extra file reads,
// and its per-chunk facts wait there for the footer the seal writes.
type activeSeg struct {
	f      *os.File
	path   string // absolute
	rel    string // store-relative (manifest form)
	header segHeader
	facts  []ChunkFacts // one per record
	frames [][]byte     // one per record
	size   int64
}

func (a *activeSeg) lastChunk() int { return a.header.FirstChunk + len(a.frames) - 1 }

// sensorSegs is the in-memory index of one sensor's archive.
type sensorSegs struct {
	purged int // chunks [0, purged) dropped by retention
	sealed []segMeta
	active *activeSeg
}

// nextChunk returns the chunk index the next append must carry.
func (ss *sensorSegs) nextChunk() int {
	if ss.active != nil {
		return ss.active.header.FirstChunk + len(ss.active.frames)
	}
	if n := len(ss.sealed); n > 0 {
		return ss.sealed[n-1].LastChunk + 1
	}
	return ss.purged
}

// oldestChunk returns the first chunk the archive still holds.
func (ss *sensorSegs) oldestChunk() int { return ss.purged }

// storeMetrics is the store telemetry; all fields are standalone obs
// metrics so Stats works uninstrumented, swapped for registered instances
// by Instrument.
type storeMetrics struct {
	segments      *obs.Gauge
	bytes         *obs.Gauge
	appends       *obs.Counter
	coldReads     *obs.Counter
	coldAdvanced  *obs.Counter
	coldDecoded   *obs.Counter
	scanHits      *obs.Counter
	compactions   *obs.Counter
	ckptAge       *obs.Gauge
	sfHits        *obs.Counter
	sfWaits       *obs.Counter
	fetchParallel *obs.Gauge
}

func newStoreMetrics() storeMetrics {
	return storeMetrics{
		segments: &obs.Gauge{}, bytes: &obs.Gauge{},
		appends: &obs.Counter{}, coldReads: &obs.Counter{},
		coldAdvanced: &obs.Counter{}, coldDecoded: &obs.Counter{}, scanHits: &obs.Counter{},
		compactions: &obs.Counter{}, ckptAge: &obs.Gauge{},
		sfHits: &obs.Counter{}, sfWaits: &obs.Counter{},
		fetchParallel: &obs.Gauge{},
	}
}

// Store is the persistent segment store. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	sensors   map[string]*sensorSegs
	ckptSeq   int64
	ckptUnix  int64
	ckptCover map[string]int // chunks covered by the latest checkpoint
	cache     *segCache
	flights   map[string]*flight // in-progress segment scans, by cache key
	met       storeMetrics
	tornTails int      // torn active-segment tails Open truncated
	recovery  Recovery // what Open read back, until TakeRecovery
	closed    bool

	// watermarks maps each sensor with purged history to its purge
	// watermark, for readers that must not wait on s.mu. It is replaced
	// whole whenever a watermark moves, which only Open and retention do.
	watermarks atomic.Pointer[map[string]int]
}

// Recovery is what Open read back for Station.Recover: the checkpoint it
// decoded and every sensor's per-chunk facts.
type Recovery struct {
	// Checkpoint is the newest loadable checkpoint (nil: none).
	Checkpoint *Checkpoint
	// Facts holds each sensor's facts for every archived chunk, from its
	// purge watermark to its newest chunk: the sealed segments' footers,
	// then the active segment's records decoded.
	Facts map[string]SensorFacts
}

// SensorFacts is one sensor's per-chunk facts: Chunks[i] describes chunk
// First+i, and First is the sensor's purge watermark.
type SensorFacts struct {
	First  int
	Chunks []ChunkFacts
}

// Open opens (creating if needed) a segment store rooted at opts.Dir and
// recovers whatever a previous process — cleanly shut down or crashed —
// left behind: sealed segments are taken from the manifest and their
// footers read, the active segment is rescanned with its torn tail
// truncated, a segment sealed but not yet recorded in the manifest
// finishes sealing, and compaction leftovers are swept. The newest
// checkpoint and the per-chunk facts wait for TakeRecovery.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("segstore: empty data directory")
	}
	if opts.SegmentChunks <= 0 {
		opts.SegmentChunks = DefaultSegmentChunks
	}
	if opts.CacheSegments <= 0 {
		opts.CacheSegments = DefaultCacheSegments
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "segments"), 0o755); err != nil {
		return nil, fmt.Errorf("segstore: creating data dir: %w", err)
	}
	if err := refuseOldCheckpoints(opts.Dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       opts.Dir,
		opts:      opts,
		sensors:   make(map[string]*sensorSegs),
		ckptCover: make(map[string]int),
		cache:     newSegCache(opts.CacheSegments),
		flights:   make(map[string]*flight),
		met:       newStoreMetrics(),
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if ck, seq := s.loadLatestCheckpoint(); ck != nil {
		s.noteCheckpointLocked(ck, seq)
		s.recovery.Checkpoint = ck
	}
	if err := s.recoverSegments(); err != nil {
		return nil, err
	}
	if err := s.readFooters(); err != nil {
		return nil, err
	}
	s.publishWatermarksLocked()
	s.updateGauges()
	return s, nil
}

// TakeRecovery hands over what Open read back. The store keeps no copy, so
// the facts are freed once the station has rebuilt its state from them; a
// second call returns an empty Recovery.
func (s *Store) TakeRecovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recovery
	s.recovery = Recovery{}
	return r
}

// PurgedThrough returns the sensor's purge watermark: retention has
// dropped its chunks [0, PurgedThrough). It takes no lock, so readers can
// check it on every query without waiting behind an append's fsync.
func (s *Store) PurgedThrough(sensor string) int {
	if m := s.watermarks.Load(); m != nil {
		return (*m)[sensor]
	}
	return 0
}

// publishWatermarksLocked republishes the purge watermarks for
// PurgedThrough. Caller holds s.mu (or is Open).
func (s *Store) publishWatermarksLocked() {
	m := make(map[string]int)
	for id, ss := range s.sensors {
		if ss.purged > 0 {
			m[id] = ss.purged
		}
	}
	s.watermarks.Store(&m)
}

// recoverSegments scans the segments tree for files the manifest does not
// know: per sensor, the one past the sealed range is the active segment
// (rescanned, torn tail truncated, its records decoded for their facts, or
// its seal finished if it has a footer); anything else is a compaction
// leftover and is deleted.
func (s *Store) recoverSegments() error {
	root := filepath.Join(s.dir, "segments")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("segstore: reading segments dir: %w", err)
	}
	known := make(map[string]bool)
	for _, ss := range s.sensors {
		for _, sm := range ss.sealed {
			known[filepath.ToSlash(sm.File)] = true
		}
	}
	var sealedDirty bool
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, d.Name()))
		if err != nil {
			return fmt.Errorf("segstore: reading sensor dir: %w", err)
		}
		type cand struct {
			path string
			rel  string
			scan segScan
		}
		var cands []cand
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), segExt) {
				continue
			}
			rel := filepath.ToSlash(filepath.Join("segments", d.Name(), f.Name()))
			if known[rel] {
				continue
			}
			path := filepath.Join(root, d.Name(), f.Name())
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			fh, err := os.Open(path)
			if err != nil {
				return err
			}
			scan, serr := scanSegment(fh, fi.Size())
			torn := serr != nil && tornFirstWrite(fh, fi.Size())
			fh.Close()
			if torn {
				// The crash landed inside the very first write of a fresh
				// segment: nothing recoverable, nothing acknowledged.
				if err := os.Remove(path); err != nil {
					return fmt.Errorf("segstore: removing torn segment: %w", err)
				}
				continue
			}
			if serr != nil {
				return fmt.Errorf("segstore: segment %s: %w", rel, serr)
			}
			cands = append(cands, cand{path: path, rel: rel, scan: scan})
		}
		if len(cands) == 0 {
			continue
		}
		// The true active segment starts past everything the manifest holds
		// for its sensor; everything else is a stale leftover.
		sort.Slice(cands, func(i, j int) bool {
			return cands[i].scan.Header.FirstChunk < cands[j].scan.Header.FirstChunk
		})
		for i, c := range cands {
			id := c.scan.Header.Sensor
			ss := s.sensors[id]
			if ss == nil {
				ss = &sensorSegs{}
				s.sensors[id] = ss
			}
			if i < len(cands)-1 || c.scan.Header.FirstChunk != ss.nextChunk() {
				if err := os.Remove(c.path); err != nil {
					return fmt.Errorf("segstore: sweeping stale segment: %w", err)
				}
				continue
			}
			if c.scan.Sealed {
				// Sealed on disk but the crash beat the manifest update:
				// finish the job.
				ss.sealed = append(ss.sealed, metaFromScan(c.rel, c.scan))
				sealedDirty = true
				continue
			}
			// The records carry frames only: their facts, which the seal
			// will write into the footer, come from one cold decode.
			facts, err := factsFromScan(s.opts.Config, c.scan)
			if err != nil {
				return fmt.Errorf("segstore: active segment %s: %w", c.rel, err)
			}
			if c.scan.Good < c.scan.Size {
				if err := blocklog.TruncateSync(c.path, c.scan.Good); err != nil {
					return fmt.Errorf("segstore: %w", err)
				}
				s.tornTails++
			}
			fh, err := os.OpenFile(c.path, os.O_RDWR, 0)
			if err != nil {
				return fmt.Errorf("segstore: reopening active segment: %w", err)
			}
			if _, err := fh.Seek(c.scan.Good, 0); err != nil {
				fh.Close()
				return err
			}
			ss.active = &activeSeg{
				f: fh, path: c.path, rel: c.rel,
				header: c.scan.Header, facts: facts,
				frames: c.scan.Frames, size: c.scan.Good,
			}
		}
	}
	if sealedDirty {
		return s.writeManifest()
	}
	return nil
}

func metaFromScan(rel string, scan segScan) segMeta {
	sm := segMeta{
		File:       rel,
		FirstChunk: scan.Header.FirstChunk,
		LastChunk:  scan.Header.FirstChunk + len(scan.Recs) - 1,
		Bytes:      scan.Good,
	}
	for i, r := range scan.Recs {
		if i == 0 || r.Unix < sm.MinUnix {
			sm.MinUnix = r.Unix
		}
		if r.Unix > sm.MaxUnix {
			sm.MaxUnix = r.Unix
		}
	}
	return sm
}

// readFooters gathers every sensor's per-chunk facts for TakeRecovery: one
// footer read per sealed segment, then the active segment's decoded facts.
// The footer reads also prove that the files the manifest names exist and
// tile each sensor's chunks from its purge watermark without a gap.
func (s *Store) readFooters() error {
	s.recovery.Facts = make(map[string]SensorFacts, len(s.sensors))
	for id, ss := range s.sensors {
		var facts []ChunkFacts
		for _, sm := range ss.sealed {
			if want := ss.purged + len(facts); sm.FirstChunk != want {
				return fmt.Errorf("segstore: sensor %q: segment %s starts at chunk %d, want %d",
					id, sm.File, sm.FirstChunk, want)
			}
			f, err := s.readFooter(sm)
			if err != nil {
				return err
			}
			facts = append(facts, f...)
		}
		if a := ss.active; a != nil {
			facts = append(facts, a.facts...)
		}
		s.recovery.Facts[id] = SensorFacts{First: ss.purged, Chunks: facts}
	}
	return nil
}

// readFooter returns one sealed segment's per-chunk facts from its footer,
// found through the trailer. A footer that does not decode is rebuilt
// from the segment's records, so bit rot in it costs one cold decode
// rather than the restart.
func (s *Store) readFooter(sm segMeta) ([]ChunkFacts, error) {
	f, err := os.Open(filepath.Join(s.dir, filepath.FromSlash(sm.File)))
	if err != nil {
		return nil, fmt.Errorf("segstore: manifest names missing segment %s: %w", sm.File, err)
	}
	defer f.Close()
	want := sm.LastChunk - sm.FirstChunk + 1
	if first, facts, err := footerFacts(f, sm.Bytes); err == nil && first == sm.FirstChunk && len(facts) == want {
		return facts, nil
	}
	scan, err := scanSegment(io.NewSectionReader(f, 0, sm.Bytes), sm.Bytes)
	if err != nil {
		return nil, fmt.Errorf("segstore: sealed segment %s: %w", sm.File, err)
	}
	if len(scan.Recs) != want {
		return nil, fmt.Errorf("segstore: sealed segment %s: footer and records unreadable", sm.File)
	}
	facts, err := factsFromScan(s.opts.Config, scan)
	if err != nil {
		return nil, fmt.Errorf("segstore: sealed segment %s: %w", sm.File, err)
	}
	return facts, nil
}

// safeName maps a sensor ID to its directory name, sanitising path
// separators.
func safeName(id string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':':
			return '_'
		}
		return r
	}, id)
}

// NeedsSegment reports whether the next Append for sensor will open a
// fresh segment — the station's cue to snapshot the decoder replica
// *before* decoding the frame, because that pre-decode state becomes the
// new segment's header. The answer stays valid as long as the caller
// serialises its appends per sensor (the station's lock does).
func (s *Store) NeedsSegment(sensor string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sensors[sensor]
	return ss == nil || ss.active == nil
}

// Append archives one accepted transmission: chunk is the station's global
// chunk index for the sensor, rows the decoded quantities, bound the §4.5
// error bound, inserts the base intervals it inserted, frame the raw wire
// bytes, and state a lazy snapshot of the decoder replica *before* this
// frame was decoded — evaluated only when the append opens a fresh
// segment, whose header it becomes. Only the chunk, the time and the frame
// are written now; the rest waits in memory for the seal's footer.
func (s *Store) Append(sensor string, chunk int, rows []timeseries.Series, bound float64, inserts int, frame []byte, state func() core.DecoderState) error {
	return s.AppendTraced(sensor, chunk, rows, bound, inserts, frame, state, nil)
}

// AppendTraced is Append recording the durability work — the per-record
// fsync and any segment seal — as children of sp (nil: identical to
// Append). The fsync child is the usual answer to "where did this
// frame's receive latency go".
func (s *Store) AppendTraced(sensor string, chunk int, rows []timeseries.Series, bound float64, inserts int, frame []byte, state func() core.DecoderState, sp *trace.Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	ss := s.sensors[sensor]
	if ss == nil {
		ss = &sensorSegs{}
		s.sensors[sensor] = ss
	}
	if want := ss.nextChunk(); chunk != want {
		return fmt.Errorf("segstore: sensor %q chunk %d out of order (want %d)", sensor, chunk, want)
	}
	if ss.active == nil {
		if err := s.openSegment(sensor, ss, chunk, rows, state()); err != nil {
			return err
		}
	}
	a := ss.active
	if len(rows) != a.header.N {
		return fmt.Errorf("segstore: sensor %q chunk %d has %d rows, segment has %d", sensor, chunk, len(rows), a.header.N)
	}
	now := time.Now().Unix()
	block := encodeRecordBlock(chunk, now, frame)
	if _, err := a.f.Write(block); err != nil {
		return fmt.Errorf("segstore: appending record: %w", err)
	}
	if !s.opts.NoSync {
		fsp := sp.Child("segstore.fsync")
		err := a.f.Sync()
		fsp.End()
		if err != nil {
			return fmt.Errorf("segstore: syncing record: %w", err)
		}
	}
	a.facts = append(a.facts, ChunkFacts{Unix: now, Bound: bound, Inserts: inserts, Rows: summarizeRows(rows)})
	a.frames = append(a.frames, append([]byte(nil), frame...))
	a.size += int64(len(block))
	s.met.appends.Inc()
	if len(a.frames) >= s.opts.SegmentChunks {
		ssp := sp.Child("segstore.seal")
		err := s.sealActive(ss)
		if err == nil {
			err = s.writeManifest()
		}
		ssp.End()
		if err != nil {
			return err
		}
	}
	s.updateGauges()
	return nil
}

// openSegment creates the sensor's next active segment, its header holding
// the decoder state as of firstChunk.
func (s *Store) openSegment(sensor string, ss *sensorSegs, firstChunk int, rows []timeseries.Series, state core.DecoderState) error {
	m := 0
	if len(rows) > 0 {
		m = len(rows[0])
	}
	h := segHeader{
		Sensor:      sensor,
		FirstChunk:  firstChunk,
		N:           len(rows),
		M:           m,
		Decoder:     state,
		CreatedUnix: time.Now().Unix(),
	}
	dir := filepath.Join(s.dir, "segments", safeName(sensor))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("segstore: creating sensor dir: %w", err)
	}
	name := fmt.Sprintf("%012d%s", firstChunk, segExt)
	path := filepath.Join(dir, name)
	rel := filepath.ToSlash(filepath.Join("segments", safeName(sensor), name))
	block, err := encodeHeaderBlock(h)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segstore: creating segment: %w", err)
	}
	buf := append(append([]byte(nil), segMagic[:]...), block...)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("segstore: writing segment header: %w", err)
	}
	ss.active = &activeSeg{f: f, path: path, rel: rel, header: h, size: int64(len(buf))}
	return nil
}

// sealActive writes the footer and trailer, fsyncs and closes the active
// segment, and moves it to the sealed list. The caller must hold s.mu and
// follow up with writeManifest.
func (s *Store) sealActive(ss *sensorSegs) error {
	a := ss.active
	if a == nil {
		return nil
	}
	if len(a.frames) == 0 {
		// Nothing durable in it: drop the empty shell instead of sealing.
		a.f.Close()
		ss.active = nil
		return os.Remove(a.path)
	}
	sm := segMeta{File: a.rel, FirstChunk: a.header.FirstChunk, LastChunk: a.lastChunk()}
	for i, f := range a.facts {
		if i == 0 || f.Unix < sm.MinUnix {
			sm.MinUnix = f.Unix
		}
		if f.Unix > sm.MaxUnix {
			sm.MaxUnix = f.Unix
		}
	}
	block := encodeFooterBlock(a.header.FirstChunk, a.header.N, a.facts, a.size)
	if _, err := a.f.Write(block); err != nil {
		return fmt.Errorf("segstore: writing segment footer: %w", err)
	}
	if !s.opts.NoSync {
		if err := a.f.Sync(); err != nil {
			return fmt.Errorf("segstore: syncing sealed segment: %w", err)
		}
	}
	if err := a.f.Close(); err != nil {
		return fmt.Errorf("segstore: closing sealed segment: %w", err)
	}
	sm.Bytes = a.size + int64(len(block))
	ss.sealed = append(ss.sealed, sm)
	ss.active = nil
	return nil
}

// Close seals every active segment (graceful shutdown: the footers and
// manifest make the next boot cheap) and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var sealed bool
	for _, ss := range s.sensors {
		if ss.active == nil {
			continue
		}
		if err := s.sealActive(ss); err != nil {
			return err
		}
		sealed = true
	}
	if sealed {
		if err := s.writeManifest(); err != nil {
			return err
		}
	}
	s.updateGauges()
	return nil
}

// Sensors returns the IDs the store holds data for, sorted.
func (s *Store) Sensors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sensors))
	for id := range s.sensors {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Bounds reports the archived chunk range [oldest, next) of one sensor:
// oldest is the retention watermark, next the chunk the next append will
// carry.
func (s *Store) Bounds(sensor string) (oldest, next int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.sensors[sensor]
	if ss == nil {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownSensor, sensor)
	}
	return ss.oldestChunk(), ss.nextChunk(), nil
}

// updateGauges refreshes the segment/byte gauges. Caller holds s.mu.
func (s *Store) updateGauges() {
	var segs int
	var bytes int64
	for _, ss := range s.sensors {
		segs += len(ss.sealed)
		for _, sm := range ss.sealed {
			bytes += sm.Bytes
		}
		if ss.active != nil {
			segs++
			bytes += ss.active.size
		}
	}
	s.met.segments.Set(float64(segs))
	s.met.bytes.Set(float64(bytes))
}

// Stats is a point-in-time summary of the store, served on /v1/stats.
type Stats struct {
	Sensors        int    `json:"sensors"`
	Segments       int    `json:"segments"`
	SealedSegments int    `json:"sealed_segments"`
	Bytes          int64  `json:"bytes"`
	Appends        uint64 `json:"appends"`
	// ColdReads counts the segments loaded to serve cold reads: file
	// scans of sealed segments and captures of an active one.
	ColdReads uint64 `json:"cold_reads"`
	// ColdChunksAdvanced counts the chunks cold reads parsed only to move
	// a decoder past them, and ColdChunksDecoded those whose requested
	// row they reconstructed.
	ColdChunksAdvanced uint64 `json:"cold_chunks_advanced"`
	ColdChunksDecoded  uint64 `json:"cold_chunks_decoded"`
	// ScanCacheHits counts the segments cold reads found already scanned.
	ScanCacheHits      uint64 `json:"scan_cache_hits"`
	Compactions        uint64 `json:"compactions"`
	SingleflightHits   uint64 `json:"singleflight_hits"`
	SingleflightWaits  uint64 `json:"singleflight_waits"`
	LastCheckpointUnix int64  `json:"last_checkpoint_unix"`
	// TornTails counts the torn active-segment tails Open truncated: the
	// crashes that landed mid-append. It is fixed once Open returns.
	TornTails int `json:"torn_tails"`
}

// StoreStats reports the current store statistics.
func (s *Store) StoreStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Sensors:            len(s.sensors),
		Appends:            s.met.appends.Value(),
		ColdReads:          s.met.coldReads.Value(),
		ColdChunksAdvanced: s.met.coldAdvanced.Value(),
		ColdChunksDecoded:  s.met.coldDecoded.Value(),
		ScanCacheHits:      s.met.scanHits.Value(),
		Compactions:        s.met.compactions.Value(),
		SingleflightHits:   s.met.sfHits.Value(),
		SingleflightWaits:  s.met.sfWaits.Value(),
		LastCheckpointUnix: s.ckptUnix,
		TornTails:          s.tornTails,
	}
	for _, ss := range s.sensors {
		st.SealedSegments += len(ss.sealed)
		for _, sm := range ss.sealed {
			st.Bytes += sm.Bytes
		}
		if ss.active != nil {
			st.Segments++
			st.Bytes += ss.active.size
		}
	}
	st.Segments += st.SealedSegments
	return st
}

// Instrument registers the store's metrics on reg and re-points the
// internal counters at the registered instances. Call before traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = storeMetrics{
		segments:      reg.Gauge("sbr_segstore_segments", "Segment files in the archive (sealed + active)."),
		bytes:         reg.Gauge("sbr_segstore_bytes", "Archive size in bytes (sealed + active segments)."),
		appends:       reg.Counter("sbr_segstore_appends_total", "Transmissions archived."),
		coldReads:     reg.Counter("sbr_segstore_cold_reads_total", "Segment loads serving queries beyond the in-memory window."),
		coldAdvanced:  reg.Counter("sbr_segstore_cold_chunks_advanced_total", "Archived chunks cold reads parsed only to advance a decoder past them."),
		coldDecoded:   reg.Counter("sbr_segstore_cold_chunks_decoded_total", "Archived chunks whose requested row cold reads reconstructed."),
		scanHits:      reg.Counter("sbr_segstore_scan_cache_hits_total", "Cold reads of a segment served from the scanned-segment cache."),
		compactions:   reg.Counter("sbr_segstore_compactions_total", "Retention passes that removed at least one segment."),
		ckptAge:       reg.Gauge("sbr_segstore_checkpoint_age_seconds", "Seconds since the last station checkpoint (-1: none yet)."),
		sfHits:        reg.Counter("sbr_segstore_singleflight_hits_total", "Cold fetches served by joining an in-flight scan of the same segment."),
		sfWaits:       reg.Counter("sbr_segstore_singleflight_waits_total", "Singleflight joins that blocked waiting for the leading decode."),
		fetchParallel: reg.Gauge("sbr_segstore_cold_fetch_parallel", "Segment scans currently in flight serving cold reads."),
	}
	s.updateGauges()
	s.updateCheckpointAgeLocked()
}

// UpdateCheckpointAge refreshes the checkpoint-age gauge; the daemon's
// report ticker calls it so the exported age moves between checkpoints.
func (s *Store) UpdateCheckpointAge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updateCheckpointAgeLocked()
}

func (s *Store) updateCheckpointAgeLocked() {
	if s.ckptUnix == 0 {
		s.met.ckptAge.Set(-1)
		return
	}
	age := time.Now().Unix() - s.ckptUnix
	if age < 0 {
		age = 0
	}
	s.met.ckptAge.Set(float64(age))
}
