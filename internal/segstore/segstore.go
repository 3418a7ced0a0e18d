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
// intervals, per-row sum/min/max, time) and a trailer locating it are
// written and fsynced. Each segment header carries the decoder replica
// state at segment start, so a cold read decodes one segment in isolation
// and never reads its footer: queries over history evicted from station
// memory load only the segments whose chunks overlap the requested range
// and reconstruct only the requested quantity of those chunks. Periodic
// station checkpoints (decoder replicas and receive bookkeeping, nothing
// per chunk) land in the data directory; a restart reads the newest
// checkpoint and one footer per sealed segment and hands both to the
// station (TakeRecovery), which then replays only the records appended
// since the checkpoint. Background retention drops the oldest sealed
// segments by age or byte budget, never touching records newer than the
// last checkpoint.
//
// The segment files are the only index. A sensor's directory name encodes
// its ID, each file's name its first chunk, and a sensor's files tile its
// chunks from the purge watermark on: Open rebuilds the store from one
// walk of the tree. Crash safety relies on three invariants: every block
// is independently checksummed (a torn append is detected and truncated
// at reopen); a new segment's directory entry is durable before its first
// record is acknowledged; and retention unlinks a sensor's segments oldest
// first, each unlink durable before the next, so a crash mid-pass leaves
// a tiling suffix. Checkpoints are replaced by atomic rename after an
// fsync, so a restart sees either the old or the new one.
package segstore

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
// Options leaves it zero: big enough to amortise footer writes, small
// enough that a cold read decodes a bounded batch.
const DefaultSegmentChunks = 64

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
	// NoSync skips every fsync — per-append, segment seal, directory
	// entries and checkpoint installs. Throughput rises; a crash may lose
	// acknowledged frames. The default (false) is the durable mode the
	// recovery guarantees assume.
	NoSync bool
	// FetchWorkers bounds the segments one range read scans and decodes
	// in parallel (DefaultFetchWorkers when zero).
	FetchWorkers int
	// Retention bounds the archive by age and/or bytes.
	Retention Retention
}

const segExt = ".seg"

// segMeta is one sealed segment: its chunks [FirstChunk, LastChunk], its
// file size and the time of its newest record. Its file is
// segName(FirstChunk) in its sensor's directory.
type segMeta struct {
	FirstChunk int
	LastChunk  int
	Bytes      int64
	MaxUnix    int64
}

// segName names the segment file whose first chunk is first.
func segName(first int) string { return fmt.Sprintf("%012d%s", first, segExt) }

// segFirst inverts segName; ok is false for a name segName never yields.
func segFirst(name string) (first int, ok bool) {
	first, err := strconv.Atoi(strings.TrimSuffix(name, segExt))
	return first, err == nil && first >= 0 && segName(first) == name
}

// dirName maps a sensor ID to its directory under segments/: every byte
// outside [A-Za-z0-9_.-], and a leading '.', is percent-encoded. Plain IDs
// such as "node" or "fleet-07" name their directory unchanged, no two IDs
// share one, and no ID names "." or "..".
func dirName(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		plain := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == '-' || c == '.' && i > 0
		if plain {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// sensorID inverts dirName; ok is false for a name dirName never yields.
func sensorID(name string) (id string, ok bool) {
	id, err := url.PathUnescape(name)
	return id, err == nil && id != "" && dirName(id) == name
}

// activeSeg is the per-sensor segment currently absorbing appends. Its
// raw frames are mirrored in memory (bounded by SegmentChunks) so tail
// replay and cold reads of the newest chunks need no extra file reads,
// and its per-chunk facts wait there for the footer the seal writes.
type activeSeg struct {
	f      *os.File
	path   string
	header segHeader
	facts  []ChunkFacts // one per record
	frames [][]byte     // one per record
	size   int64
}

func (a *activeSeg) lastChunk() int { return a.header.FirstChunk + len(a.frames) - 1 }

// sensorSegs is the in-memory index of one sensor's archive.
type sensorSegs struct {
	dir    string // the sensor's directory
	purged int    // chunks [0, purged) dropped by retention
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
	segments     *obs.Gauge
	bytes        *obs.Gauge
	appends      *obs.Counter
	coldReads    *obs.Counter
	coldAdvanced *obs.Counter
	coldDecoded  *obs.Counter
	compactions  *obs.Counter
	ckptAge      *obs.Gauge
}

func newStoreMetrics() storeMetrics {
	return storeMetrics{
		segments: &obs.Gauge{}, bytes: &obs.Gauge{},
		appends: &obs.Counter{}, coldReads: &obs.Counter{},
		coldAdvanced: &obs.Counter{}, coldDecoded: &obs.Counter{},
		compactions: &obs.Counter{}, ckptAge: &obs.Gauge{},
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

// legacyManifest is the index file earlier versions kept beside the
// segments. Open deletes it: the segment files are the index now.
const legacyManifest = "MANIFEST.json"

// Open opens (creating if needed) a segment store rooted at opts.Dir and
// recovers whatever a previous process — cleanly shut down or crashed —
// left behind, from one walk of the segments tree (recoverSegments). The
// newest checkpoint and the per-chunk facts wait for TakeRecovery.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("segstore: empty data directory")
	}
	if opts.SegmentChunks <= 0 {
		opts.SegmentChunks = DefaultSegmentChunks
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
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
		met:       newStoreMetrics(),
	}
	if err := s.mkdirDurable(filepath.Join(opts.Dir, "segments")); err != nil {
		return nil, fmt.Errorf("segstore: creating data dir: %w", err)
	}
	if ck, seq := s.loadLatestCheckpoint(); ck != nil {
		s.noteCheckpointLocked(ck, seq)
		s.recovery.Checkpoint = ck
	}
	if err := s.recoverSegments(); err != nil {
		return nil, err
	}
	for _, name := range []string{legacyManifest, legacyManifest + ".tmp"} {
		os.Remove(filepath.Join(opts.Dir, name)) //nolint:errcheck // nothing reads it
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

// recoverSegments rebuilds the index from one walk of segments/, each
// directory holding the files of the sensor its name encodes, and gathers
// every sensor's per-chunk facts for TakeRecovery. It changes nothing on
// disk until every sensor's files have tiled: only then does it delete
// torn first writes and cut torn tails off the active segments.
func (s *Store) recoverSegments() error {
	root := filepath.Join(s.dir, "segments")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("segstore: reading segments dir: %w", err)
	}
	s.recovery.Facts = make(map[string]SensorFacts, len(dirs))
	var torn []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		id, ok := sensorID(d.Name())
		if !ok {
			return fmt.Errorf("segstore: segments/%s: not a sensor directory name", d.Name())
		}
		if err := s.recoverSensor(id, filepath.Join(root, d.Name()), &torn); err != nil {
			return err
		}
	}
	for _, path := range torn {
		// The crash landed inside the very first write of a fresh segment:
		// nothing recoverable, nothing acknowledged.
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("segstore: removing torn segment: %w", err)
		}
	}
	for _, ss := range s.sensors {
		if a := ss.active; a != nil {
			if err := s.reopenActive(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// recoverSensor rebuilds one sensor's index and facts from its directory,
// whose files (readSegment) must tile the sensor's chunks: the oldest
// one's first chunk is the purge watermark, and each later file starts
// where the one before ends. A gap fails, naming the file after it. The
// active segment is left unopened, and a torn first write is added to
// torn, for the caller to heal. A sensor with no file left had all of it
// dropped by retention, which stops at the checkpoint's coverage: that is
// its watermark and its next chunk. Without coverage it is not recovered.
func (s *Store) recoverSensor(id, dir string, torn *[]string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segstore: reading sensor dir: %w", err)
	}
	var firsts []int
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		first, ok := segFirst(e.Name())
		if !ok {
			return fmt.Errorf("segstore: segment %s: not a segment file name", filepath.Join(dir, e.Name()))
		}
		firsts = append(firsts, first)
	}
	sort.Ints(firsts)
	ss := &sensorSegs{dir: dir}
	if len(firsts) > 0 {
		ss.purged = firsts[0]
	}
	var facts []ChunkFacts
	for i, first := range firsts {
		path := filepath.Join(dir, segName(first))
		if want := ss.nextChunk(); first != want {
			return fmt.Errorf("segstore: segment %s starts at chunk %d, but sensor %q ends at chunk %d: a segment is missing",
				path, first, id, want)
		}
		next := -1 // the newest file
		if i+1 < len(firsts) {
			next = firsts[i+1]
		}
		sm, ff, active, err := readSegment(s.opts.Config, path, id, first, next)
		switch {
		case errors.Is(err, errTornFirstWrite):
			*torn = append(*torn, path)
		case err != nil:
			return fmt.Errorf("segstore: segment %s: %w", path, err)
		case active != nil:
			ss.active = &activeSeg{path: path, header: active.Header, facts: ff,
				frames: active.Frames, size: active.Good}
		default:
			ss.sealed = append(ss.sealed, sm)
		}
		facts = append(facts, ff...)
	}
	if len(ss.sealed) == 0 && ss.active == nil {
		if ss.purged = s.ckptCover[id]; ss.purged == 0 {
			return nil
		}
	}
	s.sensors[id] = ss
	s.recovery.Facts[id] = SensorFacts{First: ss.purged, Chunks: facts}
	return nil
}

// errTornFirstWrite reports a newest segment too short to hold its header.
var errTornFirstWrite = errors.New("segstore: torn first write")

// readSegment reads the segment file at path, where the sensor's segment
// starting at chunk first belongs; next is the first chunk of the file
// after it, or -1 for the newest. A sealed segment comes back as its
// metadata and footer facts, read through the trailer without touching
// the rest of the file. A file without a readable footer is read whole in
// one ReadAt and scanned in place, its header checked against its place,
// and its facts decoded from its records: an older file comes back as
// sealed, its records reaching next, and the newest as the active
// segment's scan, whose frames stay in the buffer they were read into. A
// newest file that does not scan and is too short to hold a header yields
// errTornFirstWrite.
func readSegment(cfg core.Config, path, sensor string, first, next int) (sm segMeta, facts []ChunkFacts, active *segScan, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sm, nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return sm, nil, nil, err
	}
	size := fi.Size()
	if ffirst, facts, err := footerFacts(f, size); err == nil && len(facts) > 0 {
		if ffirst != first {
			return sm, nil, nil, fmt.Errorf("footer starts at chunk %d, the file name at %d", ffirst, first)
		}
		return sealedMeta(first, size, facts), facts, nil, nil
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		return sm, nil, nil, err
	}
	scan, err := scanSegment(b, 0)
	if err != nil {
		if next < 0 && tornFirstWrite(b) {
			return sm, nil, nil, errTornFirstWrite
		}
		return sm, nil, nil, err
	}
	if err := checkPlace(scan.Header, sensor, first); err != nil {
		return sm, nil, nil, err
	}
	if facts, err = factsFromScan(cfg, scan); err != nil {
		return sm, nil, nil, err
	}
	if next < 0 {
		return sm, facts, &scan, nil
	}
	if len(facts) != next-first {
		return sm, nil, nil, fmt.Errorf("footer unreadable and %d whole records, but the next segment starts at chunk %d",
			len(facts), next)
	}
	return sealedMeta(first, size, facts), facts, nil, nil
}

// sealedMeta describes a sealed segment of size bytes holding facts from
// chunk first on.
func sealedMeta(first int, size int64, facts []ChunkFacts) segMeta {
	sm := segMeta{FirstChunk: first, LastChunk: first + len(facts) - 1, Bytes: size}
	for _, f := range facts {
		sm.MaxUnix = max(sm.MaxUnix, f.Unix)
	}
	return sm
}

// checkPlace verifies that a scanned segment's header names the sensor and
// first chunk its place in the tree does.
func checkPlace(h segHeader, sensor string, first int) error {
	if h.Sensor != sensor || h.FirstChunk != first {
		return fmt.Errorf("header names sensor %q chunk %d, but the file sits at sensor %q chunk %d",
			h.Sensor, h.FirstChunk, sensor, first)
	}
	return nil
}

// reopenActive opens a recovered active segment for appends, first cutting
// the torn tail a crash left after its last whole record.
func (s *Store) reopenActive(a *activeSeg) error {
	fi, err := os.Stat(a.path)
	if err == nil && fi.Size() > a.size {
		s.tornTails++
		err = blocklog.TruncateSync(a.path, a.size)
	}
	if err == nil {
		a.f, err = os.OpenFile(a.path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return fmt.Errorf("segstore: reopening active segment: %w", err)
	}
	return nil
}

// mkdirDurable creates dir when it is missing and makes its entry in the
// parent directory durable.
func (s *Store) mkdirDurable(dir string) error {
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, fs.ErrExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return s.syncDir(filepath.Dir(dir))
}

// syncDir fsyncs a directory, making the entries created or removed in it
// durable. NoSync skips it.
func (s *Store) syncDir(dir string) error {
	if s.opts.NoSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("segstore: syncing dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("segstore: syncing dir: %w", err)
	}
	return nil
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
		if sensor == "" {
			return fmt.Errorf("segstore: empty sensor id")
		}
		ss = &sensorSegs{dir: filepath.Join(s.dir, "segments", dirName(sensor))}
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
		ssp.End()
		if err != nil {
			return err
		}
	}
	s.updateGauges()
	return nil
}

// openSegment creates the sensor's next active segment, its header holding
// the decoder state as of firstChunk, and makes its directory entry durable
// before the append that follows acknowledges the first record in it.
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
	if err := s.mkdirDurable(ss.dir); err != nil {
		return fmt.Errorf("segstore: creating sensor dir: %w", err)
	}
	path := filepath.Join(ss.dir, segName(firstChunk))
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
	if err := s.syncDir(ss.dir); err != nil {
		f.Close()
		return err
	}
	ss.active = &activeSeg{f: f, path: path, header: h, size: int64(len(buf))}
	return nil
}

// sealActive writes the footer and trailer, fsyncs and closes the active
// segment, and moves it to the sealed list. The caller must hold s.mu.
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
	ss.sealed = append(ss.sealed, sealedMeta(a.header.FirstChunk, a.size+int64(len(block)), a.facts))
	ss.active = nil
	return nil
}

// Close seals every active segment (graceful shutdown: the footers make
// the next boot cheap) and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, ss := range s.sensors {
		if err := s.sealActive(ss); err != nil {
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

// sizeLocked counts the sealed segments, all segments and their bytes.
// Caller holds s.mu.
func (s *Store) sizeLocked() (sealed, segs int, bytes int64) {
	for _, ss := range s.sensors {
		sealed += len(ss.sealed)
		for _, sm := range ss.sealed {
			bytes += sm.Bytes
		}
		if ss.active != nil {
			segs++
			bytes += ss.active.size
		}
	}
	return sealed, segs + sealed, bytes
}

// updateGauges refreshes the segment/byte gauges. Caller holds s.mu.
func (s *Store) updateGauges() {
	_, segs, bytes := s.sizeLocked()
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
	// ColdReads counts the segments loaded to serve cold reads: file reads
	// of sealed segments and captures of an active one. No segment is
	// cached, so a read that spans k segments loads k.
	ColdReads uint64 `json:"cold_reads"`
	// ColdChunksAdvanced counts the chunks cold reads parsed only to move
	// a decoder past them, and ColdChunksDecoded those whose requested
	// row they reconstructed.
	ColdChunksAdvanced uint64 `json:"cold_chunks_advanced"`
	ColdChunksDecoded  uint64 `json:"cold_chunks_decoded"`
	Compactions        uint64 `json:"compactions"`
	// SingleflightHits is always 0: concurrent cold reads of one segment
	// each load it, and no read joins another's. It is kept for readers
	// of earlier reports that still ask for it.
	SingleflightHits   uint64 `json:"singleflight_hits"`
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
		Compactions:        s.met.compactions.Value(),
		LastCheckpointUnix: s.ckptUnix,
		TornTails:          s.tornTails,
	}
	st.SealedSegments, st.Segments, st.Bytes = s.sizeLocked()
	return st
}

// Instrument registers the store's metrics on reg and re-points the
// internal counters at the registered instances. Call before traffic.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = storeMetrics{
		segments:     reg.Gauge("sbr_segstore_segments", "Segment files in the archive (sealed + active)."),
		bytes:        reg.Gauge("sbr_segstore_bytes", "Archive size in bytes (sealed + active segments)."),
		appends:      reg.Counter("sbr_segstore_appends_total", "Transmissions archived."),
		coldReads:    reg.Counter("sbr_segstore_cold_reads_total", "Segment loads serving queries beyond the in-memory window."),
		coldAdvanced: reg.Counter("sbr_segstore_cold_chunks_advanced_total", "Archived chunks cold reads parsed only to advance a decoder past them."),
		coldDecoded:  reg.Counter("sbr_segstore_cold_chunks_decoded_total", "Archived chunks whose requested row cold reads reconstructed."),
		compactions:  reg.Counter("sbr_segstore_compactions_total", "Retention passes that removed at least one segment."),
		ckptAge:      reg.Gauge("sbr_segstore_checkpoint_age_seconds", "Seconds since the last station checkpoint (-1: none yet)."),
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
