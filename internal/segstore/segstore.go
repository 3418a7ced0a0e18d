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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/fanout"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/query"
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

// maxDirName is the longest file name the file systems the store runs on
// accept (NAME_MAX on Linux): a sensor directory's name must fit.
const maxDirName = 255

// CheckSensorID fails for a sensor ID the store cannot archive: an empty
// one, or one whose directory name (dirName, every escaped byte three
// bytes long) is longer than a file name may be. A station checks a new
// sensor's ID before it accepts the sensor's first frame, so no frame is
// acknowledged that its archive could never hold.
func CheckSensorID(id string) error {
	if id == "" {
		return fmt.Errorf("segstore: empty sensor id")
	}
	if n := len(dirName(id)); n > maxDirName {
		return fmt.Errorf("segstore: sensor id of %d bytes names a directory of %d bytes, past the %d bytes a file name may have",
			len(id), n, maxDirName)
	}
	return nil
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
	openSeconds  *obs.Gauge
}

func newStoreMetrics() storeMetrics {
	return storeMetrics{
		segments: &obs.Gauge{}, bytes: &obs.Gauge{},
		appends: &obs.Counter{}, coldReads: &obs.Counter{},
		coldAdvanced: &obs.Counter{}, coldDecoded: &obs.Counter{},
		compactions: &obs.Counter{}, ckptAge: &obs.Gauge{},
		openSeconds: &obs.Gauge{},
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

	// openDur is how long Open took, its walk run by openWorkers
	// goroutines (GOMAXPROCS when Open ran).
	openDur     time.Duration
	openWorkers int

	// watermarks maps each sensor with purged history to its purge
	// watermark, for readers that must not wait on s.mu. It is replaced
	// whole whenever a watermark moves, which only Open and retention do.
	watermarks atomic.Pointer[map[string]int]
}

// Recovery is what Open read back for Station.Recover: the checkpoint it
// decoded and the per-chunk facts of every sensor the checkpoint names.
type Recovery struct {
	// Checkpoint is the newest loadable checkpoint (nil: none).
	Checkpoint *Checkpoint
	// Facts maps each sensor the checkpoint names to the facts of the
	// chunks the checkpoint covers: the sealed segments' footers, and the
	// records of a segment without one decoded. A sensor the checkpoint
	// does not name replays its whole archive and needs none.
	Facts map[string]*SensorFacts
}

// SensorFacts is one checkpointed sensor's per-chunk facts over the chunks
// [First, First+len(Bounds)): from its purge watermark First up to the
// checkpoint's coverage. Open decodes them from the segment footers
// straight into the columns the station keeps: Bounds[i] and Inserts[i]
// are chunk First+i's §4.5 error bound and inserted base intervals, and
// Leaves[row][i] its aggregate-index leaf (query.Leaf) for quantity row.
// Only the chunks below Archived are in the archive. A sensor checkpointed
// while its archive appends were failing covers chunks the archive never
// took, and their facts stay zero. Each leaf row's capacity ends at its
// length, so appending to one row never writes into the next.
type SensorFacts struct {
	First    int
	Archived int
	Bounds   []float64
	Inserts  []int
	Leaves   [][]query.Summary

	m int // samples per chunk, every leaf's count
}

// newSensorFacts returns zeroed columns for the chunks [first, sc.Chunks)
// of a sensor with checkpoint sc; a checkpoint below first gets none, and
// restoring it fails. The leaves of every row share one allocation.
func newSensorFacts(first int, sc *SensorCheckpoint) *SensorFacts {
	sf := &SensorFacts{First: first, m: sc.M}
	held := sc.Chunks - first
	if held < 0 {
		return sf
	}
	sf.Bounds = make([]float64, held)
	sf.Inserts = make([]int, held)
	if sc.N > 0 {
		leaves := make([]query.Summary, sc.N*held)
		sf.Leaves = make([][]query.Summary, sc.N)
		for row := range sf.Leaves {
			sf.Leaves[row] = leaves[row*held : (row+1)*held : (row+1)*held]
		}
	}
	return sf
}

// legacyManifest is the index file earlier versions kept beside the
// segments. Open deletes it: the segment files are the index now.
const legacyManifest = "MANIFEST.json"

// Open opens (creating if needed) a segment store rooted at opts.Dir and
// recovers whatever a previous process — cleanly shut down or crashed —
// left behind, from one walk of the segments tree (recoverSegments) on
// every core. The newest checkpoint and the per-chunk facts wait for
// TakeRecovery.
func Open(opts Options) (*Store, error) {
	start := time.Now()
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

		openWorkers: runtime.GOMAXPROCS(0),
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
	s.openDur = time.Since(start)
	s.met.openSeconds.Set(s.openDur.Seconds())
	return s, nil
}

// TakeRecovery hands over what Open read back. The store keeps no
// reference, so the fact columns become the caller's — the station adopts
// them as its own — and a second call returns an empty Recovery.
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
// directory holding the files of the sensor its name encodes, and decodes
// the facts of every checkpointed sensor for TakeRecovery. The work runs
// on a pool as wide as GOMAXPROCS, in two steps: each sensor directory is
// listed, then each segment file is read, a file being the unit so that
// one long-lived sensor's history spreads over every core too. Then the
// decisions run serially, in directory and file order: a directory name
// that does not decode, the listings, the tiling of each sensor's files
// and each file's own error, the first failure returned, exactly the one
// a serial walk meets first. It changes nothing on disk until every
// sensor's files have tiled: only then does it delete torn first writes
// and cut torn tails off the active segments.
func (s *Store) recoverSegments() error {
	root := filepath.Join(s.dir, "segments")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("segstore: reading segments dir: %w", err)
	}
	var dirs []*sensorDir
	var nameErr error // met after every directory in dirs
	for _, d := range entries {
		if !d.IsDir() {
			continue
		}
		id, ok := sensorID(d.Name())
		if !ok {
			nameErr = fmt.Errorf("segstore: segments/%s: not a sensor directory name", d.Name())
			break
		}
		dirs = append(dirs, &sensorDir{id: id, dir: filepath.Join(root, d.Name())})
	}
	ck := s.recovery.Checkpoint
	fanout.Run(len(dirs), s.openWorkers, func(_, i int) { dirs[i].list(ck, s.ckptCover) })
	var files []fileRef
	for _, sd := range dirs {
		for j := range sd.files {
			files = append(files, fileRef{sd, &sd.files[j]})
		}
	}
	bufs := make([][]byte, s.openWorkers) // each worker's footer buffer
	fanout.Run(len(files), s.openWorkers, func(w, i int) {
		sd, f := files[i].sd, files[i].f
		f.sm, f.active, f.err = readSegment(s.opts.Config, f.path, sd.id, f.first, f.next, sd.facts, &bufs[w])
	})

	s.recovery.Facts = make(map[string]*SensorFacts)
	var torn []string
	for _, sd := range dirs {
		if err := s.installSensor(sd, &torn); err != nil {
			return err
		}
	}
	if nameErr != nil {
		return nameErr
	}
	if ck != nil {
		for id, sc := range ck.Sensors {
			if _, ok := s.recovery.Facts[id]; !ok {
				// No segment file left: nothing it covers was archived.
				s.recovery.Facts[id] = newSensorFacts(0, sc)
			}
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

// sensorDir is one sensor's directory in Open's walk: its segment files
// in chunk order, what listing them met, and the columns its checkpointed
// facts are decoded into.
type sensorDir struct {
	id, dir string
	err     error // listing the directory failed
	files   []segFile
	ckpt    *SensorCheckpoint // nil: the checkpoint does not name the sensor
	facts   *SensorFacts      // no columns without ckpt
}

// segFile is one segment file in Open's walk and what reading it found.
type segFile struct {
	path   string
	first  int // the first chunk its name gives
	next   int // the first chunk of the file after it; -1 for the newest
	sm     segMeta
	active *activeSeg // the newest file, read without a footer
	err    error
}

// fileRef names one file of one sensor for the read step.
type fileRef struct {
	sd *sensorDir
	f  *segFile
}

// list reads the sensor's directory into its files, in chunk order, and
// sizes the columns of its facts when ck names it. The purge watermark
// the facts start from is the oldest file's first chunk or, with no file
// left, the checkpoint's coverage.
func (sd *sensorDir) list(ck *Checkpoint, cover map[string]int) {
	entries, err := os.ReadDir(sd.dir)
	if err != nil {
		sd.err = fmt.Errorf("segstore: reading sensor dir: %w", err)
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		path := filepath.Join(sd.dir, e.Name())
		first, ok := segFirst(e.Name())
		if !ok {
			sd.err = fmt.Errorf("segstore: segment %s: not a segment file name", path)
			return
		}
		sd.files = append(sd.files, segFile{path: path, first: first})
	}
	sort.Slice(sd.files, func(i, j int) bool { return sd.files[i].first < sd.files[j].first })
	for i := range sd.files {
		sd.files[i].next = -1
		if i+1 < len(sd.files) {
			sd.files[i].next = sd.files[i+1].first
		}
	}
	sd.facts = &SensorFacts{}
	if ck != nil {
		if sd.ckpt = ck.Sensors[sd.id]; sd.ckpt != nil {
			first := cover[sd.id]
			if len(sd.files) > 0 {
				first = sd.files[0].first
			}
			sd.facts = newSensorFacts(first, sd.ckpt)
		}
	}
}

// installSensor rebuilds one sensor's index from its walked directory,
// whose files must tile the sensor's chunks: the oldest one's first chunk
// is the purge watermark, and each later file starts where the one before
// ends. A gap fails, naming the file after it, before that file's own
// error could. The active segment is left unopened, and a torn first
// write is added to torn, for the caller to heal. A sensor with no file
// left had all of it dropped by retention, which stops at the
// checkpoint's coverage: that is its watermark and its next chunk.
// Without coverage it is not recovered.
func (s *Store) installSensor(sd *sensorDir, torn *[]string) error {
	if sd.err != nil {
		return sd.err
	}
	ss := &sensorSegs{dir: sd.dir}
	if len(sd.files) > 0 {
		ss.purged = sd.files[0].first
	}
	for i := range sd.files {
		f := &sd.files[i]
		if want := ss.nextChunk(); f.first != want {
			return fmt.Errorf("segstore: segment %s starts at chunk %d, but sensor %q ends at chunk %d: a segment is missing",
				f.path, f.first, sd.id, want)
		}
		switch {
		case errors.Is(f.err, errTornFirstWrite):
			*torn = append(*torn, f.path)
		case f.err != nil:
			return fmt.Errorf("segstore: segment %s: %w", f.path, f.err)
		case f.active != nil:
			ss.active = f.active
		default:
			ss.sealed = append(ss.sealed, f.sm)
		}
	}
	if len(ss.sealed) == 0 && ss.active == nil {
		if ss.purged = s.ckptCover[sd.id]; ss.purged == 0 {
			return nil
		}
	}
	s.sensors[sd.id] = ss
	if sd.ckpt != nil {
		sf := sd.facts
		if sf.First != ss.purged {
			// Only a torn first write was left, and the watermark is the
			// coverage: no chunk it covers is archived.
			sf = newSensorFacts(ss.purged, sd.ckpt)
		}
		sf.Archived = min(sf.First+len(sf.Bounds), ss.nextChunk())
		s.recovery.Facts[sd.id] = sf
	}
	return nil
}

// errTornFirstWrite reports a newest segment too short to hold its header.
var errTornFirstWrite = errors.New("segstore: torn first write")

// readSegment reads the segment file at path, where the sensor's segment
// starting at chunk first belongs; next is the first chunk of the file
// after it, or -1 for the newest. A sealed segment comes back as its
// metadata, its footer read into buf (reused from file to file) through
// the trailer, without touching the rest of the file, and its entries
// decoded into facts. A file without a readable footer is read whole in
// one ReadAt and scanned in place, its header checked against its place,
// and its facts decoded from its records: an older file comes back as
// sealed, its records reaching next, and the newest as the active
// segment, whose frames stay in the buffer they were read into. A newest
// file that does not scan and is too short to hold a header yields
// errTornFirstWrite.
func readSegment(cfg core.Config, path, sensor string, first, next int, facts *SensorFacts, buf *[]byte) (sm segMeta, active *activeSeg, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sm, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return sm, nil, err
	}
	sm = segMeta{FirstChunk: first, Bytes: fi.Size()}
	if payload, err := readFooter(f, sm.Bytes, buf); err == nil {
		if ffirst, count, n, entries, err := footerHead(payload); err == nil && count > 0 {
			if ffirst != first {
				return sm, nil, fmt.Errorf("footer starts at chunk %d, the file name at %d", ffirst, first)
			}
			sm.LastChunk = first + count - 1
			sm.MaxUnix, err = facts.putEntries(first, next, n, entries)
			return sm, nil, err
		}
	}
	b := make([]byte, sm.Bytes)
	if _, err := f.ReadAt(b, 0); err != nil {
		return sm, nil, err
	}
	scan, err := scanSegment(b, 0)
	if err != nil {
		if next < 0 && tornFirstWrite(b) {
			return sm, nil, errTornFirstWrite
		}
		return sm, nil, err
	}
	if err := checkPlace(scan.Header, sensor, first); err != nil {
		return sm, nil, err
	}
	ff, err := factsFromScan(cfg, scan)
	if err != nil {
		return sm, nil, err
	}
	if next >= 0 && len(ff) != next-first {
		return sm, nil, fmt.Errorf("footer unreadable and %d whole records, but the next segment starts at chunk %d",
			len(ff), next)
	}
	// The records' facts reach the columns as the footer entries a seal
	// would write for them.
	if sm.MaxUnix, err = facts.putEntries(first, next, scan.Header.N, appendFooterEntries(nil, ff)); err != nil {
		return sm, nil, err
	}
	sm.LastChunk = first + len(ff) - 1
	if next < 0 {
		return sm, &activeSeg{path: path, header: scan.Header, facts: ff, frames: scan.Frames, size: scan.Good}, nil
	}
	return sm, nil, nil
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
		if err := CheckSensorID(sensor); err != nil {
			return err
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
	// OpenSeconds is how long Open took to rebuild the store from its
	// files, and OpenWorkers how many goroutines read them (GOMAXPROCS
	// when Open ran).
	OpenSeconds float64 `json:"open_seconds"`
	OpenWorkers int     `json:"open_workers"`
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
		OpenSeconds:        s.openDur.Seconds(),
		OpenWorkers:        s.openWorkers,
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
		openSeconds:  reg.Gauge("sbr_segstore_open_seconds", "Seconds Open took to rebuild the store from its segment files at start."),
	}
	s.met.openSeconds.Set(s.openDur.Seconds())
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
