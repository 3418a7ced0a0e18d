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
// written and fsynced. Each segment header carries the sensor's state as
// of the segment's first chunk — the decoder replica and the receive
// bookkeeping — so a cold read decodes one segment in isolation and never
// reads its footer: queries over history evicted from station memory load
// only the segments whose chunks overlap the requested range and
// reconstruct only the requested quantity of those chunks.
//
// The segment files are the whole store: its index and its restart point.
// A sensor's directory name encodes its ID, each file's name its first
// chunk, and a sensor's files tile its chunks from the purge watermark on:
// Open rebuilds the store from one walk of the tree. A restart resumes
// each sensor from its newest file's header, takes the facts of the chunks
// before that file from the older files' footers (TakeRecovery), and
// replays the newest file's records (ReplayFrom). Roll bounds that replay
// to nothing: it seals a sensor's active segment and starts the next file
// with only a header, holding the sensor's state after its last chunk.
// Background retention drops the oldest sealed segments by age or byte
// budget, never a sensor's newest file.
//
// Crash safety relies on three invariants: every block is independently
// checksummed (a torn append is detected and truncated at reopen); a new
// segment's directory entry is durable before its first record is
// acknowledged or Roll returns; and retention unlinks a sensor's segments
// oldest first, each unlink durable before the next, so a crash mid-pass
// leaves a tiling suffix.
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
	// NoSync skips every fsync — per-append, segment seal, rolled headers
	// and directory entries. Throughput rises; a crash may lose
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

// removable returns how many of the oldest sealed segments retention may
// drop: all but the newest file, the sensor's restart point.
func (ss *sensorSegs) removable() int {
	if ss.active != nil {
		return len(ss.sealed)
	}
	return max(len(ss.sealed)-1, 0)
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
	openSeconds  *obs.Gauge
}

func newStoreMetrics() storeMetrics {
	return storeMetrics{
		segments: &obs.Gauge{}, bytes: &obs.Gauge{},
		appends: &obs.Counter{}, coldReads: &obs.Counter{},
		coldAdvanced: &obs.Counter{}, coldDecoded: &obs.Counter{},
		compactions: &obs.Counter{}, openSeconds: &obs.Gauge{},
	}
}

// Store is the persistent segment store. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	sensors   map[string]*sensorSegs
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

// Recovery is what Open read back for Station.Recover: the restart point
// of every sensor.
type Recovery struct {
	Sensors map[string]*SensorRecovery
}

// SensorRecovery is one sensor's restart point, read from its segment
// files: the chunk shape and the state its newest file's header records as
// of that file's first chunk, Start, and the per-chunk facts of the chunks
// [First, Start) before it, from the purge watermark First on. The newest
// file's records follow from Start; the station replays them (ReplayFrom).
// Open decodes the facts from the older files' footers straight into the
// columns the station keeps: Bounds[i] and Inserts[i] are chunk First+i's
// §4.5 error bound and inserted base intervals, and Leaves[row][i] its
// aggregate-index leaf (query.Leaf) for quantity row. Each leaf row's
// capacity ends at its length, so appending to one row never writes into
// the next.
type SensorRecovery struct {
	First   int
	Bounds  []float64
	Inserts []int
	Leaves  [][]query.Summary
	N, M    int
	State   SensorState
}

// Start returns the newest file's first chunk, where the replay starts.
func (sr *SensorRecovery) Start() int { return sr.First + len(sr.Bounds) }

// newSensorRecovery returns the restart point that newest, the header of a
// sensor's newest file, records, with zeroed columns for the chunks from
// first, the purge watermark, up to that file. The leaves of every row
// share one allocation.
func newSensorRecovery(first int, newest segHeader) *SensorRecovery {
	sr := &SensorRecovery{First: first, N: newest.N, M: newest.M, State: newest.SensorState}
	held := newest.FirstChunk - first
	sr.Bounds = make([]float64, held)
	sr.Inserts = make([]int, held)
	leaves := make([]query.Summary, newest.N*held)
	sr.Leaves = make([][]query.Summary, newest.N)
	for row := range sr.Leaves {
		sr.Leaves[row] = leaves[row*held : (row+1)*held : (row+1)*held]
	}
	return sr
}

// legacyManifest is the index file earlier versions kept beside the
// segments. Open deletes it: the segment files are the index now.
const legacyManifest = "MANIFEST.json"

// Open opens (creating if needed) a segment store rooted at opts.Dir and
// recovers whatever a previous process — cleanly shut down or crashed —
// left behind, from one walk of the segments tree (recoverSegments) on
// every core. Each sensor's restart point waits for TakeRecovery.
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
		dir:     opts.Dir,
		opts:    opts,
		sensors: make(map[string]*sensorSegs),
		met:     newStoreMetrics(),

		openWorkers: runtime.GOMAXPROCS(0),
	}
	if err := s.mkdirDurable(filepath.Join(opts.Dir, "segments")); err != nil {
		return nil, fmt.Errorf("segstore: creating data dir: %w", err)
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

// checkpointPrefix opens the names of the station checkpoint files earlier
// versions kept beside the segments.
const checkpointPrefix = "ckpt-"

// refuseOldCheckpoints fails when dir holds a station checkpoint file of an
// earlier version. The segments beside it are of an earlier format too,
// and failing before anything is read leaves the directory exactly as it
// was.
func refuseOldCheckpoints(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segstore: reading data dir: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), checkpointPrefix) {
			return fmt.Errorf("segstore: checkpoint %s: %w", e.Name(), errOldFormat)
		}
	}
	return nil
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
// directory holding the files of the sensor its name encodes, and reads
// every sensor's restart point for TakeRecovery. The work runs on a pool
// as wide as GOMAXPROCS, in two steps: each sensor directory is listed and
// its newest file read whole, then each older segment file's footer is
// read, a file being the unit so that one long-lived sensor's history
// spreads over every core too. Then the decisions run serially, in
// directory and file order: a directory name that does not decode, the
// listings, the tiling of each sensor's files and each file's own error,
// the first failure returned, exactly the one a serial walk meets first.
// It changes nothing on disk until every sensor's files have tiled: only
// then does it delete torn first writes and cut torn tails off the active
// segments.
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
	fanout.Run(len(dirs), s.openWorkers, func(_, i int) { dirs[i].list(s.opts.Config) })
	var files []fileRef
	for _, sd := range dirs {
		for j := 0; j < sd.newest; j++ {
			files = append(files, fileRef{sd, &sd.files[j]})
		}
	}
	bufs := make([][]byte, s.openWorkers) // each worker's footer buffer
	fanout.Run(len(files), s.openWorkers, func(w, i int) {
		sd, f := files[i].sd, files[i].f
		f.sm, f.err = readSegment(s.opts.Config, f.path, sd.id, f.first, f.next, sd.rec, &bufs[w])
	})

	s.recovery.Sensors = make(map[string]*SensorRecovery)
	var torn []string
	for _, sd := range dirs {
		if err := s.installSensor(sd, &torn); err != nil {
			return err
		}
	}
	if nameErr != nil {
		return nameErr
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
// in chunk order, what listing them met, and the restart point its newest
// file records, whose columns the older files' facts are decoded into.
type sensorDir struct {
	id, dir string
	err     error // listing the directory failed
	files   []segFile
	newest  int             // files[newest] is the newest file a crash did not tear
	rec     *SensorRecovery // nil: no file but a torn first write
}

// segFile is one segment file in Open's walk and what reading it found.
type segFile struct {
	path   string
	first  int // the first chunk its name gives
	next   int // the first chunk of the file after it; -1 for the last
	sm     segMeta
	active *activeSeg // the newest file, when it has no footer
	err    error
}

// fileRef names one file of one sensor for the read step.
type fileRef struct {
	sd *sensorDir
	f  *segFile
}

// list reads the sensor's directory into its files, in chunk order, and
// reads the newest of them whole: a last file torn inside its first write
// leaves the one before it the newest. The restart point that file's
// header records sizes the columns the older files' facts land in, from
// the purge watermark, the oldest file's first chunk, up to it.
func (sd *sensorDir) list(cfg core.Config) {
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
	for sd.newest = len(sd.files) - 1; sd.newest >= 0; sd.newest-- {
		f := &sd.files[sd.newest]
		var h segHeader
		h, f.sm, f.active, f.err = readNewest(cfg, f.path, sd.id, f.first, f.next)
		if f.next < 0 && errors.Is(f.err, errTornFirstWrite) {
			continue // the file before it is the newest
		}
		// A newest file that fails leaves columns of no chunks, which the
		// older files' entries are only timed against: Open fails on its
		// error, after the errors of the files before it.
		sd.rec = &SensorRecovery{}
		if f.err == nil {
			sd.rec = newSensorRecovery(sd.files[0].first, h)
		}
		return
	}
}

// installSensor rebuilds one sensor's index from its walked directory,
// whose files must tile the sensor's chunks: the oldest one's first chunk
// is the purge watermark, and each later file starts where the one before
// ends. A gap fails, naming the file after it, before that file's own
// error could. The active segment is left unopened, and a torn first
// write is added to torn, for the caller to heal. A sensor whose directory
// holds no file but a torn first write is not recovered.
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
	if sd.rec == nil {
		return nil
	}
	s.sensors[sd.id] = ss
	s.recovery.Sensors[sd.id] = sd.rec
	return nil
}

// errTornFirstWrite reports a newest segment too short to hold its header.
var errTornFirstWrite = errors.New("segstore: torn first write")

// readSegment reads an older segment file of the sensor, one before its
// newest, at path, where its segment starting at chunk first belongs; next
// is the first chunk of the file after it. A sealed segment comes back as
// its metadata, its footer read into buf (reused from file to file)
// through the trailer, without touching the rest of the file, and its
// entries decoded into rec's columns. A file without a readable footer is
// read whole and scanned (scanFile), its records' facts decoded into the
// columns as the footer entries a seal would write for them.
func readSegment(cfg core.Config, path, sensor string, first, next int, rec *SensorRecovery, buf *[]byte) (sm segMeta, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sm, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return sm, err
	}
	sm = segMeta{FirstChunk: first, Bytes: fi.Size()}
	if payload, err := readFooter(f, sm.Bytes, buf); err == nil {
		if ffirst, count, n, entries, err := footerHead(payload); err == nil && count > 0 {
			if ffirst != first {
				return sm, fmt.Errorf("footer starts at chunk %d, the file name at %d", ffirst, first)
			}
			sm.LastChunk = first + count - 1
			sm.MaxUnix, err = rec.putEntries(first, next, n, entries)
			return sm, err
		}
	}
	b := make([]byte, sm.Bytes)
	if _, err := f.ReadAt(b, 0); err != nil {
		return sm, err
	}
	scan, ff, err := scanFile(cfg, b, sensor, first, next)
	if err != nil {
		return sm, err
	}
	sm.LastChunk = first + len(ff) - 1
	sm.MaxUnix, err = rec.putEntries(first, next, scan.Header.N, appendFooterEntries(nil, ff))
	return sm, err
}

// readNewest reads the sensor's newest segment file, its restart point,
// whole in one read, and returns its header. A file sealed with a readable
// footer comes back as its metadata, its records scanned (scanSealed) but
// its footer entries left unread: the station rebuilds those chunks' facts
// when it replays them. Any other file is scanned
// (scanFile) and comes back as the active segment, its frames left in the
// buffer they were read into. next is the first chunk of the file after
// it — a torn first write the caller deletes — or -1; the last file that
// does not scan and is too short to hold a header yields
// errTornFirstWrite.
func readNewest(cfg core.Config, path, sensor string, first, next int) (h segHeader, sm segMeta, active *activeSeg, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return h, sm, nil, err
	}
	sm = segMeta{FirstChunk: first, Bytes: int64(len(b))}
	if off, err := footerOffset(b[max(0, len(b)-trailerLen):], sm.Bytes); err == nil {
		if payload, rest, err := blocklog.Cut(b[off : sm.Bytes-trailerLen]); err == nil && len(rest) == 0 {
			if ffirst, count, _, _, err := footerHead(payload); err == nil && count > 0 {
				if ffirst != first {
					return h, sm, nil, fmt.Errorf("footer starts at chunk %d, the file name at %d", ffirst, first)
				}
				sm.LastChunk = first + count - 1
				scan, err := scanSealed(b, sensor, sm)
				if err != nil {
					return h, sm, nil, err
				}
				for _, r := range scan.Recs {
					sm.MaxUnix = max(sm.MaxUnix, r.Unix)
				}
				return scan.Header, sm, nil, nil
			}
		}
	}
	scan, ff, err := scanFile(cfg, b, sensor, first, next)
	if err != nil {
		if next < 0 && tornFirstWrite(b) {
			err = errTornFirstWrite
		}
		return h, sm, nil, err
	}
	sm = sealedMeta(first, sm.Bytes, ff)
	return scan.Header, sm, &activeSeg{path: path, header: scan.Header, facts: ff, frames: scan.Frames, size: scan.Good}, nil
}

// scanFile scans a segment file without a readable footer, held whole in
// b, checks its header against its place and decodes its records' facts.
// A file followed by another, next >= 0, must hold records up to it.
func scanFile(cfg core.Config, b []byte, sensor string, first, next int) (segScan, []ChunkFacts, error) {
	scan, err := scanSegment(b, 0)
	if err != nil {
		return scan, nil, err
	}
	if err := checkPlace(scan.Header, sensor, first); err != nil {
		return scan, nil, err
	}
	ff, err := factsFromScan(cfg, scan)
	if err != nil {
		return scan, nil, err
	}
	if next >= 0 && len(ff) != next-first {
		return scan, nil, fmt.Errorf("footer unreadable and %d whole records, but the next segment starts at chunk %d",
			len(ff), next)
	}
	return scan, ff, nil
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
// new segment's header, with the receive bookkeeping as it stands before
// the frame. The answer stays valid as long as the caller
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
// bytes, and state a lazy snapshot of the sensor *before* this frame was
// received — the decoder replica and the receive bookkeeping — evaluated
// only when the append opens a fresh segment, whose header it becomes.
// Only the chunk, the time and the frame are written now; the rest waits
// in memory for the seal's footer. An error may leave the record durable
// all the same, when the seal after it fails, and may leave torn bytes at
// the end of the active segment: the caller must neither append to the
// sensor nor roll it again until a restart reopens the store (the station
// refuses the sensor's frames until then).
func (s *Store) Append(sensor string, chunk int, rows []timeseries.Series, bound float64, inserts int, frame []byte, state func() SensorState) error {
	return s.AppendTraced(sensor, chunk, rows, bound, inserts, frame, state, nil)
}

// AppendTraced is Append recording the durability work — the per-record
// fsync and any segment seal — as children of sp (nil: identical to
// Append). The fsync child is the usual answer to "where did this
// frame's receive latency go".
func (s *Store) AppendTraced(sensor string, chunk int, rows []timeseries.Series, bound float64, inserts int, frame []byte, state func() SensorState, sp *trace.Span) error {
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
		h := segHeader{Sensor: sensor, FirstChunk: chunk, N: len(rows), SensorState: state()}
		if len(rows) > 0 {
			h.M = len(rows[0])
		}
		if err := s.openSegment(ss, h, false); err != nil {
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

// openSegment creates the sensor's next active segment with header h, and
// makes its directory entry durable before the append that follows
// acknowledges the first record in it. syncHeader fsyncs the header
// first, for a file that stays header-only: a record's fsync covers it
// otherwise.
func (s *Store) openSegment(ss *sensorSegs, h segHeader, syncHeader bool) error {
	h.CreatedUnix = time.Now().Unix()
	if err := s.mkdirDurable(ss.dir); err != nil {
		return fmt.Errorf("segstore: creating sensor dir: %w", err)
	}
	path := filepath.Join(ss.dir, segName(h.FirstChunk))
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
	if syncHeader && !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("segstore: syncing segment header: %w", err)
		}
	}
	if err := s.syncDir(ss.dir); err != nil {
		f.Close()
		return err
	}
	ss.active = &activeSeg{f: f, path: path, header: h, size: int64(len(buf))}
	return nil
}

// Roll makes the sensor's newest file its restart point as it stands now:
// it seals the active segment when that holds records, then starts the
// next file with only a header — the chunk shape n×m and state, the
// sensor's state after its last chunk — and makes the header and its
// directory entry durable before it returns. A restart then resumes the
// sensor from that header and replays nothing. A sensor whose newest file
// holds only a header already is left as it is. The caller serialises
// Roll with the sensor's appends, as the station's lock does.
func (s *Store) Roll(sensor string, n, m int, state SensorState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	ss := s.sensors[sensor]
	if ss == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSensor, sensor)
	}
	if ss.active != nil && len(ss.active.frames) == 0 {
		return nil
	}
	defer s.updateGauges()
	if err := s.sealActive(ss); err != nil {
		return err
	}
	return s.openSegment(ss, segHeader{Sensor: sensor, FirstChunk: ss.nextChunk(), N: n, M: m, SensorState: state}, true)
}

// sealActive writes the footer and trailer, fsyncs and closes the active
// segment, and moves it to the sealed list. An active segment holding only
// a header is the sensor's restart point: it is closed and left as it is.
// The caller must hold s.mu.
func (s *Store) sealActive(ss *sensorSegs) error {
	a := ss.active
	if a == nil {
		return nil
	}
	if len(a.frames) == 0 {
		ss.active = nil
		return a.f.Close()
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

// Close seals every active segment that holds records (the footers make
// the next boot cheap), leaves the header-only ones as the restart points
// they are, and closes the store. A seal that fails does not stop the
// others: its file is closed unsealed, and every failure is returned.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for id, ss := range s.sensors {
		if a := ss.active; a != nil {
			if err := s.sealActive(ss); err != nil {
				a.f.Close() //nolint:errcheck // the seal's failure is the one reported
				errs = append(errs, fmt.Errorf("segstore: sensor %q: %w", id, err))
			}
		}
	}
	s.updateGauges()
	return errors.Join(errs...)
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
	SingleflightHits uint64 `json:"singleflight_hits"`
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
		openSeconds:  reg.Gauge("sbr_segstore_open_seconds", "Seconds Open took to rebuild the store from its segment files at start."),
	}
	s.met.openSeconds.Set(s.openDur.Seconds())
	s.updateGauges()
}
