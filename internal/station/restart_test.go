package station

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/obs"
	"sbr/internal/segstore"
)

// buildRestartArchive leaves in dir, as a crash would, an archive holding
// every shape a restart meets (segments of 4 chunks, 16 samples each):
//
//   - "clean": 12 chunks, rolled by a checkpoint to a header-only newest
//     file, as a clean shutdown leaves it: nothing replays;
//   - "purged": 16 chunks, the first 14 dropped by retention after a
//     checkpoint rolled it; its 2 records since replay;
//   - "mid": 10 chunks, crashed mid-segment: 2 records replay;
//   - "sealed": 8 chunks, crashed right after a seal: the newest file is
//     sealed, and its 4 records replay;
//   - "torn": 5 whole records and half a sixth, its last whole record
//     replayed and the half cut;
//   - "first": one sealed segment, then a newest file a crash cut inside
//     its first write, deleted, leaving the sealed one's 4 records to
//     replay.
//
// It returns the frames each sensor was fed from.
func buildRestartArchive(t *testing.T, dir string) [][]byte {
	t.Helper()
	cfg := restoreConfig()
	const m = 16
	frames := encodeTestFrames(t, cfg, 16, m)
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4,
		Retention: segstore.Retention{MaxBytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st.SetArchive(store, 4)
	feedFrames(t, st, "purged", frames[:14])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, err := store.EnforceRetention(time.Now()); err != nil || n != 4 {
		t.Fatalf("retention removed %d segments (%v), want 4", n, err)
	}
	feedFrames(t, st, "clean", frames[:12])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedFrames(t, st, "purged", frames[14:16])
	feedFrames(t, st, "mid", frames[:10])
	feedFrames(t, st, "sealed", frames[:8])
	feedFrames(t, st, "torn", frames[:5])
	feedFrames(t, st, "first", frames[:4])

	// The crash: the store is abandoned, half of torn's sixth record
	// reached its active segment, and first's next segment holds only
	// part of its magic.
	paths, err := filepath.Glob(filepath.Join(dir, "segments", "torn", "*.seg"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("torn's segment files %v (%v), want two", paths, err)
	}
	rec := blocklog.Append(nil, append([]byte{'R'}, frames[5]...))
	f, err := os.OpenFile(paths[1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "segments", "first", "000000000004.seg"), []byte("SBRS"), 0o644); err != nil {
		t.Fatal(err)
	}
	return frames
}

// copyTree copies the directory tree at src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// treeDigest maps every file under dir to its size and SHA-256.
func treeDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = fmt.Sprintf("%d %x", len(data), sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restartResult is everything a restart can be told apart by, with the
// timing and the pool width cleared.
type restartResult struct {
	Store    segstore.Stats
	Recover  RecoverStats
	Sensors  []string
	Archived []string
	Segments map[string]string // per sensor: bounds and watermark
	Files    map[string]string // the data directory after the restart
	Stats    map[string]Stats
	Answers  map[string][]string
}

// restartAt opens and recovers the archive in dir at GOMAXPROCS procs
// and records what the restarted station holds and answers.
func restartAt(t *testing.T, dir string, procs int) restartResult {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := restoreConfig()
	st, store := newArchivedStation(t, cfg, dir, 4, 4)
	defer store.Close()
	rs, err := st.Recover()
	if err != nil {
		t.Fatalf("GOMAXPROCS %d: %v", procs, err)
	}
	ss := store.StoreStats()
	if ss.OpenWorkers != procs || rs.Workers != procs || ss.OpenSeconds <= 0 || rs.Duration <= 0 {
		t.Fatalf("GOMAXPROCS %d: open %v s by %d workers, recover %v by %d", procs,
			ss.OpenSeconds, ss.OpenWorkers, rs.Duration, rs.Workers)
	}
	ss.OpenSeconds, ss.OpenWorkers = 0, 0
	rs.Duration, rs.Workers = 0, 0
	res := restartResult{
		Store: ss, Recover: rs, Sensors: st.Sensors(), Archived: store.Sensors(),
		Segments: map[string]string{}, Files: treeDigest(t, dir),
		Stats: map[string]Stats{}, Answers: map[string][]string{},
	}
	for _, id := range res.Archived {
		oldest, next, err := store.Bounds(id)
		res.Segments[id] = fmt.Sprintf("[%d,%d) %v purged %d",
			oldest, next, err, store.PurgedThrough(id))
	}
	for _, id := range res.Sensors {
		if res.Stats[id], err = st.SensorStats(id); err != nil {
			t.Fatal(err)
		}
		total, err := st.HistoryLen(id)
		if err != nil {
			t.Fatal(err)
		}
		var ans []string
		note := func(v, b float64, err error) { ans = append(ans, fmt.Sprintf("%v %v %v", v, b, err)) }
		for row := 0; row < res.Stats[id].Quantities; row++ {
			for idx := 0; idx < total; idx++ {
				note(st.AtWithBound(id, row, idx))
			}
			from := store.PurgedThrough(id) * res.Stats[id].SamplesPerRow
			w, err := st.ReadWindow(id, row, from+3, total, nil)
			ans = append(ans, fmt.Sprintf("%v %v %v", w.Values, w.Bound, err))
			note(st.AggregateWithBound(id, row, from+5, total-2, AggSum))
		}
		res.Answers[id] = ans
	}
	return res
}

// TestRestartSameAtEveryWidth restarts one crashed archive holding every
// shape a restart meets at GOMAXPROCS 1, 2 and 4: the store and recovery
// statistics, the sensors, the segments, the data directory after the
// torn tail is cut and the torn first write deleted, and every point, a
// range and an aggregate per row must not depend on the pool's width.
// Each sensor replays at most its newest file's records, none for the
// one shut down cleanly, and answers as a station that never stopped.
func TestRestartSameAtEveryWidth(t *testing.T) {
	template := t.TempDir()
	frames := buildRestartArchive(t, template)
	var want restartResult
	for _, procs := range []int{1, 2, 4} {
		dir := t.TempDir()
		copyTree(t, template, dir)
		got := restartAt(t, dir, procs)
		if procs == 1 {
			want = got
			// clean 0, purged 2, mid 2, sealed 4, torn 1, first 4.
			if got.Store.TornTails != 1 || got.Recover.Sensors != 6 || got.Recover.Replayed != 0+2+2+4+1+4 {
				t.Fatalf("restart %+v %+v: want one torn tail cut and 13 frames replayed", got.Store, got.Recover)
			}
			if _, ok := got.Files[filepath.Join("segments", "first", "000000000004.seg")]; ok {
				t.Fatal("the torn first write survived the restart")
			}
			checkRestartAnswers(t, dir, frames)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d restarts differently from GOMAXPROCS 1:\n%+v\nwant\n%+v", procs, got, want)
		}
	}
}

// checkRestartAnswers restarts the archive buildRestartArchive left in dir
// and compares every sensor with a station that was fed the same frames
// and never stopped, below the purge watermark excepted.
func checkRestartAnswers(t *testing.T, dir string, frames [][]byte) {
	t.Helper()
	cfg := restoreConfig()
	st, store := newArchivedStation(t, cfg, dir, 4, 4)
	defer store.Close()
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	for id, fed := range map[string]int{"clean": 12, "mid": 10, "sealed": 8, "torn": 5, "first": 4} {
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedFrames(t, ref, id, frames[:fed])
		compareStations(t, st, ref, id)
	}
	if n, err := st.HistoryLen("purged"); err != nil || n != 16*16 {
		t.Fatalf("purged sensor: HistoryLen = %d (%v), want %d", n, err, 16*16)
	}
}

// TestRestartGapsFailAlikeAtEveryWidth removes a middle segment of two
// sensors: Open must fail at every width with the same error, naming the
// first gap in directory order, and leave the directory as it was.
func TestRestartGapsFailAlikeAtEveryWidth(t *testing.T) {
	dir := t.TempDir()
	buildRestartArchive(t, dir)
	for _, id := range []string{"clean", "mid"} {
		if err := os.Remove(filepath.Join(dir, "segments", id, "000000000004.seg")); err != nil {
			t.Fatal(err)
		}
	}
	before := treeDigest(t, dir)
	var want string
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		store, err := segstore.Open(segstore.Options{Dir: dir, Config: restoreConfig(), SegmentChunks: 4})
		runtime.GOMAXPROCS(prev)
		if err == nil {
			store.Close()
			t.Fatalf("GOMAXPROCS %d: Open of a tree with gaps succeeded", procs)
		}
		if procs == 1 {
			want = err.Error()
			if !strings.Contains(want, filepath.Join("clean", "000000000008.seg")) {
				t.Fatalf("error %q does not name clean's segment after the gap", want)
			}
		} else if err.Error() != want {
			t.Fatalf("GOMAXPROCS %d: %q, want %q", procs, err, want)
		}
		if after := treeDigest(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("GOMAXPROCS %d: the failed Open changed the directory", procs)
		}
	}
}

// TestRestartAllocatesLittlePerChunk bounds what Open and Recover
// allocate per archived chunk of a sensor rolled at shutdown: the footer
// entries decode straight into the columns the station keeps, so a chunk
// costs its bound, its insert count, its index leaf and its share of the
// tree above the leaves (112 bytes for one quantity), plus each segment's
// and the restart's fixed costs: about 140 bytes. Copying each chunk's
// facts out of the footer into per-chunk structs, and those into the
// leaves, cost 370.
func TestRestartAllocatesLittlePerChunk(t *testing.T) {
	cfg := restoreConfig()
	const chunks = 1536
	dir := t.TempDir()
	st, store := newArchivedStation(t, cfg, dir, 16, 64)
	feedFrames(t, st, "s", encodeTestFrames(t, cfg, chunks, 16))
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	restart := func() {
		st, store := newArchivedStation(t, cfg, dir, 16, 64)
		if rs, err := st.Recover(); err != nil || rs.Replayed != 0 {
			t.Fatalf("recover: %+v, %v", rs, err)
		}
		store.Close()
	}
	restart()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		restart()
	}
	runtime.ReadMemStats(&after)
	perChunk := float64(after.TotalAlloc-before.TotalAlloc) / runs / chunks
	t.Logf("Open + Recover allocate %.0f bytes per archived chunk", perChunk)
	if perChunk > 200 {
		t.Errorf("Open + Recover allocate %.0f bytes per archived chunk, want at most 200", perChunk)
	}
}

// TestRecoverExportsTimings: the station and the store export how long
// the last restart took.
func TestRecoverExportsTimings(t *testing.T) {
	dir := t.TempDir()
	buildRestartArchive(t, dir)
	cfg := restoreConfig()
	reg := obs.NewRegistry()
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	store, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Instrument(reg)
	st.SetArchive(store, 4)
	rs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	vals := reg.Values()
	if v := vals["sbr_segstore_open_seconds"]; v <= 0 || v != store.StoreStats().OpenSeconds {
		t.Errorf("sbr_segstore_open_seconds = %v, want Open's %v s", v, store.StoreStats().OpenSeconds)
	}
	if v := vals["sbr_station_recover_seconds"]; v <= 0 || v != rs.Duration.Seconds() {
		t.Errorf("sbr_station_recover_seconds = %v, want Recover's %v s", v, rs.Duration.Seconds())
	}
}

// TestLongSensorIDsRefused: an ID whose directory name would pass the 255
// bytes a file name may have is refused with its first frame — before
// anything is acknowledged, and without creating or degrading a sensor —
// while an ID of 255 plain bytes is archived and survives a restart.
func TestLongSensorIDsRefused(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 3, 16)
	dir := t.TempDir()
	st, store := newArchivedStation(t, cfg, dir, 0, 4)
	for _, id := range []string{strings.Repeat("a", 256), strings.Repeat("/", 86)} {
		if err := st.ReceiveFrameFrom(id, 1, frames[0]); err == nil || errors.Is(err, ErrDuplicate) {
			t.Fatalf("ID of %d bytes: first frame accepted (%v)", len(id), err)
		}
		if _, err := st.HistoryLen(id); !errors.Is(err, ErrUnknownSensor) {
			t.Errorf("ID of %d bytes: the refused sensor exists (%v)", len(id), err)
		}
	}
	if st.ArchiveDegraded() {
		t.Fatal("a refused ID degraded the archive")
	}
	long := strings.Repeat("a", 255)
	feedFrames(t, st, long, frames)
	if st.ArchiveDegraded() {
		t.Fatal("an ID of 255 bytes degraded the archive")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	st2, store2 := newArchivedStation(t, cfg, dir, 0, 4)
	defer store2.Close()
	if _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := st2.Sensors(); !reflect.DeepEqual(got, []string{long}) {
		t.Fatalf("recovered sensors %q, want the 255-byte ID", got)
	}
	if n, err := st2.HistoryLen(long); err != nil || n != 3*16 {
		t.Fatalf("HistoryLen = %d (%v), want %d", n, err, 3*16)
	}
}

// TestRecoverKeepsIncarnationNonce feeds a sensor under transport
// incarnation nonce 7 past a segment boundary, so that its first frame is
// not among the records a restart replays, and crashes without a
// checkpoint. The newest file's header carries the nonce and the first
// frame's fingerprint across the crash: seq 0 retransmitted under nonce 7
// is a duplicate, and the same bytes under a fresh nonce are a reboot.
func TestRecoverKeepsIncarnationNonce(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 6, 16)
	dir := t.TempDir()
	st, _ := newArchivedStation(t, cfg, dir, 4, 4)
	for i, frame := range frames {
		if err := st.ReceiveFrameFrom("s", 7, frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// Crash: the station and store are abandoned.

	st2, store2 := newArchivedStation(t, cfg, dir, 4, 4)
	defer store2.Close()
	if rec, err := st2.Recover(); err != nil || rec.Replayed != 2 {
		t.Fatalf("recovery %+v (%v), want the newest file's 2 records replayed", rec, err)
	}
	if err := st2.ReceiveFrameFrom("s", 7, frames[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("seq 0 retransmitted under the same nonce: %v, want ErrDuplicate", err)
	}
	if err := st2.ReceiveFrameFrom("s", 8, frames[0]); err != nil {
		t.Fatalf("seq 0 under a fresh nonce: %v, want a reboot", err)
	}
	if stats, err := st2.SensorStats("s"); err != nil || stats.Restarts != 1 || stats.Transmissions != 7 {
		t.Fatalf("stats %+v (%v), want 7 transmissions and 1 reboot", stats, err)
	}
}

// TestChaosRecoverAtEveryRollStep crashes a checkpoint's roll of a sensor
// whose active segment holds chunks 8 and 9 after each of its steps —
// footer and trailer written, footer fsynced, new file created, header
// written, header fsynced, directory fsynced — and inside the footer and
// header writes, staging the files each leaves behind. Every restart must
// answer like a station that never stopped, replay at most a segment's
// records (the active segment's 2 until the rolled header is whole, none
// after), and decode the sensor's next frame.
func TestChaosRecoverAtEveryRollStep(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 11, 16)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames[:10])

	live := t.TempDir()
	st, _ := newArchivedStation(t, cfg, live, 4, 4)
	feedFrames(t, st, "s", frames[:10])
	before := t.TempDir()
	copyTree(t, live, before)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash after the roll: the station and store are abandoned.
	sealedPath := filepath.Join("segments", "s", "000000000008.seg")
	headerPath := filepath.Join("segments", "s", "000000000010.seg")
	read := func(dir, rel string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	active, sealed, header := read(before, sealedPath), read(live, sealedPath), read(live, headerPath)
	if len(sealed) <= len(active) || !bytes.Equal(sealed[:len(active)], active) {
		t.Fatal("the roll did not seal the active segment in place")
	}
	footerTorn := sealed[:len(active)+(len(sealed)-len(active))/2]

	for _, step := range []struct {
		name     string
		seg8     []byte // the rolled segment's content
		seg10    []byte // the new file's content (nil: not created)
		replayed int
	}{
		{"before the roll", active, nil, 2},
		{"inside the footer write", footerTorn, nil, 2},
		{"footer and trailer written", sealed, nil, 2},
		{"footer fsynced", sealed, nil, 2},
		{"new file created", sealed, []byte{}, 2},
		{"inside the header write", sealed, header[:len(header)/2], 2},
		{"header written", sealed, header, 0},
		{"header fsynced", sealed, header, 0},
		{"directory fsynced", sealed, header, 0},
	} {
		dir := t.TempDir()
		copyTree(t, before, dir)
		if err := os.WriteFile(filepath.Join(dir, sealedPath), step.seg8, 0o644); err != nil {
			t.Fatal(err)
		}
		if step.seg10 != nil {
			if err := os.WriteFile(filepath.Join(dir, headerPath), step.seg10, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st2, store2 := newArchivedStation(t, cfg, dir, 4, 4)
		rec, err := st2.Recover()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if rec.Replayed != step.replayed {
			t.Errorf("%s: replayed %d records, want %d", step.name, rec.Replayed, step.replayed)
		}
		compareStations(t, st2, ref, "s")
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedFrames(t, want, "s", frames)
		feedFrames(t, st2, "s", frames[10:])
		compareStations(t, st2, want, "s")
		store2.Close()
	}
}
