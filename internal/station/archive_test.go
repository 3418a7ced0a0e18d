package station

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/obs"
	"sbr/internal/segstore"
)

// newArchivedStation builds a station backed by a segment store in dir,
// with the in-memory window bounded to memChunks chunks.
func newArchivedStation(t *testing.T, cfg core.Config, dir string, memChunks, segChunks int) (*Station, *segstore.Store) {
	t.Helper()
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: segChunks})
	if err != nil {
		t.Fatal(err)
	}
	st.SetArchive(store, memChunks)
	return st, store
}

// feedFrames pushes frames through the transport receive path.
func feedFrames(t *testing.T, st *Station, id string, frames [][]byte) {
	t.Helper()
	for i, frame := range frames {
		if err := st.ReceiveFrameFrom(id, 1, frame); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

// compareStations asserts that every query kind answers byte-identically
// on both stations for the sensor's full recorded history.
func compareStations(t *testing.T, got, want *Station, id string) {
	t.Helper()
	total, err := want.HistoryLen(id)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := got.HistoryLen(id); err != nil || n != total {
		t.Fatalf("HistoryLen = %d (%v), want %d", n, err, total)
	}

	// Point and full-history reads.
	wh, err := want.History(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := got.History(id, 0)
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(gh) != len(wh) {
		t.Fatalf("History length %d, want %d", len(gh), len(wh))
	}
	for i := range wh {
		if gh[i] != wh[i] {
			t.Fatalf("History[%d] = %v, want %v", i, gh[i], wh[i])
		}
	}
	for _, idx := range []int{0, 1, total / 3, total / 2, total - 1} {
		gv, gb, gerr := got.AtWithBound(id, 0, idx)
		wv, wb, werr := want.AtWithBound(id, 0, idx)
		if gerr != nil || werr != nil || gv != wv || gb != wb {
			t.Fatalf("AtWithBound(%d) = (%v,%v,%v), want (%v,%v,%v)", idx, gv, gb, gerr, wv, wb, werr)
		}
	}

	// Range reads spanning the cold/hot boundary.
	for _, r := range [][2]int{{0, 16}, {7, total / 2}, {total - 20, total}, {0, total}} {
		gr, gerr := got.Range(id, 0, r[0], r[1])
		wr, werr := want.Range(id, 0, r[0], r[1])
		if gerr != nil || werr != nil || len(gr) != len(wr) {
			t.Fatalf("Range%v: (%v,%v) lengths %d vs %d", r, gerr, werr, len(gr), len(wr))
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("Range%v[%d] = %v, want %v", r, i, gr[i], wr[i])
			}
		}
	}

	// Aggregates with error bounds, windowed queries, downsampling.
	for _, kind := range []AggregateKind{AggAvg, AggSum, AggMin, AggMax} {
		for _, r := range [][2]int{{0, total}, {5, total / 2}, {total - 30, total}} {
			gv, gb, gerr := got.AggregateWithBound(id, 0, r[0], r[1], kind)
			wv, wb, werr := want.AggregateWithBound(id, 0, r[0], r[1], kind)
			if gerr != nil || werr != nil || gv != wv || gb != wb {
				t.Fatalf("Aggregate kind %d %v = (%v,%v,%v), want (%v,%v,%v)",
					kind, r, gv, gb, gerr, wv, wb, werr)
			}
		}
	}
	gw, gerr := got.ReadWindow(id, 0, 0, total, nil)
	ww, werr := want.ReadWindow(id, 0, 0, total, nil)
	if gerr != nil || werr != nil || gw.Bound != ww.Bound {
		t.Fatalf("ReadWindow bound = (%v,%v), want (%v,%v)", gw.Bound, gerr, ww.Bound, werr)
	}
	gp, gerr := got.Run(Query{Sensor: id, Row: 0, Step: 32, Agg: AggMax})
	wp, werr := want.Run(Query{Sensor: id, Row: 0, Step: 32, Agg: AggMax})
	if gerr != nil || werr != nil || len(gp) != len(wp) {
		t.Fatalf("Run: (%v,%v) lengths %d vs %d", gerr, werr, len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("Run[%d] = %+v, want %+v", i, gp[i], wp[i])
		}
	}
	gd, gerr := got.Downsample(id, 0, 10)
	wd, werr := want.Downsample(id, 0, 10)
	if gerr != nil || werr != nil || len(gd) != len(wd) {
		t.Fatalf("Downsample: (%v,%v)", gerr, werr)
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("Downsample[%d] = %v, want %v", i, gd[i], wd[i])
		}
	}
	ge, gerr := got.Exceedances(id, 0, 0, total, 1.5)
	we, werr := want.Exceedances(id, 0, 0, total, 1.5)
	if gerr != nil || werr != nil || len(ge) != len(we) {
		t.Fatalf("Exceedances: (%v,%v) lengths %d vs %d", gerr, werr, len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("Exceedances[%d] = %+v, want %+v", i, ge[i], we[i])
		}
	}
}

// TestColdQueriesBeyondMemoryWindow bounds the in-memory window far below
// the ingested history and verifies every query kind still answers
// byte-identically to an unbounded station — the cold path through the
// segment store is exercised for all early chunks.
func TestColdQueriesBeyondMemoryWindow(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 30, 16)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, store := newArchivedStation(t, cfg, t.TempDir(), 5, 4)
	defer store.Close()
	feedFrames(t, st, "s", frames)

	// The window must actually have evicted: the cold path is the test.
	log := st.lookupLog("s")
	if log.first == 0 || len(log.chunks) > 5 {
		t.Fatalf("no eviction happened: first=%d window=%d", log.first, len(log.chunks))
	}
	compareStations(t, st, ref, "s")
}

// TestChaosStationCheckpointTailRecovery kills a station mid-stream (no
// Close, no final checkpoint) and recovers a fresh one from the archive.
// The checkpoint at chunk 12 rolled the segments, and the 8 frames after
// it filled and sealed two more: the restart resumes from the newest
// file's header, restores the 16 chunks before it without decoding,
// replays exactly the 4 records of that file, and every query kind
// matches an uncrashed reference — then the stream continues seamlessly.
func TestChaosStationCheckpointTailRecovery(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 21, 16)
	dir := t.TempDir()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames[:20])

	st, _ := newArchivedStation(t, cfg, dir, 6, 4)
	feedFrames(t, st, "s", frames[:12])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedFrames(t, st, "s", frames[12:20])
	// Crash: the station and store are abandoned with no Close.

	store2, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	st2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetArchive(store2, 6)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 4 {
		t.Errorf("replayed %d tail frames, want the newest file's 4", rec.Replayed)
	}
	if rec.Sensors != 1 {
		t.Errorf("recovered %d sensors, want 1", rec.Sensors)
	}
	compareStations(t, st2, ref, "s")

	// The decoder replica came back exact: the next live frame decodes.
	feedFrames(t, st2, "s", frames[20:])
	feedFrames(t, ref, "s", frames[20:])
	compareStations(t, st2, ref, "s")
}

// TestStationRecoverWithoutCheckpoint: a station that never checkpointed
// still restarts from its newest segment file's header, replaying that
// file's 3 records and not the archive.
func TestStationRecoverWithoutCheckpoint(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 9, 16)
	dir := t.TempDir()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, _ := newArchivedStation(t, cfg, dir, 4, 3)
	feedFrames(t, st, "s", frames)
	// Crash with no checkpoint ever written.

	st2, store2 := newArchivedStation(t, cfg, dir, 4, 3)
	defer store2.Close()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 3 {
		t.Errorf("replayed %d frames, want the newest file's 3", rec.Replayed)
	}
	compareStations(t, st2, ref, "s")
}

// TestStationGracefulShutdownRecovery is the stationd shutdown path: final
// checkpoint, rolling the segments to a header-only newest file, and the
// store closed. Reopening must recover from that header and the footers —
// zero frames replayed.
func TestStationGracefulShutdownRecovery(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 10, 16)
	dir := t.TempDir()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	st, store := newArchivedStation(t, cfg, dir, 4, 4)
	feedFrames(t, st, "s", frames)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	st2, store2 := newArchivedStation(t, cfg, dir, 4, 4)
	defer store2.Close()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 {
		t.Errorf("graceful restart replayed %d frames, want 0", rec.Replayed)
	}
	compareStations(t, st2, ref, "s")
}

// TestRecoverSetsSensorsGauge: an instrumented station that recovers four
// checkpointed sensors reports all four in sbr_station_sensors before any
// of them sends a frame, as stationd's report and /debug/metrics read it.
func TestRecoverSetsSensorsGauge(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 6, 16)
	dir := t.TempDir()
	st, store := newArchivedStation(t, cfg, dir, 4, 4)
	for _, id := range []string{"a", "b", "c", "d"} {
		feedFrames(t, st, id, frames)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st2.Instrument(reg)
	store2, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	st2.SetArchive(store2, 4)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sensors != 4 || rec.Replayed != 0 {
		t.Fatalf("recovery %+v, want 4 sensors and no frame replayed", rec)
	}
	if v := reg.Values()["sbr_station_sensors"]; v != 4 {
		t.Errorf("sbr_station_sensors = %v after recovering 4 sensors, want 4", v)
	}
}

// TestStationRecoverColdStart: an empty data directory is a cold start,
// not an error.
func TestStationRecoverColdStart(t *testing.T) {
	st, store := newArchivedStation(t, restoreConfig(), t.TempDir(), 0, 4)
	defer store.Close()
	rec, err := st.Recover()
	if err != nil {
		t.Fatalf("cold start errored: %v", err)
	}
	if rec.Duration <= 0 || rec.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("cold start stats %+v: want a duration and GOMAXPROCS workers", rec)
	}
	if rec.Duration, rec.Workers = 0, 0; rec != (RecoverStats{}) {
		t.Errorf("cold start stats %+v, want zero besides the timing", rec)
	}
}

// TestRecoverCountsTornSegmentTail: a crash mid-append leaves half a
// record block after the last whole one. Reopening the archive truncates
// it, and Recover counts that one truncation in the station's torn-tail
// counter beside the frames it replays.
func TestRecoverCountsTornSegmentTail(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 6, 16)
	dir := t.TempDir()

	st, _ := newArchivedStation(t, cfg, dir, 0, 100)
	feedFrames(t, st, "s", frames[:5])
	// Crash mid-append: the station and store are abandoned, and the last
	// write reached the disk only halfway.
	paths, err := filepath.Glob(filepath.Join(dir, "segments", "s", "*.seg"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("active segment files %v (%v), want one", paths, err)
	}
	torn := blocklog.Append(nil, append([]byte{'R'}, frames[5]...))
	f, err := os.OpenFile(paths[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st2.Instrument(reg)
	store2, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	st2.SetArchive(store2, 0)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 5 {
		t.Errorf("replayed %d frames, want the 5 whole records", rec.Replayed)
	}
	vals := reg.Values()
	if v := vals["sbr_station_torn_tails_total"]; v != 1 {
		t.Errorf("sbr_station_torn_tails_total = %v, want 1", v)
	}
	if v := vals["sbr_station_replayed_frames_total"]; v != 5 {
		t.Errorf("sbr_station_replayed_frames_total = %v, want 5", v)
	}
	// The healed segment takes the frame the crash cut short.
	feedFrames(t, st2, "s", frames[5:])
	if n, err := st2.HistoryLen("s"); err != nil || n != 6*16 {
		t.Errorf("HistoryLen = %d (%v), want %d", n, err, 6*16)
	}
}

// newestSegmentSize returns the size of the sensor's newest segment file
// in dir.
func newestSegmentSize(t *testing.T, dir, id string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "segments", id, "*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("segment files %v (%v)", names, err)
	}
	sort.Strings(names)
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRestartPointSizeIndependentOfHistory: the header-only file a
// checkpoint rolls to holds decoder state and receive bookkeeping only, so
// its size stays flat while the archive grows tenfold.
func TestRestartPointSizeIndependentOfHistory(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 300, 16)
	dir := t.TempDir()
	st, store := newArchivedStation(t, cfg, dir, 4, 8)
	defer store.Close()

	feedFrames(t, st, "s", frames[:30])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	small, archived := newestSegmentSize(t, dir, "s"), store.StoreStats().Bytes
	feedFrames(t, st, "s", frames[30:])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if grown := store.StoreStats().Bytes; grown < 9*archived {
		t.Fatalf("archive grew from %d to %d bytes, want about tenfold", archived, grown)
	}
	if large := newestSegmentSize(t, dir, "s"); large != small {
		t.Errorf("rolled header grew from %d to %d bytes with the history", small, large)
	}
}

// TestRecoverAfterPurgeStartsAtWatermark purges a sensor's oldest
// segments, keeps ingesting, then restarts. The rebuilt state starts at the
// purge watermark: every read below it answers ErrPurged — the
// chunk-aligned aggregate the index could otherwise serve included — the
// retained history answers exactly as an unpurged reference station does,
// and BaseInserts lists the retained chunks only.
func TestRecoverAfterPurgeStartsAtWatermark(t *testing.T) {
	cfg := restoreConfig()
	const m = 16
	frames := encodeTestFrames(t, cfg, 20, m)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames)

	for _, graceful := range []bool{false, true} {
		dir := t.TempDir()
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
		feedFrames(t, st, "s", frames[:12])
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n, err := store.EnforceRetention(time.Now()); err != nil || n != 3 {
			t.Fatalf("retention removed %d segments (%v), want 3", n, err)
		}
		const purged = 12 // chunks [0,12) are gone
		feedFrames(t, st, "s", frames[12:])
		if _, _, err := st.AggregateWithBound("s", 0, 0, 2*m, AggSum); !errors.Is(err, segstore.ErrPurged) {
			t.Fatalf("live aligned aggregate below the watermark = %v, want ErrPurged", err)
		}
		if graceful {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
		}

		st2, store2 := newArchivedStation(t, cfg, dir, 4, 4)
		rec, err := st2.Recover()
		if err != nil {
			t.Fatalf("graceful=%v: %v", graceful, err)
		}
		if want := map[bool]int{false: 4, true: 0}[graceful]; rec.Replayed != want {
			t.Errorf("graceful=%v: replayed %d frames, want %d", graceful, rec.Replayed, want)
		}
		total := len(frames) * m
		for _, r := range [][2]int{{0, 2 * m}, {m + 3, total}, {purged*m - 1, total}} {
			if _, _, err := st2.AggregateWithBound("s", 0, r[0], r[1], AggSum); !errors.Is(err, segstore.ErrPurged) {
				t.Errorf("graceful=%v: aggregate %v = %v, want ErrPurged", graceful, r, err)
			}
		}
		if _, err := st2.At("s", 0, m); !errors.Is(err, segstore.ErrPurged) {
			t.Errorf("graceful=%v: point below the watermark = %v, want ErrPurged", graceful, err)
		}
		for _, kind := range []AggregateKind{AggAvg, AggSum, AggMin, AggMax} {
			for _, r := range [][2]int{{purged * m, total}, {purged*m + 5, total - 7}, {total - 3*m, total}} {
				gv, gb, gerr := st2.AggregateWithBound("s", 0, r[0], r[1], kind)
				wv, wb, werr := ref.AggregateWithBound("s", 0, r[0], r[1], kind)
				if gerr != nil || werr != nil || gv != wv || gb != wb {
					t.Fatalf("graceful=%v: aggregate kind %d %v = (%v,%v,%v), want (%v,%v,%v)",
						graceful, kind, r, gv, gb, gerr, wv, wb, werr)
				}
			}
		}
		gw, gerr := st2.ReadWindow("s", 0, purged*m, total, nil)
		ww, werr := ref.ReadWindow("s", 0, purged*m, total, nil)
		if gerr != nil || werr != nil || gw.Bound != ww.Bound || len(gw.Values) != len(ww.Values) {
			t.Fatalf("graceful=%v: ReadWindow = (%v,%v), want (%v,%v)", graceful, gw.Bound, gerr, ww.Bound, werr)
		}
		for i := range ww.Values {
			if gw.Values[i] != ww.Values[i] {
				t.Fatalf("graceful=%v: ReadWindow[%d] = %v, want %v", graceful, i, gw.Values[i], ww.Values[i])
			}
		}
		gs, err := st2.SensorStats("s")
		if err != nil {
			t.Fatal(err)
		}
		ws, err := ref.SensorStats("s")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gs.BaseInserts, ws.BaseInserts[purged:]) {
			t.Errorf("graceful=%v: BaseInserts %v, want the retained chunks' %v", graceful, gs.BaseInserts, ws.BaseInserts[purged:])
		}
		store2.Close()
	}
}

// TestRecoverCheckpointInsideActiveSegment crashes one frame after a
// checkpoint taken inside the active segment: the roll sealed chunks 8 and
// 9 early and started a header-only file at 10, which the next frame went
// into. The restart resumes from that header, replays the one record, and
// must answer like an uncrashed reference.
func TestRecoverCheckpointInsideActiveSegment(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 12, 16)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "s", frames[:11])

	dir := t.TempDir()
	st, _ := newArchivedStation(t, cfg, dir, 3, 4)
	feedFrames(t, st, "s", frames[:10]) // chunks 8 and 9 sit in the active segment
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feedFrames(t, st, "s", frames[10:11])
	// Crash: no Close, the active segment [8,11) stays unsealed.

	st2, store2 := newArchivedStation(t, cfg, dir, 3, 4)
	defer store2.Close()
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 1 {
		t.Errorf("recovery %+v, want a 1-frame tail", rec)
	}
	compareStations(t, st2, ref, "s")
	gs, _ := st2.SensorStats("s")
	ws, _ := ref.SensorStats("s")
	if !reflect.DeepEqual(gs.BaseInserts, ws.BaseInserts) {
		t.Errorf("BaseInserts %v, want %v", gs.BaseInserts, ws.BaseInserts)
	}
	feedFrames(t, st2, "s", frames[11:])
	feedFrames(t, ref, "s", frames[11:])
	compareStations(t, st2, ref, "s")
}

// degradeSensor runs an archived station in dir that has taken frames[:8]
// of "good" and frames[:4] of "bad", then puts a directory where "bad"'s
// next segment file belongs, so the append of its next chunk fails. It
// returns the station, its store and the obstacle's path.
func degradeSensor(t *testing.T, cfg core.Config, dir string, frames [][]byte) (*Station, *segstore.Store, string) {
	t.Helper()
	st, store := newArchivedStation(t, cfg, dir, 2, 4)
	feedFrames(t, st, "good", frames[:8])
	feedFrames(t, st, "bad", frames[:4])
	obstacle := filepath.Join(dir, "segments", "bad", "000000000004.seg")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	return st, store, obstacle
}

// checkRefused asserts that every frame is refused with an error, neither
// acknowledged nor re-acknowledged as a duplicate.
func checkRefused(t *testing.T, st *Station, id string, frames ...[]byte) {
	t.Helper()
	for i, frame := range frames {
		if err := st.ReceiveFrameFrom(id, 1, frame); err == nil || errors.Is(err, ErrDuplicate) {
			t.Fatalf("frame %d after the failed append: %v, want a refusal", i, err)
		}
	}
}

// TestArchiveDegradedMode fails one sensor's archive append with a
// directory where its next segment file belongs. That frame and every
// later frame of the sensor — a retransmission of one already acked
// included — are refused with an error, neither acknowledged nor
// re-acknowledged as duplicates, and the station reports the degraded
// sensor. The sensor's history stays what its archive holds, a checkpoint
// skips it, and another sensor keeps archiving and answers like a station
// that never failed.
func TestArchiveDegradedMode(t *testing.T) {
	cfg := restoreConfig()
	const m = 16
	frames := encodeTestFrames(t, cfg, 12, m)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "bad", frames[:4])
	feedFrames(t, ref, "good", frames)

	st, store, _ := degradeSensor(t, cfg, t.TempDir(), frames)
	defer store.Close()
	reg := obs.NewRegistry()
	st.Instrument(reg)
	checkRefused(t, st, "bad", frames[4], frames[5], frames[3], frames[6], frames[4])
	if !st.ArchiveDegraded() {
		t.Fatal("the failed append did not mark the archive degraded")
	}
	if v := reg.Values()["sbr_station_degraded_sensors"]; v != 1 {
		t.Errorf("sbr_station_degraded_sensors = %v, want 1", v)
	}
	if n, err := st.HistoryLen("bad"); err != nil || n != 4*m {
		t.Fatalf("HistoryLen = %d (%v), want the %d archived samples", n, err, 4*m)
	}
	feedFrames(t, st, "good", frames[8:])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkRefused(t, st, "bad", frames[4])
	compareStations(t, st, ref, "good")
	compareStations(t, st, ref, "bad")
}

// TestRecoverDegradedSensor stops a station while one sensor is degraded
// by a failed append and restarts it twice: first with the disk still
// failing, then mended. Each restart recovers the whole station: the
// healthy sensor answers like a station that never stopped, and the
// degraded one comes back healthy with every frame acked OK readable.
// While the disk still fails, its next frame is refused again; once the
// disk is mended, re-feeding the refused frames gives a history
// byte-identical to a station that never failed.
func TestRecoverDegradedSensor(t *testing.T) {
	cfg := restoreConfig()
	const m = 16
	frames := encodeTestFrames(t, cfg, 12, m)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedFrames(t, ref, "bad", frames[:8])
	feedFrames(t, ref, "good", frames)

	dir := t.TempDir()
	st, store, obstacle := degradeSensor(t, cfg, dir, frames)
	checkRefused(t, st, "bad", frames[4])
	for restart := 1; restart <= 2; restart++ {
		fed := 8 + 2*restart
		feedFrames(t, st, "good", frames[fed-2:fed])
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if restart == 2 {
			if err := os.Remove(obstacle); err != nil {
				t.Fatal(err)
			}
		}
		st, store = newArchivedStation(t, cfg, dir, 2, 4)
		if _, err := st.Recover(); err != nil {
			t.Fatalf("restart %d: Recover: %v", restart, err)
		}
		if st.ArchiveDegraded() {
			t.Errorf("restart %d: the restarted station is degraded", restart)
		}
		if n, err := st.HistoryLen("bad"); err != nil || n != 4*m {
			t.Fatalf("restart %d: HistoryLen = %d (%v), want %d", restart, n, err, 4*m)
		}
		good, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedFrames(t, good, "good", frames[:fed])
		compareStations(t, st, good, "good")
		if restart == 1 {
			checkRefused(t, st, "bad", frames[4])
		}
	}
	defer store.Close()
	feedFrames(t, st, "bad", frames[4:8])
	compareStations(t, st, ref, "bad")
	compareStations(t, st, ref, "good")
}
