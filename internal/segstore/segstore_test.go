package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/query"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

func testConfig() core.Config {
	return core.Config{TotalBand: 8, MBase: 8, Metric: metrics.SSE}
}

// makeFrames returns n deterministic wire frames for one sensor stream.
func makeFrames(t testing.TB, cfg core.Config, n, batchLen int) [][]byte {
	t.Helper()
	return makeFramesAt(t, cfg, n, batchLen, 0)
}

// makeFramesAt is makeFrames for a stream offset by level, so streams of
// different levels carry different values.
func makeFramesAt(t testing.TB, cfg core.Config, n, batchLen int, level float64) [][]byte {
	t.Helper()
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0, n)
	for b := 0; b < n; b++ {
		row := make(timeseries.Series, batchLen)
		for i := range row {
			row[i] = level + 2*math.Sin(float64(b*batchLen+i)/5)
		}
		tr, err := comp.Encode([]timeseries.Series{row})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// feedStore mirrors the station's archiving loop: decode each frame with a
// live replica, snapshot the pre-decode state, append. It returns the
// decoded rows and bounds per chunk — the reference for readback checks.
func feedStore(t testing.TB, s *Store, cfg core.Config, sensor string, frames [][]byte, from int) ([][]timeseries.Series, []float64) {
	t.Helper()
	dec, err := core.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var allRows [][]timeseries.Series
	var bounds []float64
	for i, frame := range frames {
		tr, err := wire.DecodeBytes(frame)
		if err != nil {
			t.Fatal(err)
		}
		pre := dec.State()
		rows, err := dec.Decode(tr)
		if err != nil {
			t.Fatal(err)
		}
		if i >= from {
			err = s.Append(sensor, i, rows, tr.ErrBound, tr.Ins(), frame,
				func() SensorState { return SensorState{Decoder: pre} })
			if err != nil {
				t.Fatalf("append chunk %d: %v", i, err)
			}
		}
		allRows = append(allRows, rows)
		bounds = append(bounds, tr.ErrBound)
	}
	return allRows, bounds
}

func sameRows(a, b []timeseries.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// chunkRows reads every one of n quantities of m samples of one archived
// chunk through ChunkRow.
func chunkRows(s *Store, sensor string, chunk, n, m int) ([]timeseries.Series, error) {
	rows := make([]timeseries.Series, n)
	for r := range rows {
		rows[r] = make(timeseries.Series, m)
		if err := s.ChunkRow(sensor, chunk, r, rows[r], nil); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// checkAll verifies every archived chunk from chunk from on reads back
// byte-identical to the live decode, and that its archived frame carries
// the chunk's bound.
func checkAll(t testing.TB, s *Store, sensor string, rows [][]timeseries.Series, bounds []float64, from int) {
	t.Helper()
	for c := from; c < len(rows); c++ {
		got, err := chunkRows(s, sensor, c, len(rows[c]), len(rows[c][0]))
		if err != nil {
			t.Fatalf("ChunkRow(%d): %v", c, err)
		}
		if !sameRows(got, rows[c]) {
			t.Fatalf("chunk %d read back differs from live decode", c)
		}
	}
	err := s.ReplayFrom(sensor, from, func(c int, frame []byte) error {
		tr, err := wire.DecodeBytes(frame)
		if err == nil && c < len(bounds) && tr.ErrBound != bounds[c] {
			err = fmt.Errorf("chunk %d bound %v, want %v", c, tr.ErrBound, bounds[c])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAppendSealReadback(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := makeFrames(t, cfg, 10, 16)
	rows, bounds := feedStore(t, s, cfg, "node", frames, 0)

	st := s.StoreStats()
	if st.SealedSegments != 2 || st.Segments != 3 {
		t.Errorf("stats %+v, want 2 sealed of 3 segments", st)
	}
	if st.Appends != 10 {
		t.Errorf("appends = %d, want 10", st.Appends)
	}
	oldest, next, err := s.Bounds("node")
	if err != nil || oldest != 0 || next != 10 {
		t.Errorf("Bounds = (%d,%d,%v), want (0,10,nil)", oldest, next, err)
	}
	checkAll(t, s, "node", rows, bounds, 0)

	// Out-of-order appends are rejected: the archive is strictly sequential.
	if err := s.Append("node", 12, rows[9], bounds[9], 0, frames[9], nil); err == nil {
		t.Error("out-of-order append accepted")
	}
}

func TestCloseSealsAndReopens(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := makeFrames(t, cfg, 7, 16)
	rows, bounds := feedStore(t, s, cfg, "node", frames[:6], 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	st := again.StoreStats()
	if st.SealedSegments != 2 || st.Segments != 2 {
		t.Errorf("reopened stats %+v, want 2 sealed segments (graceful close seals the active one)", st)
	}
	checkAll(t, again, "node", rows, bounds, 0)

	// The stream continues where it stopped.
	dec, err := core.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pre core.DecoderState
	var lastRows []timeseries.Series
	var lastBound float64
	var lastIns int
	for i, frame := range frames {
		tr, _ := wire.DecodeBytes(frame)
		pre = dec.State()
		r, err := dec.Decode(tr)
		if err != nil {
			t.Fatal(err)
		}
		if i == 6 {
			lastRows, lastBound, lastIns = r, tr.ErrBound, tr.Ins()
		}
	}
	err = again.Append("node", 6, lastRows, lastBound, lastIns, frames[6],
		func() SensorState { return SensorState{Decoder: pre} })
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	got, err := chunkRows(again, "node", 6, len(lastRows), len(lastRows[0]))
	if err != nil || !sameRows(got, lastRows) {
		t.Fatalf("chunk 6 after reopen: %v", err)
	}
}

func TestReplayFrom(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := makeFrames(t, cfg, 8, 16)
	feedStore(t, s, cfg, "node", frames, 0)

	for _, from := range []int{0, 2, 5, 7, 8} {
		var got [][]byte
		err := s.ReplayFrom("node", from, func(chunk int, frame []byte) error {
			if chunk != from+len(got) {
				t.Fatalf("replay from %d yielded chunk %d at position %d", from, chunk, len(got))
			}
			got = append(got, frame)
			return nil
		})
		if err != nil {
			t.Fatalf("ReplayFrom(%d): %v", from, err)
		}
		if len(got) != len(frames)-from {
			t.Fatalf("ReplayFrom(%d) yielded %d frames, want %d", from, len(got), len(frames)-from)
		}
		for i, frame := range got {
			if string(frame) != string(frames[from+i]) {
				t.Fatalf("replayed frame %d differs from the archived original", from+i)
			}
		}
	}
}

// rollState is the state a sensor fed frames through feedStore stands in
// after its last chunk, with receive bookkeeping that tells restarts apart.
func rollState(t testing.TB, cfg core.Config, frames [][]byte) SensorState {
	t.Helper()
	dec, err := core.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		tr, err := wire.DecodeBytes(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(tr); err != nil {
			t.Fatal(err)
		}
	}
	n := len(frames)
	return SensorState{Decoder: dec.State(), Frames: n, Bytes: 100 * n, Values: 7 * n, Restarts: 1,
		NextSeq: n, SrcNonce: 0xfeed, ZeroSum: 0xbeef}
}

// TestRollRestartPointRoundtrip: Roll seals the active segment and starts
// a file with only a header, holding the state it was given; a second Roll
// and Close leave that file as it is, and a restart hands the state back
// as the sensor's restart point, with the facts of every chunk before it.
// The next append lands in the header-only file.
func TestRollRestartPointRoundtrip(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := makeFrames(t, cfg, 7, 16)
	rows, bounds := feedStore(t, s, cfg, "node", frames[:6], 0)
	state := rollState(t, cfg, frames[:6])
	if err := s.Roll("node", 1, 16, state); err != nil {
		t.Fatal(err)
	}
	headerOnly := filepath.Join(dir, "segments", "node", segName(6))
	before := snapshotDir(t, dir)
	if len(before) != 3 || before[headerOnly] == "" {
		t.Fatalf("files after Roll: %d, want [0,4), [4,6) sealed and a header at 6", len(before))
	}
	if st := s.StoreStats(); st.SealedSegments != 2 || st.Segments != 3 {
		t.Errorf("stats %+v after Roll, want 2 sealed of 3 segments", st)
	}
	if err := s.Roll("node", 1, 16, rollState(t, cfg, frames[:5])); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a second Roll or Close changed the files")
	}
	if err := s.Roll("node", 1, 16, state); err == nil {
		t.Error("Roll on a closed store succeeded")
	}

	again, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	sr := again.TakeRecovery().Sensors["node"]
	if sr == nil || sr.First != 0 || sr.Start() != 6 || sr.N != 1 || sr.M != 16 || !reflect.DeepEqual(sr.State, state) {
		t.Fatalf("restart point %+v, want chunks [0,6) of 1x16 before the rolled state", sr)
	}
	for c := range sr.Bounds {
		if leaf := query.Summarize(rows[c][0], bounds[c]); sr.Bounds[c] != bounds[c] || sr.Leaves[0][c] != leaf {
			t.Fatalf("chunk %d: bound %v leaf %+v, want %v %+v", c, sr.Bounds[c], sr.Leaves[0][c], bounds[c], leaf)
		}
	}
	if err := again.Roll("ghost", 1, 16, state); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("Roll of an unknown sensor = %v, want ErrUnknownSensor", err)
	}
	all, allBounds := feedStore(t, again, cfg, "node", frames, 6)
	if st := again.StoreStats(); st.Segments != 3 {
		t.Errorf("%d segments after the next append, want it in the header-only file", st.Segments)
	}
	checkAll(t, again, "node", all, allBounds, 0)
}

func TestRetentionByBytes(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2,
		Retention: Retention{MaxBytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := makeFrames(t, cfg, 8, 16)
	rows, bounds := feedStore(t, s, cfg, "node", frames, 0)

	// Four sealed segments and no active one: every file but the newest,
	// the sensor's restart point, is over the budget.
	removed, err := s.EnforceRetention(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 { // chunks 0-1, 2-3, 4-5
		t.Fatalf("retention removed %d segments, want 3", removed)
	}
	if removed, err := s.EnforceRetention(time.Now()); err != nil || removed != 0 {
		t.Fatalf("second pass removed %d (%v), want the newest file kept", removed, err)
	}
	oldest, next, err := s.Bounds("node")
	if err != nil || oldest != 6 || next != 8 {
		t.Errorf("Bounds after retention = (%d,%d,%v), want (6,8,nil)", oldest, next, err)
	}
	if err := s.ChunkRow("node", 3, 0, make(timeseries.Series, 16), nil); !errors.Is(err, ErrPurged) {
		t.Errorf("purged chunk read = %v, want ErrPurged", err)
	}
	checkAll(t, s, "node", rows, bounds, 6)
	if st := s.StoreStats(); st.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", st.Compactions)
	}

	// The purge watermark survives a restart.
	s.Close()
	again, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if err := again.ChunkRow("node", 0, 0, make(timeseries.Series, 16), nil); !errors.Is(err, ErrPurged) {
		t.Errorf("purged chunk after reopen = %v, want ErrPurged", err)
	}
	checkAll(t, again, "node", rows, bounds, 6)
}

func TestRetentionByAge(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2,
		Retention: Retention{MaxAge: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frames := makeFrames(t, cfg, 4, 16)
	feedStore(t, s, cfg, "node", frames, 0)

	// Now: nothing is older than an hour.
	removed, err := s.EnforceRetention(time.Now())
	if err != nil || removed != 0 {
		t.Fatalf("fresh segments removed: %d (%v)", removed, err)
	}
	// Two hours in the future every sealed segment has expired, but the
	// newest is the sensor's restart point and stays.
	removed, err = s.EnforceRetention(time.Now().Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("retention removed %d segments, want 1", removed)
	}
	// Once a roll has started a newer file, it expires too.
	if err := s.Roll("node", 1, 16, rollState(t, cfg, frames)); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.EnforceRetention(time.Now().Add(2 * time.Hour)); err != nil || removed != 1 {
		t.Errorf("retention after the roll removed %d segments (%v), want 1", removed, err)
	}
}

// TestRetentionKeepsWatermarkOfEmptySensor stages TestRetentionByAge —
// retention drops every sealed segment of a quiet sensor rolled to a
// header-only file — then reopens. The sensor resumes at that file, where
// retention stopped: chunks below it are purged, its restart point holds
// no chunk's facts, and the next chunk is accepted.
func TestRetentionKeepsWatermarkOfEmptySensor(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2,
		Retention: Retention{MaxAge: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	frames := makeFrames(t, cfg, 5, 16)
	feedStore(t, s, cfg, "node", frames[:4], 0)
	if err := s.Roll("node", 1, 16, rollState(t, cfg, frames[:4])); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.EnforceRetention(time.Now().Add(2 * time.Hour)); err != nil || removed != 2 {
		t.Fatalf("retention removed %d segments (%v), want 2", removed, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if oldest, next, err := again.Bounds("node"); err != nil || oldest != 4 || next != 4 {
		t.Fatalf("Bounds after reopen = (%d,%d,%v), want (4,4,nil)", oldest, next, err)
	}
	if sr := again.TakeRecovery().Sensors["node"]; sr == nil || sr.First != 4 || sr.Start() != 4 {
		t.Fatalf("restart point %+v, want no chunk's facts before chunk 4", sr)
	}
	if err := again.ChunkRow("node", 0, 0, make(timeseries.Series, 16), nil); !errors.Is(err, ErrPurged) {
		t.Errorf("purged chunk after reopen = %v, want ErrPurged", err)
	}
	feedStore(t, again, cfg, "node", frames, 4)
}

// TestSensorDirectoriesAreInjective archives sensors whose IDs collide
// under separator sanitising ("a/b" and "a_b") or name special
// directories ("." and ".."), then restarts after a crash and after
// Close: every chunk of every sensor reads back its own values.
func TestSensorDirectoriesAreInjective(t *testing.T) {
	cfg := testConfig()
	ids := []string{"a/b", "a_b", ".", "..", "node"}
	for _, graceful := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[string][][]timeseries.Series)
		bounds := make(map[string][]float64)
		for i, id := range ids {
			rows[id], bounds[id] = feedStore(t, s, cfg, id, makeFramesAt(t, cfg, 10, 16, float64(10*i)), 0)
		}
		if graceful {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
		if err != nil {
			t.Fatalf("graceful=%v: reopen: %v", graceful, err)
		}
		if got := re.Sensors(); len(got) != len(ids) {
			t.Errorf("graceful=%v: sensors %q, want %q", graceful, got, ids)
		}
		for _, id := range ids {
			if _, next, err := re.Bounds(id); err != nil || next != 10 {
				t.Fatalf("graceful=%v: sensor %q next chunk %d (%v), want 10", graceful, id, next, err)
			}
			checkAll(t, re, id, rows[id], bounds[id], 0)
		}
		re.Close()
	}
}

// TestDirNameRoundTrip: dirName leaves plain IDs alone, escapes the rest
// into a name that is neither "." nor ".." and holds no separator, and
// sensorID inverts it, refusing every name dirName never yields.
func TestDirNameRoundTrip(t *testing.T) {
	for id, want := range map[string]string{
		"node": "node", "fleet-07": "fleet-07", "x.y_z": "x.y_z",
		"a/b": "a%2Fb", "a_b": "a_b", "a%b": "a%25b", ".": "%2E", "..": "%2E.",
		`c:\d`: "c%3A%5Cd", "ü": "%C3%BC",
	} {
		if got := dirName(id); got != want {
			t.Errorf("dirName(%q) = %q, want %q", id, got, want)
		}
		if back, ok := sensorID(want); !ok || back != id {
			t.Errorf("sensorID(%q) = %q, %v, want %q", want, back, ok, id)
		}
	}
	for _, name := range []string{"", ".hidden", "%2e", "%41", "a%2", "a%zz", "a b"} {
		if id, ok := sensorID(name); ok {
			t.Errorf("sensorID(%q) = %q, accepted a name dirName never yields", name, id)
		}
	}
}

// TestOpenRemovesLegacyManifest: the index file earlier versions kept is
// deleted at Open, and the segments beside it open as if it never existed.
func TestOpenRemovesLegacyManifest(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows, bounds := feedStore(t, s, cfg, "node", makeFrames(t, cfg, 6, 16), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{legacyManifest, legacyManifest + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"version":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	again, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for _, name := range []string{legacyManifest, legacyManifest + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s still present after Open (%v)", name, err)
		}
	}
	checkAll(t, again, "node", rows, bounds, 0)
}

// TestDamagedFooter corrupts a sealed segment's footer, then its trailer,
// behind an open store: cold reads never need either, so every chunk
// still reads back, and the next Open rebuilds the lost facts from the
// segment's records, into the same columns.
func TestDamagedFooter(t *testing.T) {
	cfg := testConfig()
	for _, damage := range []struct {
		name string
		at   func(footerAt, size int) int
	}{
		{"footer", func(footerAt, _ int) int { return footerAt + 8 + footerHeadLen }}, // the first entry's time
		{"trailer", func(_, size int) int { return size - 1 }},                        // the trailer magic
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
			if err != nil {
				t.Fatal(err)
			}
			frames := makeFrames(t, cfg, 8, 16)
			rows, bounds := feedStore(t, s, cfg, "node", frames, 0)
			n, m := len(rows[0]), len(rows[0][0])
			if err := s.Roll("node", n, m, rollState(t, cfg, frames)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := s.TakeRecovery().Sensors["node"]
			if want.First != 0 || len(want.Bounds) != 8 || len(want.Leaves) != n {
				t.Fatalf("recovered facts for chunks [%d,+%d) in %d rows, want [0,+8) in %d",
					want.First, len(want.Bounds), len(want.Leaves), n)
			}
			for c := range want.Bounds {
				if want.Bounds[c] != bounds[c] {
					t.Fatalf("chunk %d bound %v, the live decode %v", c, want.Bounds[c], bounds[c])
				}
				for row := range rows[c] {
					if leaf := query.Summarize(rows[c][row], bounds[c]); want.Leaves[row][c] != leaf {
						t.Fatalf("chunk %d row %d leaf %+v differs from the live decode's %+v", c, row, want.Leaves[row][c], leaf)
					}
				}
			}

			path := filepath.Join(dir, "segments", "node", "000000000000"+segExt)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			footerAt := int(le.Uint64(data[len(data)-trailerLen:]))
			data[damage.at(footerAt, len(data))] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			checkAll(t, s, "node", rows, bounds, 0)

			again, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
			if err != nil {
				t.Fatalf("reopen with a damaged %s: %v", damage.name, err)
			}
			defer again.Close()
			if got := again.TakeRecovery().Sensors["node"]; !reflect.DeepEqual(got, want) {
				t.Errorf("facts rebuilt from the records differ from the footers'")
			}
			checkAll(t, again, "node", rows, bounds, 0)
		})
	}
}

// TestOpenDeletesOnlyTornFirstWrites: Open deletes a segment that does not
// scan only when it is too short to hold the magic and a whole header
// block — all that a crash inside a segment's first write can leave, and
// nothing acknowledged. A whole file that does not scan may hold
// acknowledged records: a segment of the earlier SBRSEG1 format, or one
// whose header is damaged, fails Open with an error naming it and stays as
// it was; a checkpoint of the earlier JSON format fails Open too.
func TestOpenDeletesOnlyTornFirstWrites(t *testing.T) {
	cfg := testConfig()
	s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	feedStore(t, s, cfg, "node", makeFrames(t, cfg, 2, 16), 0)
	path := activeSegPath(t, s.dir, "node")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	scan, err := scanSegment(full, 0)
	if err != nil || len(scan.Recs) != 2 {
		t.Fatalf("staging scan: %d recs, %v", len(scan.Recs), err)
	}
	headerEnd := int(scan.Recs[0].Offset)

	// stage writes data as the sensor's only segment in a fresh directory.
	stage := func(data []byte) (dir, seg string) {
		dir = t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "segments", "node"), 0o755); err != nil {
			t.Fatal(err)
		}
		seg = filepath.Join(dir, "segments", "node", filepath.Base(path))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, seg
	}

	for cut := 0; cut < headerEnd; cut++ {
		dir, seg := stage(full[:cut])
		re, err := Open(Options{Dir: dir, Config: cfg})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := os.Stat(seg); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("cut %d: torn first write kept (%v)", cut, err)
		}
		if ids := re.Sensors(); len(ids) != 0 {
			t.Fatalf("cut %d: sensors %v after a torn first write", cut, ids)
		}
		re.Close()
	}

	old := append([]byte("SBRSEG1\x00"), full[len(segMagic):]...)
	damaged := append([]byte(nil), full...)
	damaged[headerEnd-1] ^= 0xff // inside the header block's payload
	for name, data := range map[string][]byte{"old format": old, "damaged header": damaged} {
		dir, seg := stage(data)
		_, err := Open(Options{Dir: dir, Config: cfg})
		if err == nil || !strings.Contains(err.Error(), filepath.Base(seg)) {
			t.Errorf("%s: Open = %v, want an error naming %s", name, err, filepath.Base(seg))
		}
		if name == "old format" && !errors.Is(err, errOldFormat) {
			t.Errorf("%s: Open = %v, want errOldFormat", name, err)
		}
		if got, rerr := os.ReadFile(seg); rerr != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: Open changed or removed the segment (%v)", name, rerr)
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-0000000000000001.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Config: cfg}); !errors.Is(err, errOldFormat) {
		t.Errorf("JSON checkpoint: Open = %v, want errOldFormat", err)
	}
}

// TestFooterColumnsMatchReference decodes a footer's entries into a
// sensor's columns, as Open does, and checks every column against the
// field-by-field reference decode: columns spanning the whole file,
// columns that end inside it where the newest file starts, entries the
// next file's first chunk cuts short, and a footer whose quantities differ
// from the newest file's header, which fails. Each leaf row ends at its own length, so
// the station appending to one row cannot write into the next.
func TestFooterColumnsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, m, first, count = 3, 16, 40, 10
	facts := make([]ChunkFacts, count)
	for i := range facts {
		facts[i] = ChunkFacts{Unix: 1.7e9 + rng.Int63n(1000), Bound: rng.Float64(), Inserts: rng.Intn(5)}
		for j := 0; j < n; j++ {
			facts[i].Rows = append(facts[i].Rows, RowSummary{Sum: rng.NormFloat64(), Min: -rng.Float64(), Max: rng.Float64()})
		}
	}
	block := encodeFooterBlock(first, n, facts, 0)
	payload := block[8 : len(block)-trailerLen]
	_, ref, err := decodeFooter(payload)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, entries, err := footerHead(payload)
	if err != nil {
		t.Fatal(err)
	}
	var newest int64
	for _, f := range ref {
		newest = max(newest, f.Unix)
	}
	for _, tc := range []struct{ colFirst, newest, stop int }{
		{first, first + count, -1},     // the whole file
		{0, first + count + 5, -1},     // older and newer files around it
		{first, first + 6, -1},         // the columns end inside the file
		{first - 4, first + count, 46}, // the next file starts at chunk 46
	} {
		sf := newSensorRecovery(tc.colFirst, segHeader{FirstChunk: tc.newest, N: n, M: m})
		got, err := sf.putEntries(first, tc.stop, n, entries)
		if err != nil || got != newest {
			t.Fatalf("%+v: newest %d (%v), want %d", tc, got, err, newest)
		}
		for row, leaves := range sf.Leaves {
			if len(leaves) != len(sf.Bounds) || cap(leaves) != len(leaves) {
				t.Fatalf("%+v: leaf row %d has length %d and capacity %d for %d chunks", tc, row, len(leaves), cap(leaves), len(sf.Bounds))
			}
		}
		for j := range sf.Bounds {
			c := tc.colFirst + j
			var want ChunkFacts
			if c >= first && c < first+count && (tc.stop < 0 || c < tc.stop) {
				want = ref[c-first]
			}
			if sf.Bounds[j] != want.Bound || sf.Inserts[j] != want.Inserts {
				t.Fatalf("%+v: chunk %d bound %v inserts %d, want %v %d", tc, c, sf.Bounds[j], sf.Inserts[j], want.Bound, want.Inserts)
			}
			for row, leaves := range sf.Leaves {
				var leaf query.Summary
				if want.Rows != nil {
					rs := want.Rows[row]
					leaf = query.Leaf(m, rs.Sum, rs.Min, rs.Max, want.Bound)
				}
				if leaves[j] != leaf {
					t.Fatalf("%+v: chunk %d row %d leaf %+v, want %+v", tc, c, row, leaves[j], leaf)
				}
			}
		}
	}
	sf := newSensorRecovery(first, segHeader{FirstChunk: first + count, N: n + 1, M: m})
	if _, err := sf.putEntries(first, -1, n, entries); err == nil {
		t.Fatal("a footer of 3 quantities decoded into columns for 4")
	}
}

// TestCloseSealsEveryOpenSegment closes the active file of 15 of 16
// sensors underneath the store: Close fails their seals, names each of
// them, and still seals the healthy sensor's segment, whatever its place
// in the map's order.
func TestCloseSealsEveryOpenSegment(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	frames := makeFrames(t, cfg, 2, 16)
	var broken []string
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("node-%02d", i)
		feedStore(t, s, cfg, id, frames, 0)
		if i != 9 {
			s.sensors[id].active.f.Close()
			broken = append(broken, id)
		}
	}
	err = s.Close()
	if err == nil {
		t.Fatal("Close with 15 failing seals succeeded")
	}
	for _, id := range broken {
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", id)) {
			t.Errorf("Close error does not name %s: %v", id, err)
		}
	}
	data, rerr := os.ReadFile(filepath.Join(dir, "segments", "node-09", segName(0)))
	if rerr != nil || !bytes.HasSuffix(data, trailerMagic[:]) {
		t.Fatalf("the healthy sensor's segment does not end in a trailer (%v)", rerr)
	}
}

// TestOpenRefusesEarlierDataDirs stages a data directory as earlier
// versions left it — SBRSEG2 segments, and a binary station checkpoint
// beside them — and opens it: Open fails naming the checkpoint, then,
// with the checkpoint gone, naming a segment, and leaves every file as it
// was.
func TestOpenRefusesEarlierDataDirs(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		feedStore(t, s, cfg, id, makeFrames(t, cfg, 6, 16), 0)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "segments", "*", "*"+segExt))
	if err != nil || len(files) != 4 {
		t.Fatalf("segments %v (%v), want 4", files, err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "SBRSEG2\x00")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := filepath.Join(dir, "ckpt-0000000000000007.bin")
	if err := os.WriteFile(ckpt, []byte("SBRCKP1\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)
	for _, want := range []string{filepath.Base(ckpt), filepath.Join("a", segName(4))} {
		_, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 4})
		if !errors.Is(err, errOldFormat) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open = %v, want errOldFormat naming %s", err, want)
		}
		if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatal("the refused Open changed the directory")
		}
		if err := os.Remove(ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		delete(before, ckpt)
	}
}
