package segstore

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbr/internal/timeseries"
)

// The chaos suite simulates kill -9 at the storage layer: a crash leaves
// the data directory in whatever state the kernel had durably written, so
// each scenario is staged by mutating a real store's files the way a torn
// power-off would — truncated appends, a torn footer, a retention pass
// cut short between unlinks — and recovery must yield byte-identical
// chunk reads for everything that had been acknowledged durable.

// activeSegPath returns the one segment file of the sensor that recovery
// would treat as active (the store under test keeps everything in one
// unsealed segment).
func activeSegPath(t testing.TB, dir, sensor string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "segments", sensor, "*"+segExt))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files for %s: %v", sensor, err)
	}
	return matches[len(matches)-1]
}

// TestChaosSegstoreTornAppendSweep crashes the writer at every byte offset
// inside the record region of an unsealed segment: reopening must recover
// exactly the records whose final byte made it to disk, serve them
// byte-identically, and accept the next append at the recovered position.
func TestChaosSegstoreTornAppendSweep(t *testing.T) {
	cfg := testConfig()
	base := t.TempDir()
	s, err := Open(Options{Dir: base, Config: cfg, SegmentChunks: 100})
	if err != nil {
		t.Fatal(err)
	}
	frames := makeFrames(t, cfg, 6, 16)
	rows, bounds := feedStore(t, s, cfg, "node", frames, 0)
	// Abandon s without Close: the crash. Per-append fsync means the file
	// content is exactly what a real kill -9 would leave at full length.
	path := activeSegPath(t, base, "node")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, rediscovered by a clean scan.
	scan, err := scanSegment(full, 0)
	if err != nil || len(scan.Recs) != 6 {
		t.Fatalf("staging scan: %d recs, %v", len(scan.Recs), err)
	}

	step := 97 // prime stride keeps the sweep dense but affordable
	for cut := int(scan.Recs[0].Offset); cut < len(full); cut += step {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "segments", "node"), 0o755); err != nil {
			t.Fatal(err)
		}
		err := os.WriteFile(filepath.Join(dir, "segments", "node", filepath.Base(path)),
			full[:cut], 0o644)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		// Exactly the whole records before the cut survive.
		want := 0
		for _, r := range scan.Recs[1:] {
			if int(r.Offset) <= cut {
				want++
			}
		}
		if int64(cut) >= scan.Good {
			want = len(scan.Recs)
		}
		_, next, err := re.Bounds("node")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if next != want {
			t.Fatalf("cut %d recovered %d records, want %d", cut, next, want)
		}
		checkAll(t, re, "node", rows[:want], bounds[:want], 0)
		re.Close()
	}
}

// TestChaosSegstoreCrashMidSeal covers the seal's crash windows: (a) the
// append that filled the segment wrote its footer and trailer and fsynced
// them, then the process died — reopening must find the segment sealed;
// (b) the footer itself is torn — the segment must come back as active
// with all records intact.
func TestChaosSegstoreCrashMidSeal(t *testing.T) {
	cfg := testConfig()
	stage := func(t *testing.T) (dir string, rows [][]timeseries.Series, bounds []float64) {
		t.Helper()
		dir = t.TempDir()
		s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 5})
		if err != nil {
			t.Fatal(err)
		}
		// The fifth append seals the segment; s is then abandoned: the crash.
		rows, bounds = feedStore(t, s, cfg, "node", makeFrames(t, cfg, 5, 16), 0)
		return dir, rows, bounds
	}

	t.Run("footer-durable", func(t *testing.T) {
		dir, rows, bounds := stage(t)
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if st := re.StoreStats(); st.SealedSegments != 1 || st.Segments != 1 {
			t.Errorf("durable seal not sealed at reopen: %+v", st)
		}
		checkAll(t, re, "node", rows, bounds, 0)
	})

	t.Run("footer-torn", func(t *testing.T) {
		dir, rows, bounds := stage(t)
		path := activeSegPath(t, dir, "node")
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the footer: the trailer is 12 bytes, the footer block
		// larger, so dropping 20 bytes always tears the footer, never a record.
		if err := os.WriteFile(path, full[:len(full)-20], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		st := re.StoreStats()
		if st.SealedSegments != 0 || st.Segments != 1 {
			t.Errorf("torn footer: stats %+v, want 1 active segment", st)
		}
		_, next, err := re.Bounds("node")
		if err != nil || next != len(rows) {
			t.Fatalf("torn footer lost records: next %d (%v), want %d", next, err, len(rows))
		}
		checkAll(t, re, "node", rows, bounds, 0)
	})
}

// stageRetention archives 8 chunks in 4 sealed segments of 2, so a
// byte-budget retention pass has 3 victims — every file but the newest —
// and closes the store. It returns the rows and bounds written
// and the segment files, oldest first.
func stageRetention(t *testing.T, dir string) ([][]timeseries.Series, []float64, []string) {
	t.Helper()
	cfg := testConfig()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, bounds := feedStore(t, s, cfg, "node", makeFrames(t, cfg, 8, 16), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "segments", "node", "*"+segExt))
	if err != nil || len(files) != 4 {
		t.Fatalf("staged segments %v (%v), want 4", files, err)
	}
	return rows, bounds, files
}

// TestChaosSegstoreCrashMidRetention crashes a 3-victim retention pass at
// every point it can stop: after 0, 1, 2 and 3 unlinks. The pass unlinks
// oldest first, each unlink durable before the next, so each point leaves
// a tiling suffix of the files. Reopening must start the archive at the
// oldest survivor, answer ErrPurged below it, read every survivor back
// byte-identically, and let the next pass drop the victims left over.
func TestChaosSegstoreCrashMidRetention(t *testing.T) {
	cfg := testConfig()
	for unlinked := 0; unlinked <= 3; unlinked++ {
		dir := t.TempDir()
		rows, bounds, files := stageRetention(t, dir)
		for _, f := range files[:unlinked] {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2,
			Retention: Retention{MaxBytes: 1}})
		if err != nil {
			t.Fatalf("%d unlinked: reopen: %v", unlinked, err)
		}
		oldest, next, err := re.Bounds("node")
		if err != nil || oldest != 2*unlinked || next != 8 {
			t.Fatalf("%d unlinked: Bounds = (%d,%d,%v), want (%d,8,nil)", unlinked, oldest, next, err, 2*unlinked)
		}
		if unlinked > 0 {
			if err := re.ChunkRow("node", 0, 0, make(timeseries.Series, 16), nil); !errors.Is(err, ErrPurged) {
				t.Errorf("%d unlinked: purged chunk read = %v, want ErrPurged", unlinked, err)
			}
		}
		checkAll(t, re, "node", rows, bounds, 2*unlinked)

		removed, err := re.EnforceRetention(time.Now())
		if err != nil || removed != 3-unlinked {
			t.Fatalf("%d unlinked: next pass removed %d (%v), want %d", unlinked, removed, err, 3-unlinked)
		}
		if oldest, _, _ := re.Bounds("node"); oldest != 6 {
			t.Errorf("%d unlinked: watermark %d after the next pass, want 6", unlinked, oldest)
		}
		if err := re.ChunkRow("node", 5, 0, make(timeseries.Series, 16), nil); !errors.Is(err, ErrPurged) {
			t.Errorf("%d unlinked: purged chunk read = %v, want ErrPurged", unlinked, err)
		}
		checkAll(t, re, "node", rows, bounds, 6)
		re.Close()
	}
}

// TestChaosSegstoreGapRefused: a file missing from the middle of a
// sensor's segments is damage, never a crash window, so Open fails with an
// error naming the file after the gap — and changes nothing on disk, not
// even the torn tail of the active segment it would otherwise cut.
func TestChaosSegstoreGapRefused(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Three sealed segments and an active one of one record; s is then
	// abandoned, and the crash tore the next append.
	feedStore(t, s, cfg, "node", makeFrames(t, cfg, 7, 16), 0)
	files, err := filepath.Glob(filepath.Join(dir, "segments", "node", "*"+segExt))
	if err != nil || len(files) != 4 {
		t.Fatalf("staged segments %v (%v), want 4", files, err)
	}
	f, err := os.OpenFile(files[3], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)

	_, err = Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(files[2])) {
		t.Fatalf("Open with a gap = %v, want an error naming %s", err, filepath.Base(files[2]))
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("Open with a gap changed the directory")
	}
}

// snapshotDir maps every regular file under dir to its contents.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
