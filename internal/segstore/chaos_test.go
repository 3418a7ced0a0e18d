package segstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sbr/internal/timeseries"
)

// The chaos suite simulates kill -9 at the storage layer: a crash leaves
// the data directory in whatever state the kernel had durably written, so
// each scenario is staged by mutating a real store's files the way a torn
// power-off would — truncated appends, a footer without a manifest entry,
// a manifest that forgot a file that still exists — and recovery must
// yield byte-identical chunk reads for everything that had been
// acknowledged durable.

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
	f, _ := os.Open(path)
	scan, err := scanSegment(f, int64(len(full)))
	f.Close()
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

// TestChaosSegstoreCrashMidSeal covers the two halves of a seal that can
// be torn apart: (a) the footer landed but the manifest rename did not —
// reopening must finish the seal; (b) the footer itself is torn — the
// segment must come back as active with all records intact.
func TestChaosSegstoreCrashMidSeal(t *testing.T) {
	cfg := testConfig()
	stage := func(t *testing.T) (dir string, rows [][]timeseries.Series, bounds []float64) {
		t.Helper()
		dir = t.TempDir()
		s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
		if err != nil {
			t.Fatal(err)
		}
		frames := makeFrames(t, cfg, 5, 16)
		rows, bounds = feedStore(t, s, cfg, "node", frames, 0)
		if err := s.Close(); err != nil { // seals + writes manifest
			t.Fatal(err)
		}
		return dir, rows, bounds
	}

	t.Run("footer-durable-manifest-lost", func(t *testing.T) {
		dir, rows, bounds := stage(t)
		// Roll the manifest back to the pre-seal state: sealed on disk,
		// unknown to the index — exactly a crash between fsync and rename.
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if st := re.StoreStats(); st.SealedSegments != 1 {
			t.Errorf("seal not finished at reopen: %+v", st)
		}
		// The reconstructed manifest is durable again.
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
			t.Errorf("manifest not rewritten: %v", err)
		}
		checkAll(t, re, "node", rows, bounds, 0)
	})

	t.Run("footer-torn", func(t *testing.T) {
		dir, rows, bounds := stage(t)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
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
		re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
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

// TestChaosSegstoreCrashMidCompaction stages the compaction crash window:
// the manifest already forgot a purged segment but the file deletion never
// happened. Reopening must sweep the leftover and serve the surviving
// range; the purged range must answer ErrPurged.
func TestChaosSegstoreCrashMidCompaction(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	frames := makeFrames(t, cfg, 6, 16)
	rows, bounds := feedStore(t, s, cfg, "node", frames, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-edit the manifest the way EnforceRetention's crash window leaves
	// it: first sealed segment forgotten, watermark advanced, file still on
	// disk.
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	sm := m.Sensors["node"]
	leftover := sm.Segments[0].File
	sm.PurgedThrough = sm.Segments[0].LastChunk + 1
	sm.Segments = sm.Segments[1:]
	raw, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(leftover))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("compaction leftover %s not swept at reopen (stat: %v)", leftover, err)
	}
	if _, _, err := re.ChunkRow("node", 0, 0, nil); !errors.Is(err, ErrPurged) {
		t.Errorf("purged chunk read = %v, want ErrPurged", err)
	}
	checkAll(t, re, "node", rows, bounds, 2)
}
