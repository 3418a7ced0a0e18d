package segstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// openReadStore archives n chunks of 16 samples of one sensor into a
// fresh store and returns it with the reference rows and per-chunk bounds.
func openReadStore(t testing.TB, segChunks, n int) (*Store, [][]timeseries.Series, []float64) {
	t.Helper()
	cfg := testConfig()
	s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: segChunks, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rows, bounds := feedStore(t, s, cfg, "node", makeFrames(t, cfg, n, 16), 0)
	return s, rows, bounds
}

// TestChunkRangeRowsOrdered verifies the parallel range fan-out of
// ChunkRangeRow: a read spanning several sealed segments plus the active
// one lands every chunk in its place in the buffer, byte-identical to the
// live decode, for assorted sub-ranges and worker counts.
func TestChunkRangeRowsOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, rows, _ := openReadStore(t, 4, 18) // 4 sealed segments + active
			s.opts.FetchWorkers = workers
			for _, span := range [][2]int{{0, 18}, {3, 13}, {4, 8}, {7, 18}, {17, 18}, {5, 5}} {
				from, to := span[0], span[1]
				dst := make(timeseries.Series, (to-from)*16)
				if err := s.ChunkRangeRow("node", from, to, 0, dst, nil); err != nil {
					t.Fatalf("range [%d,%d): %v", from, to, err)
				}
				for c := from; c < to; c++ {
					got := dst[(c-from)*16 : (c-from+1)*16]
					if !sameRows([]timeseries.Series{got}, rows[c]) {
						t.Fatalf("range [%d,%d): chunk %d rows differ from live decode", from, to, c)
					}
				}
			}
		})
	}
}

// TestChunkRangeRowsRejectsMisfitBuffer: a buffer that does not hold a
// whole number of rows per chunk, or holds rows of another length than the
// archived chunks', fails the read without a write past the rows it was
// given.
func TestChunkRangeRowsRejectsMisfitBuffer(t *testing.T) {
	s, _, _ := openReadStore(t, 4, 12)
	for _, n := range []int{0, 1, 3*16 - 1, 3 * 15, 3 * 17} {
		buf := make(timeseries.Series, n+1)
		buf[n] = 7
		if err := s.ChunkRangeRow("node", 2, 5, 0, buf[:n], nil); err == nil {
			t.Errorf("%d samples of room for 3 chunks of 16: accepted", n)
		}
		if buf[n] != 7 {
			t.Errorf("%d samples of room: the read wrote past them", n)
		}
	}
	if err := s.ChunkRow("node", 2, 0, make(timeseries.Series, 16), nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentColdReads hammers the lock-free fetch path: many readers
// over the same segments, raced against nothing but each other, must all
// see the live decode byte-identically (run with -race in CI).
func TestConcurrentColdReads(t *testing.T) {
	s, rows, _ := openReadStore(t, 4, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := (g*7 + i*3) % 16
				got, err := chunkRows(s, "node", c, len(rows[c]), 16)
				if err != nil {
					t.Errorf("ChunkRow(%d): %v", c, err)
					return
				}
				if !sameRows(got, rows[c]) {
					t.Errorf("ChunkRow(%d) differs from live decode", c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestColdReadMatchesWholeSegmentDecode is the equivalence proof of the
// windowed cold reader. A three-quantity sensor whose replica takes a
// base-signal insert every chunk (evicting once its pool is full) reboots
// twice — mid-way through a sealed segment and inside the active one —
// across two sealed segments and an active one. Every row of every window
// [from, to), single chunks included, read through ChunkRangeRow and
// ChunkRow, must equal the whole-segment decode — itself equal to the
// live decode — bit for bit, and the counters must show the chunks before
// each window advanced, only the window's chunks decoded, and one load of
// every segment the window spans.
func TestColdReadMatchesWholeSegmentDecode(t *testing.T) {
	const n, m, chunks, segChunks = 3, 16, 20, 8
	cfg := core.Config{TotalBand: 24, MBase: 32, Metric: metrics.SSE}
	reboots := map[int]bool{11: true, 18: true}
	var frames [][]byte
	var comp *core.Compressor
	for c := 0; c < chunks; c++ {
		if c == 0 || reboots[c] {
			var err error
			if comp, err = core.NewCompressorForceIns(cfg, 1); err != nil {
				t.Fatal(err)
			}
		}
		rows := make([]timeseries.Series, n)
		for r := range rows {
			rows[r] = make(timeseries.Series, m)
			for i := range rows[r] {
				x := float64(c*m + i)
				rows[r][i] = float64(r+1)*math.Sin(x/(3+float64(r))) + 0.1*math.Cos(x*x/7)
			}
		}
		tr, err := comp.Encode(rows)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}

	{
		s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: segChunks, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reg := obs.NewRegistry()
		s.Instrument(reg)
		// Archive like the station: a seq 0 after history resets the replica.
		live, _ := core.NewDecoder(cfg)
		var inserts int
		var liveRows [][]timeseries.Series
		for c, frame := range frames {
			tr, err := wire.DecodeBytes(frame)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Seq == 0 && c > 0 {
				live, _ = core.NewDecoder(cfg)
			}
			pre := live.State()
			rows, err := live.Decode(tr)
			if err != nil {
				t.Fatal(err)
			}
			inserts += tr.Ins()
			liveRows = append(liveRows, rows)
			if err := s.Append("node", c, rows, tr.ErrBound, tr.Ins(), frame, func() SensorState { return SensorState{Decoder: pre} }); err != nil {
				t.Fatal(err)
			}
		}
		if inserts < chunks {
			t.Fatalf("%d base-signal inserts in %d chunks", inserts, chunks)
		}

		// The reference: each segment decoded whole, every row.
		var whole []decodedChunk
		for c := 0; c < chunks; {
			s.mu.Lock()
			ref, err := resolveRef("node", s.sensors["node"], c)
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if ref.sealed != (c < 2*segChunks) {
				t.Fatalf("chunk %d: sealed=%v", c, ref.sealed)
			}
			scan, err := ref.load("node")
			if err != nil {
				t.Fatal(err)
			}
			dc, err := decodeSegmentChunks(cfg, scan)
			if err != nil {
				t.Fatal(err)
			}
			whole = append(whole, dc...)
			c = ref.lastChunk + 1
		}
		for c := range whole {
			if !sameRows(whole[c].rows, liveRows[c]) {
				t.Fatalf("chunk %d: the whole-segment decode differs from the live decode", c)
			}
		}

		for row := 0; row < n; row++ {
			for from := 0; from < chunks; from++ {
				for to := from + 1; to <= chunks; to++ {
					before := s.StoreStats()
					dst := make(timeseries.Series, (to-from)*m)
					if err := s.ChunkRangeRow("node", from, to, row, dst, nil); err != nil {
						t.Fatalf("row %d [%d,%d): %v", row, from, to, err)
					}
					for c := from; c < to; c++ {
						if !sameBits(dst[(c-from)*m:(c-from+1)*m], whole[c].rows[row]) {
							t.Fatalf("row %d [%d,%d): chunk %d differs from the whole-segment decode", row, from, to, c)
						}
					}
					after := s.StoreStats()
					advanced := from % segChunks // only the first segment's chunks before the window
					if got := after.ColdChunksAdvanced - before.ColdChunksAdvanced; got != uint64(advanced) {
						t.Fatalf("row %d [%d,%d): %d chunks advanced, want %d", row, from, to, got, advanced)
					}
					if got := after.ColdChunksDecoded - before.ColdChunksDecoded; got != uint64(to-from) {
						t.Fatalf("row %d [%d,%d): %d chunks decoded, want %d", row, from, to, got, to-from)
					}
					if got, want := after.ColdReads-before.ColdReads, uint64((to-1)/segChunks-from/segChunks+1); got != want {
						t.Fatalf("row %d [%d,%d): %d segment loads, want %d", row, from, to, got, want)
					}
				}
				got := make(timeseries.Series, m)
				if err := s.ChunkRow("node", from, row, got, nil); err != nil || !sameBits(got, whole[from].rows[row]) {
					t.Fatalf("ChunkRow(%d, row %d) differs from the whole-segment decode (%v)", from, row, err)
				}
			}
		}
		st := s.StoreStats()
		vals := reg.Values()
		for name, want := range map[string]uint64{
			"sbr_segstore_cold_reads_total":           st.ColdReads,
			"sbr_segstore_cold_chunks_advanced_total": st.ColdChunksAdvanced,
			"sbr_segstore_cold_chunks_decoded_total":  st.ColdChunksDecoded,
		} {
			if got := vals[name]; got != float64(want) {
				t.Errorf("%s = %v, Stats says %d", name, got, want)
			}
		}
		t.Logf("%d segment loads, %d chunks advanced, %d decoded",
			st.ColdReads, st.ColdChunksAdvanced, st.ColdChunksDecoded)
	}
}

// sameBits compares two series by their IEEE-754 bits.
func sameBits(a, b timeseries.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestColdFetchSpanAnnotations checks that a traced range read records
// one segstore.cold_fetch span telling what it cost: the chunks asked
// for, and the chunks advanced and decoded. No segment is cached, so a
// second read of the same window costs what the first did.
func TestColdFetchSpanAnnotations(t *testing.T) {
	s, _, _ := openReadStore(t, 4, 12)
	rec := trace.NewRecorder(trace.Options{SampleEvery: 1})
	for i, want := range []string{
		"from=5 chunks=2 advanced=1 decoded=2",
		"from=5 chunks=2 advanced=1 decoded=2",
	} {
		tr := rec.Begin("node")
		root := tr.StartSpan("query")
		if err := s.ChunkRangeRow("node", 5, 7, 0, make(timeseries.Series, 2*16), root); err != nil {
			t.Fatal(err)
		}
		root.End()
		view := tr.Snapshot(true)
		if len(view.Tree) != 1 || len(view.Tree[0].Children) != 1 || view.Tree[0].Children[0].Stage != "segstore.cold_fetch" {
			t.Fatalf("read %d: span tree %+v, want one segstore.cold_fetch child", i, view.Tree)
		}
		var got []string
		for _, a := range view.Tree[0].Children[0].Annots {
			got = append(got, a.Key+"="+a.Value)
		}
		if strings.Join(got, " ") != want {
			t.Errorf("read %d: annotations %q, want %q", i, strings.Join(got, " "), want)
		}
	}
}

// coldReadAllocs bounds the allocations of one cold read of one segment,
// whatever the chunks it advances past: the file read and its scan, the
// seeded decoder, and scratch that grows only until it fits the widest
// frame.
const coldReadAllocs = 24

// TestColdReadAllocsFlat: a point read deep in a sealed 64-chunk segment,
// and a 512-sample range read, allocate no more than a bounded number of
// times, the same bound at the head of the segment and 63 chunks into
// it. Every chunk inserts a base interval into a full replica pool, so
// every advanced chunk also applies an update.
func TestColdReadAllocsFlat(t *testing.T) {
	const m, segChunks = 16, 64
	cfg := core.Config{TotalBand: 8, MBase: 32, Metric: metrics.SSE}
	comp, err := core.NewCompressorForceIns(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for c := 0; c < 2*segChunks+8; c++ {
		row := make(timeseries.Series, m)
		for i := range row {
			x := float64(c*m + i)
			row[i] = math.Sin(x/3) + 0.1*math.Cos(x*x/7)
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
	s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: segChunks, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows, _ := feedStore(t, s, cfg, "node", frames, 0)

	point := make(timeseries.Series, m)
	for _, c := range []int{segChunks, segChunks + 1, segChunks + 31, 2*segChunks - 2, 2*segChunks - 1} {
		n := testing.AllocsPerRun(20, func() {
			if err := s.ChunkRow("node", c, 0, point, nil); err != nil {
				t.Fatal(err)
			}
		})
		if n > coldReadAllocs {
			t.Errorf("point read %d chunks into a sealed segment: %v allocations, want at most %d", c-segChunks, n, coldReadAllocs)
		}
		if !sameBits(point, rows[c][0]) {
			t.Errorf("point read of chunk %d differs from the live decode", c)
		}
	}
	window := make(timeseries.Series, 512)
	for _, from := range []int{segChunks, segChunks + 16, 2*segChunks - 512/m} {
		n := testing.AllocsPerRun(20, func() {
			if err := s.ChunkRangeRow("node", from, from+512/m, 0, window, nil); err != nil {
				t.Fatal(err)
			}
		})
		if n > coldReadAllocs {
			t.Errorf("512-sample read %d chunks into a sealed segment: %v allocations, want at most %d", from-segChunks, n, coldReadAllocs)
		}
	}
}

// TestCorruptRecordFailsEveryColdRead: one flipped byte in a record of a
// sealed segment fails every cold read of that segment, whichever chunk
// it asks for, twice in a row — no read remembers an earlier one — with
// an error that names the file, and leaves the other segments readable.
func TestCorruptRecordFailsEveryColdRead(t *testing.T) {
	s, rows, _ := openReadStore(t, 4, 12) // sealed [0,4), [4,8), [8,12)
	path := filepath.Join(s.sensors["node"].dir, segName(4))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanSegment(b, 0)
	if err != nil || len(scan.Recs) != 4 {
		t.Fatalf("staging scan: %d records, %v", len(scan.Recs), err)
	}
	b[scan.Recs[2].Offset+8+recordHeadLen+3] ^= 0x10 // inside chunk 6's frame
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		for c := 4; c < 8; c++ {
			err := s.ChunkRow("node", c, 0, make(timeseries.Series, 16), nil)
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("attempt %d, chunk %d: %v, want an error naming %s", attempt, c, err, path)
			}
		}
		if err := s.ChunkRangeRow("node", 2, 10, 0, make(timeseries.Series, 8*16), nil); err == nil {
			t.Errorf("attempt %d: a range over the damaged segment read", attempt)
		}
	}
	for _, c := range []int{0, 3, 8, 11} {
		got, err := chunkRows(s, "node", c, 1, 16)
		if err != nil || !sameRows(got, rows[c]) {
			t.Errorf("chunk %d of an intact segment: %v", c, err)
		}
	}
}
