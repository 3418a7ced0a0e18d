package segstore

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// openReadStore archives n chunks of one sensor into a fresh store and
// returns it with the reference rows and per-chunk bounds.
func openReadStore(t testing.TB, segChunks, cacheSegs, n int) (*Store, [][]timeseries.Series, []float64) {
	t.Helper()
	cfg := testConfig()
	s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: segChunks, CacheSegments: cacheSegs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rows, bounds := feedStore(t, s, cfg, "node", makeFrames(t, cfg, n, 16), 0)
	return s, rows, bounds
}

// TestChunkRangeRowsOrdered verifies the parallel range fan-out of
// ChunkRangeRow: a read spanning several sealed segments plus the active
// one streams every chunk in order, byte-identical to the live decode,
// for assorted sub-ranges and worker counts.
func TestChunkRangeRowsOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, rows, bounds := openReadStore(t, 4, 2, 18) // 4 sealed segments + active
			s.opts.FetchWorkers = workers
			for _, span := range [][2]int{{0, 18}, {3, 13}, {4, 8}, {7, 18}, {17, 18}, {5, 5}} {
				from, to := span[0], span[1]
				next := from
				err := s.ChunkRangeRow("node", from, to, 0, nil, func(chunk int, got timeseries.Series, bound float64) error {
					if chunk != next {
						t.Fatalf("range [%d,%d): got chunk %d, want %d", from, to, chunk, next)
					}
					if !sameRows([]timeseries.Series{got}, rows[chunk]) {
						t.Fatalf("range [%d,%d): chunk %d rows differ from live decode", from, to, chunk)
					}
					if bound != bounds[chunk] {
						t.Fatalf("range [%d,%d): chunk %d bound %v, want %v", from, to, chunk, bound, bounds[chunk])
					}
					next++
					return nil
				})
				if err != nil {
					t.Fatalf("range [%d,%d): %v", from, to, err)
				}
				if next != to {
					t.Fatalf("range [%d,%d): stopped at chunk %d", from, to, next)
				}
			}
		})
	}
}

// TestChunkRangeRowsCallbackError verifies a callback error stops the
// ChunkRangeRow stream and surfaces unchanged.
func TestChunkRangeRowsCallbackError(t *testing.T) {
	s, _, _ := openReadStore(t, 4, 2, 12)
	boom := fmt.Errorf("boom")
	calls := 0
	err := s.ChunkRangeRow("node", 0, 12, 0, nil, func(chunk int, _ timeseries.Series, _ float64) error {
		calls++
		if chunk == 5 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 6 {
		t.Fatalf("callback ran %d times, want 6", calls)
	}
}

// TestSingleflightJoin pins the dedup contract deterministically: while a
// scan of a segment is in flight, a second reader of the same segment
// joins it — blocking until the leader publishes — instead of scanning
// again, and the hit/wait counters record the join.
func TestSingleflightJoin(t *testing.T) {
	s, rows, _ := openReadStore(t, 4, 2, 12)

	s.mu.Lock()
	ref, err := resolveRef("node", s.sensors["node"], 1)
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	// Plant a flight for chunk 1's segment, as if a leader were mid-scan.
	f := &flight{done: make(chan struct{})}
	s.flights[ref.key] = f
	s.mu.Unlock()

	got := make(chan error, 1)
	go func() {
		r, _, err := chunkRows(s, "node", 1, len(rows[1]))
		if err == nil && !sameRows(r, rows[1]) {
			err = fmt.Errorf("joined rows differ from live decode")
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("join returned before the leader published (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Leader finishes: scan for real, publish, release joiners.
	e, err := s.loadRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	delete(s.flights, ref.key)
	s.mu.Unlock()
	f.e, f.err = e, nil
	close(f.done)

	if err := <-got; err != nil {
		t.Fatal(err)
	}
	st := s.StoreStats()
	if st.SingleflightHits != 1 || st.SingleflightWaits != 1 {
		t.Fatalf("singleflight hits=%d waits=%d, want 1/1", st.SingleflightHits, st.SingleflightWaits)
	}
}

// TestConcurrentColdReads hammers the lock-free fetch path: many readers
// over the same segments, raced against nothing but each other, must all
// see the live decode byte-identically (run with -race in CI).
func TestConcurrentColdReads(t *testing.T) {
	s, rows, _ := openReadStore(t, 4, 1, 16) // cache of 1: constant misses
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := (g*7 + i*3) % 16
				got, _, err := chunkRows(s, "node", c, len(rows[c]))
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

// BenchmarkSegCacheEviction proves O(1) LRU maintenance: steady-state
// put+get cost must stay flat as the cache capacity grows (the old
// order-slice scan was linear in capacity).
func BenchmarkSegCacheEviction(b *testing.B) {
	for _, capacity := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			c := newSegCache(capacity)
			e := &segCacheEntry{}
			// Fill to capacity so every put below evicts.
			for i := 0; i < capacity; i++ {
				c.put(cacheKey("s", i, 1), e)
			}
			keys := make([]string, capacity+b.N)
			for i := range keys {
				keys[i] = cacheKey("s", i, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.put(keys[capacity+i], e) // miss: insert + evict oldest
				c.get(keys[i+1])           // touch the oldest resident to churn the list
			}
		})
	}
}

// TestColdReadMatchesWholeSegmentDecode is the equivalence proof of the
// windowed cold reader. A three-quantity sensor whose replica takes a
// base-signal insert every chunk (evicting once its pool is full) reboots
// twice — mid-way through a sealed segment and inside the active one —
// across two sealed segments and an active one. Every row of every window
// [from, to), single chunks included, read through ChunkRangeRow and
// ChunkRow, must equal the whole-segment decode — itself equal to the
// live decode — bit for bit, and the
// counters must show the chunks before each window advanced and only the
// window's chunks decoded.
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

	for _, cacheSegs := range []int{1, 0} {
		s, err := Open(Options{Dir: t.TempDir(), Config: cfg, SegmentChunks: segChunks, CacheSegments: cacheSegs, NoSync: true})
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
			if err := s.Append("node", c, rows, tr.ErrBound, tr.Ins(), frame, func() core.DecoderState { return pre }); err != nil {
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
			e, err := s.loadRef(ref)
			if err != nil {
				t.Fatal(err)
			}
			dc, err := decodeSegmentChunks(cfg, segScan{Header: e.header, Frames: e.frames})
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
					next := from
					err := s.ChunkRangeRow("node", from, to, row, nil, func(c int, got timeseries.Series, bound float64) error {
						if c != next {
							t.Fatalf("row %d [%d,%d): chunk %d, want %d", row, from, to, c, next)
						}
						next++
						if !sameBits(got, whole[c].rows[row]) || bound != whole[c].bound {
							t.Fatalf("row %d [%d,%d): chunk %d differs from the whole-segment decode", row, from, to, c)
						}
						return nil
					})
					if err != nil || next != to {
						t.Fatalf("row %d [%d,%d): %v, stopped at %d", row, from, to, err, next)
					}
					after := s.StoreStats()
					advanced := from % segChunks // only the first segment's chunks before the window
					if got := after.ColdChunksAdvanced - before.ColdChunksAdvanced; got != uint64(advanced) {
						t.Fatalf("row %d [%d,%d): %d chunks advanced, want %d", row, from, to, got, advanced)
					}
					if got := after.ColdChunksDecoded - before.ColdChunksDecoded; got != uint64(to-from) {
						t.Fatalf("row %d [%d,%d): %d chunks decoded, want %d", row, from, to, got, to-from)
					}
				}
				got, bound, err := s.ChunkRow("node", from, row, nil)
				if err != nil || !sameBits(got, whole[from].rows[row]) || bound != whole[from].bound {
					t.Fatalf("ChunkRow(%d, row %d) differs from the whole-segment decode (%v)", from, row, err)
				}
			}
		}
		st := s.StoreStats()
		if cacheSegs == 0 && st.ScanCacheHits == 0 {
			t.Error("no scan-cache hits with the default cache")
		}
		vals := reg.Values()
		for name, want := range map[string]uint64{
			"sbr_segstore_cold_reads_total":           st.ColdReads,
			"sbr_segstore_cold_chunks_advanced_total": st.ColdChunksAdvanced,
			"sbr_segstore_cold_chunks_decoded_total":  st.ColdChunksDecoded,
			"sbr_segstore_scan_cache_hits_total":      st.ScanCacheHits,
		} {
			if got := vals[name]; got != float64(want) {
				t.Errorf("%s = %v, Stats says %d", name, got, want)
			}
		}
		t.Logf("cache %d: %d segment loads, %d scan-cache hits, %d chunks advanced, %d decoded",
			cacheSegs, st.ColdReads, st.ScanCacheHits, st.ColdChunksAdvanced, st.ColdChunksDecoded)
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
// for, the chunks advanced and decoded, and the scan-cache hits.
func TestColdFetchSpanAnnotations(t *testing.T) {
	s, _, _ := openReadStore(t, 4, 2, 12)
	rec := trace.NewRecorder(trace.Options{SampleEvery: 1})
	for i, want := range []string{
		"from=5 chunks=2 advanced=1 decoded=2 scan_cache_hits=0",
		"from=5 chunks=2 advanced=1 decoded=2 scan_cache_hits=1",
	} {
		tr := rec.Begin("node")
		root := tr.StartSpan("query")
		if err := s.ChunkRangeRow("node", 5, 7, 0, root, func(int, timeseries.Series, float64) error { return nil }); err != nil {
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
