package sbr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// encodeFrames runs a fresh compressor over the batches and returns the
// wire frame of every transmission. The compressor is created inside so
// each call replays the identical pool evolution from scratch.
func encodeFrames(t *testing.T, cfg core.Config, batches [][]timeseries.Series) [][]byte {
	t.Helper()
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, len(batches))
	for i, batch := range batches {
		tx, err := comp.Encode(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		frames[i], err = wire.Encode(tx)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return frames
}

// TestEncodeDeterministicAcrossProcs is the bit-determinism contract of the
// encoder's sibling helper: for every base builder and error metric, the
// full AutoIns encode must produce byte-identical wire frames whether
// GetIntervals maps on one goroutine or two. ParallelScanThreshold is
// dropped to 1 so even these small inputs start the helper at GOMAXPROCS
// 4, and CI runs the whole matrix under -race.
func TestEncodeDeterministicAcrossProcs(t *testing.T) {
	savedThreshold := interval.ParallelScanThreshold
	interval.ParallelScanThreshold = 1
	savedProcs := runtime.GOMAXPROCS(0)
	defer func() {
		interval.ParallelScanThreshold = savedThreshold
		runtime.GOMAXPROCS(savedProcs)
	}()

	const nRows, m, batches = 4, 128, 3
	data := make([][]timeseries.Series, batches)
	for i := range data {
		data[i] = benchCorrelatedRows(int64(i), nRows, m)
	}

	builders := []struct {
		name string
		b    core.BaseBuilder
	}{
		{"GetBase", core.BuilderGetBase},
		{"GetBaseLowMem", core.BuilderGetBaseLowMem},
		{"SVD", core.BuilderSVD},
	}
	kinds := []metrics.Kind{metrics.SSE, metrics.RelativeSSE, metrics.MaxAbs}

	type variant struct {
		name string
		cfg  core.Config
	}
	var variants []variant
	for _, bl := range builders {
		for _, k := range kinds {
			variants = append(variants, variant{
				name: fmt.Sprintf("%s/%s", bl.name, k),
				cfg:  core.Config{TotalBand: 128, MBase: 512, Metric: k, Builder: bl.b},
			})
		}
		// The non-linear encoding extension shares the same scan engine.
		variants = append(variants, variant{
			name: bl.name + "/sse-quadratic",
			cfg:  core.Config{TotalBand: 128, MBase: 512, Metric: metrics.SSE, Builder: bl.b, Quadratic: true},
		})
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			sequential := encodeFrames(t, v.cfg, data)
			runtime.GOMAXPROCS(4)
			parallel := encodeFrames(t, v.cfg, data)
			for i := range sequential {
				if !bytes.Equal(sequential[i], parallel[i]) {
					t.Fatalf("batch %d: wire frames differ between GOMAXPROCS=1 and 4 (%d vs %d bytes)",
						i, len(sequential[i]), len(parallel[i]))
				}
			}
		})
	}
}

// paperCounts are the deterministic encode counters of one run: the
// search effort, the scan cache and the screen's work.
type paperCounts struct {
	searchEvals, cacheHits, cacheMisses, tailShifts, screened, exact int
}

// TestPaperFrameDigests pins the wire frames of the paper's three datasets
// (seed 1, their own MBase, 10% band, SSE, AutoIns) to SHA-256 digests
// recorded before the block-FFT screen existed: neither screening shifts
// nor mapping sibling intervals on a second goroutine may change a
// transmitted byte. Each dataset is encoded at GOMAXPROCS 1, where no
// helper runs, and at 2, where it must: the digests and every counter
// must match. The batch counts keep the test short while the screened
// path still covers most of the scanned shifts, which the test checks and
// logs.
func TestPaperFrameDigests(t *testing.T) {
	savedProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(savedProcs)
	for _, tc := range []struct {
		gen     func(int64) *datagen.Dataset
		batches int
		digest  string
	}{
		{datagen.Weather, 3, "1f32aed6740f92050e3a87e32b0d553f5e0d7c4e87c0a8822524116a6a45027f"},
		{datagen.Stocks, 3, "779833c47d078ae0372b3f6e897e34182702ccce5f2a7606da0d29ae23d696e1"},
		{datagen.PhoneCalls, 2, "f724cd1fd7a3fe258840d23fd9fdfb4cf7d051671e4f4017acb7ce5c12ff5b0e"},
	} {
		ds := tc.gen(1)
		cfg := core.Config{TotalBand: ds.N() * ds.FileLen / 10, MBase: ds.MBase, Metric: metrics.SSE}
		batches := make([][]timeseries.Series, tc.batches)
		for i := range batches {
			batches[i] = ds.File(i)
		}
		var serial paperCounts
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			comp, err := core.NewCompressor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var counts paperCounts
			var pairs, helped, workers int
			for i, batch := range batches {
				tx, err := comp.Encode(batch)
				if err != nil {
					t.Fatalf("%s batch %d: %v", ds.Name, i, err)
				}
				frame, err := wire.Encode(tx)
				if err != nil {
					t.Fatalf("%s batch %d: %v", ds.Name, i, err)
				}
				h.Write(frame)
				rep := comp.LastReport()
				counts.searchEvals += rep.SearchEvals
				counts.cacheHits += rep.CacheHits
				counts.cacheMisses += rep.CacheMisses
				counts.tailShifts += rep.TailShifts
				counts.screened += rep.ScreenedShifts
				counts.exact += rep.ExactShifts
				pairs += rep.SiblingPairs
				helped += rep.HelperPairs
				workers = max(workers, rep.ScanWorkers)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("%s GOMAXPROCS=%d: frames digest %s, want %s", ds.Name, procs, got, tc.digest)
			}
			if workers != procs || (pairs > 0) != (procs > 1) {
				t.Errorf("%s GOMAXPROCS=%d: %d scan workers, %d sibling pairs offered", ds.Name, procs, workers, pairs)
			}
			if procs > 1 {
				if counts != serial {
					t.Errorf("%s: counters %+v at GOMAXPROCS=%d, %+v at 1", ds.Name, counts, procs, serial)
				}
				t.Logf("%s: the helper mapped %d of %d offered sibling pairs", ds.Name, helped, pairs)
				continue
			}
			serial = counts
			// With the search's scan cache installed, every scanned shift
			// is a tail shift; the screened ones are a subset.
			share := float64(counts.screened) / float64(counts.tailShifts)
			t.Logf("%s: %d of %d scanned shifts went through the screen (%.1f%%)",
				ds.Name, counts.screened, counts.tailShifts, 100*share)
			if share < 0.5 {
				t.Errorf("%s: the screened path covered only %.1f%% of scanned shifts", ds.Name, 100*share)
			}
		}
	}
}

// TestDecodeDigests pins what the base station reconstructs: SHA-256
// digests of the IEEE-754 bits of every decoded row, for the paper's three
// datasets (seed 1, their own MBase, 10% band, SSE, AutoIns, so the
// replica takes base-signal inserts, which the test checks) and for the
// 6×64 weather fleet shape of cmd/stationd's defaults (band 38, MBase 64,
// where the encoder ships no inserts). Each frame goes through
// the wire parser and a core.Decoder replica. The digests were recorded
// before the row-windowed decoder existed: a change to parsing,
// validation or reconstruction that moves one bit of one sample fails
// here, which a comparison against a replay through the same decoder
// cannot see. One more replica per row decodes only its row (DecodeRow),
// which must match Decode bit for bit.
func TestDecodeDigests(t *testing.T) {
	fleet := datagen.WeatherSized(1, 64, 24)
	fleet.Name = "fleet-6x64"
	fleet.MBase = 64
	for _, tc := range []struct {
		ds      *datagen.Dataset
		batches int
		band    int // 0: 10% of a batch
		digest  string
	}{
		{datagen.Weather(1), 3, 0, "6252622af3c977527a2bce47074ee7ec6d08adfa2366a18e7442ffcc3dec7701"},
		{datagen.Stocks(1), 3, 0, "d2de47525c12695489553a807b664dfb8076a5b4baab3fae9aee93d0be7ac191"},
		{datagen.PhoneCalls(1), 2, 0, "1d5a2667b44674696c6acd9e946471c9bcb9e7daccf299d3b320a16251e5eeb9"},
		{fleet, 24, 38, "1a8da35933e2ae9aa53d9bdc3c77b28b202999b31e1816b643dc842fc6641958"},
	} {
		ds := tc.ds
		band := tc.band
		if band == 0 {
			band = ds.N() * ds.FileLen / 10
		}
		cfg := core.Config{TotalBand: band, MBase: ds.MBase, Metric: metrics.SSE}
		comp, err := core.NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rowDecs := make([]*core.Decoder, ds.N())
		for r := range rowDecs {
			if rowDecs[r], err = core.NewDecoder(cfg); err != nil {
				t.Fatal(err)
			}
		}
		h := sha256.New()
		var word [8]byte
		inserts := 0
		for i := 0; i < tc.batches; i++ {
			tx, err := comp.Encode(ds.File(i))
			if err != nil {
				t.Fatalf("%s batch %d: %v", ds.Name, i, err)
			}
			frame, err := wire.Encode(tx)
			if err != nil {
				t.Fatalf("%s batch %d: %v", ds.Name, i, err)
			}
			back, err := wire.DecodeBytes(frame)
			if err != nil {
				t.Fatalf("%s batch %d: %v", ds.Name, i, err)
			}
			inserts += back.Ins()
			rows, err := dec.Decode(back)
			if err != nil {
				t.Fatalf("%s batch %d: %v", ds.Name, i, err)
			}
			for r, row := range rows {
				for _, v := range row {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
				one := make(timeseries.Series, back.M)
				if err := rowDecs[r].DecodeRow(back, r, one); err != nil {
					t.Fatalf("%s batch %d row %d: %v", ds.Name, i, r, err)
				}
				for j, v := range one {
					if math.Float64bits(v) != math.Float64bits(row[j]) {
						t.Fatalf("%s batch %d row %d sample %d: DecodeRow %v, Decode %v", ds.Name, i, r, j, v, row[j])
					}
				}
			}
		}
		if inserts == 0 && tc.band == 0 {
			t.Errorf("%s: no base-signal inserts in %d batches", ds.Name, tc.batches)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s: decoded rows digest %s, want %s (%d inserts)", ds.Name, got, tc.digest, inserts)
		}
	}
}
