// Query-serving benchmark suite: measures the station's read path under
// concurrency — hot in-memory aggregates, cold archive-backed range reads
// issued by many parallel readers, and a mixed workload where queries
// compete with live ingest. The mixed and cold numbers are the ones that
// matter: a station-wide RWMutex would serialise every cold segment
// decode and stall ingest behind readers. Run it with
//
//	go test -run '^$' -bench 'BenchmarkQuery' -benchmem .
package sbr

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// queryBenchConfig keeps the per-frame encode cheap so benchmark setup is
// dominated by the read path under test, not by compression.
func queryBenchConfig() core.Config {
	return core.Config{TotalBand: 8, MBase: 8, Metric: metrics.SSE}
}

// queryBenchFrames encodes n deterministic frames of batchLen samples.
// phase shifts the signal so different generations of frames differ on the
// wire (a repeated identical seq-0 frame would be deduplicated as a
// retransmission instead of accepted as a sensor reboot).
func queryBenchFrames(b *testing.B, cfg core.Config, n, batchLen int, phase float64) [][]byte {
	b.Helper()
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([][]byte, 0, n)
	for k := 0; k < n; k++ {
		row := make(timeseries.Series, batchLen)
		for i := range row {
			row[i] = 2*math.Sin(float64(k*batchLen+i)/5+phase) + phase
		}
		tr, err := comp.Encode([]timeseries.Series{row})
		if err != nil {
			b.Fatal(err)
		}
		frame, err := wire.Encode(tr)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

func feedBenchFrames(b *testing.B, st *station.Station, id string, frames [][]byte) {
	b.Helper()
	for i, frame := range frames {
		if err := st.ReceiveFrame(id, frame); err != nil {
			b.Fatalf("frame %d: %v", i, err)
		}
	}
}

// newQueryBenchStation builds an archive-backed station: memChunks bounds
// the in-memory window, segChunks the records per sealed segment. NoSync
// keeps ingest off the fsync path so the benchmarks measure locking and
// decoding, not disk flushes.
func newQueryBenchStation(b *testing.B, cfg core.Config, memChunks, segChunks int) (*station.Station, *segstore.Store) {
	b.Helper()
	st, err := station.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	store, err := segstore.Open(segstore.Options{
		Dir:           b.TempDir(),
		Config:        cfg,
		SegmentChunks: segChunks,
		NoSync:        true,
	})
	if err != nil {
		b.Fatal(err)
	}
	st.SetArchive(store, memChunks)
	return st, store
}

// BenchmarkQueryHot measures aggregate queries answered entirely from the
// in-memory window and the hierarchical index, issued by 8 concurrent
// readers: the no-archive fast path whose cost is the read-lock discipline
// plus O(log n) summary merges.
func BenchmarkQueryHot(b *testing.B) {
	const (
		chunks   = 256
		batchLen = 32
		total    = chunks * batchLen
	)
	cfg := queryBenchConfig()
	st, err := station.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	feedBenchFrames(b, st, "hot", queryBenchFrames(b, cfg, chunks, batchLen, 0))

	var ctr atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			// Ragged edges on both sides so each query mixes index merges
			// with exact sub-chunk scans.
			from := (i * 37) % (total / 2)
			to := total - 1 - (i*53)%(total/3)
			if _, _, err := st.AggregateWithBound("hot", 0, from, to, station.AggAvg); err != nil {
				b.Fatal(err)
			}
			if _, err := st.At("hot", 0, (i*91)%total); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryColdParallel measures range reads over archived history
// under 8 concurrent readers. The per-reader spans rotate through the
// sealed segments in loose lockstep (a shared counter), the dashboard
// refresh pattern: concurrent readers keep reading the same two segments
// at the same moment, and each read loads and decodes them itself.
func BenchmarkQueryColdParallel(b *testing.B) {
	const (
		chunks    = 128
		batchLen  = 32
		segChunks = 16
		memChunks = 8
	)
	cfg := queryBenchConfig()
	st, store := newQueryBenchStation(b, cfg, memChunks, segChunks)
	defer store.Close()
	feedBenchFrames(b, st, "cold", queryBenchFrames(b, cfg, chunks, batchLen, 0))

	coldChunks := chunks - memChunks // [0, coldChunks) served from the archive
	segs := coldChunks / segChunks
	var ctr atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			seg := (i / 8) % segs // 8 consecutive ops target the same segment
			from := seg * segChunks * batchLen
			to := from + 2*segChunks*batchLen // span two segments
			if to > coldChunks*batchLen {
				to = coldChunks * batchLen
			}
			out, err := st.Range("cold", 0, from, to)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != to-from {
				b.Fatalf("range returned %d samples, want %d", len(out), to-from)
			}
		}
	})
}

// BenchmarkQueryMixedIngest is the acceptance workload: 8 concurrent
// readers alternating archive-backed range reads and ragged-edge index
// aggregates on one sensor while a writer ingests a live stream into
// another at a fixed offered rate (one frame per frameInterval — open
// loop, so both sides of a comparison absorb the same ingest work and
// ns/op isolates what the locking discipline costs the readers). Every
// cold range read loads and decodes its segments, as in
// BenchmarkQueryColdParallel, so the op cost is that decode plus lock
// discipline and summary merging. ns/op is the query cost under ingest
// pressure; ingest-p99-ns reports the writer's tail latency under reader
// pressure — the reader-blocks-writer number the per-sensor read path is
// meant to fix.
func BenchmarkQueryMixedIngest(b *testing.B) {
	const (
		chunks        = 128
		batchLen      = 32
		segChunks     = 16
		memChunks     = 8
		genFrames     = 512
		frameInterval = 500 * time.Microsecond
	)
	cfg := queryBenchConfig()
	st, store := newQueryBenchStation(b, cfg, memChunks, segChunks)
	defer store.Close()
	feedBenchFrames(b, st, "r", queryBenchFrames(b, cfg, chunks, batchLen, 0))

	// Two generations of writer frames: when the stream wraps, the next
	// seq-0 frame differs on the wire and is accepted as a sensor reboot
	// instead of deduplicated as a retransmission.
	gens := [][][]byte{
		queryBenchFrames(b, cfg, genFrames, batchLen, 0.25),
		queryBenchFrames(b, cfg, genFrames, batchLen, 0.75),
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ingestNs []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := time.Now()
		for gen := 0; ; gen++ {
			for _, frame := range gens[gen%len(gens)] {
				// Open-loop arrivals: the deadline advances by the interval
				// regardless of how long the last receive took, so a slow
				// station faces a catch-up burst instead of a politely
				// self-throttling writer.
				next = next.Add(frameInterval)
				if d := time.Until(next); d > 0 {
					select {
					case <-stop:
						return
					case <-time.After(d):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				t0 := time.Now()
				if err := st.ReceiveFrame("w", frame); err != nil {
					b.Errorf("ingest: %v", err)
					return
				}
				ingestNs = append(ingestNs, float64(time.Since(t0).Nanoseconds()))
			}
		}
	}()

	coldChunks := chunks - memChunks
	segs := coldChunks / segChunks
	total := chunks * batchLen
	var ctr atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if i%2 == 0 {
				seg := (i / 8) % segs
				from := seg * segChunks * batchLen
				to := from + segChunks*batchLen
				if _, err := st.Range("r", 0, from, to); err != nil {
					b.Fatal(err)
				}
			} else {
				from := (i * 37) % (total / 2)
				to := total - 1 - (i*53)%(total/3)
				if _, _, err := st.AggregateWithBound("r", 0, from, to, station.AggSum); err != nil {
					b.Fatal(err)
				}
			}
			// A served query returns to the transport for the next request —
			// a scheduling point. Without it, on a single-proc run the spin
			// loop holds the processor for whole preemption quanta and the
			// paced writer's latency measures the Go scheduler, not the
			// station.
			runtime.Gosched()
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	if len(ingestNs) > 0 {
		sort.Float64s(ingestNs)
		b.ReportMetric(percentile(ingestNs, 0.99), "ingest-p99-ns")
		b.ReportMetric(percentile(ingestNs, 0.50), "ingest-p50-ns")
		b.ReportMetric(float64(len(ingestNs)), "ingest-frames")
	}
}

// percentile reads the q-quantile off an ascending-sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
