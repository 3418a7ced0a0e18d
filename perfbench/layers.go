package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"sbr/internal/obs"
	"sbr/internal/segstore"
)

// regSnap is a point-in-time copy of the counters and histograms of one
// or more registries, summed by series name.
type regSnap struct {
	vals  map[string]float64
	hists map[string]*obs.HistView
}

func snapRegs(regs ...*obs.Registry) regSnap {
	s := regSnap{vals: map[string]float64{}, hists: map[string]*obs.HistView{}}
	for _, reg := range regs {
		reg.Visit(func(smp obs.Sample) {
			name := smp.FullName()
			if smp.Hist == nil {
				s.vals[name] += smp.Value
				return
			}
			h := s.hists[name]
			if h == nil {
				h = &obs.HistView{Bounds: smp.Hist.Bounds, Counts: make([]uint64, len(smp.Hist.Counts))}
				s.hists[name] = h
			}
			for i, c := range smp.Hist.Counts {
				h.Counts[i] += c
			}
			h.Count += smp.Hist.Count
			h.Sum += smp.Hist.Sum
		})
	}
	return s
}

// delta is how much a counter moved from a to b.
func delta(a, b regSnap, name string) float64 { return b.vals[name] - a.vals[name] }

// histDelta is the histogram of the observations made between a and b.
func histDelta(a, b regSnap, name string) *obs.HistView {
	hb := b.hists[name]
	if hb == nil {
		return &obs.HistView{}
	}
	out := &obs.HistView{Bounds: hb.Bounds, Counts: append([]uint64(nil), hb.Counts...), Count: hb.Count, Sum: hb.Sum}
	if ha := a.hists[name]; ha != nil {
		for i := range out.Counts {
			out.Counts[i] -= ha.Counts[i]
		}
		out.Count -= ha.Count
		out.Sum -= ha.Sum
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// storeStats sums StoreStats over stacks.
func storeStats(stacks ...*stack) segstore.Stats {
	var out segstore.Stats
	for _, s := range stacks {
		st := s.seg.StoreStats()
		out.ColdReads += st.ColdReads
		out.SingleflightHits += st.SingleflightHits
	}
	return out
}

// observations is what a workload hands to the per-layer assembly. Slices
// left empty mean the workload does not exercise that layer; its metrics
// are then reported as 0 with the note "n/a".
type observations struct {
	frameQ float64 // the workload's frame tail percentile

	encodeMS  []float64            // Sensor.Record calls that flushed, minus time in the sink
	encode    [2]regSnap           // sensor-side encode counters around the encoding
	sse       map[string][]float64 // per-batch SSE by dataset
	frameLens []float64            // bytes of each frame sent
	dialMS    []float64            // netio.Dial, handshake included
	sendMS    []float64            // Client.Send round trips
	ingest    [2]regSnap           // station registries around the write phase
	manifest  []float64            // MANIFEST.json size after each seal
	disk      diskSplit            // the archive after the write phase
	openS     []float64            // segstore.Open in the restarts
	recoverS  []float64            // Station.Recover in the restarts
	query     [2]regSnap           // station registries around the query phase
	store     [2]segstore.Stats    // segment-store counters around the query phase
	queries   int                  // HTTP queries in the query phase
	kindMS    map[string][]float64 // query times by endpoint
	ops       int                  // operations in the timed phase
	mem       memMark              // Go runtime at the start of the timed phase
	allocB    float64              // bytes allocated over the timed phase
	gcMS      float64              // GC pause over the timed phase
	lateMS    []float64            // open-loop sends: start minus due time
	tr        *tracer
}

// perLayer sets every per-layer metric of BENCHMARK.json from o.
func perLayer(rep *report, o *observations) {
	na := func(xs []float64, note string) string {
		if len(xs) == 0 {
			return "n/a"
		}
		return note
	}
	n := func(k int) string { return fmt.Sprintf("n=%d", k) }
	ms50 := func(name string, xs []float64) {
		rep.set(name, "ms", median(xs), na(xs, latencyNote(0.5, len(xs))))
	}

	ms50("core.encode_ms_p50", o.encodeMS)
	rep.set("core.encode_ms_tail", "ms", quantile(o.encodeMS, o.frameQ), na(o.encodeMS, latencyNote(o.frameQ, len(o.encodeMS))))
	batches := delta(o.encode[0], o.encode[1], "sbr_encode_total")
	hits := delta(o.encode[0], o.encode[1], "sbr_encode_cache_hits_total")
	misses := delta(o.encode[0], o.encode[1], "sbr_encode_cache_misses_total")
	encNote := "n/a"
	if batches > 0 {
		encNote = fmt.Sprintf("batches=%.0f", batches)
	}
	rep.set("core.search_evals_per_batch", "count", ratio(delta(o.encode[0], o.encode[1], "sbr_encode_search_evals_total"), batches), encNote)
	rep.set("core.scan_cache_hit_ratio", "ratio", ratio(hits, hits+misses), encNote)

	frames := delta(o.ingest[0], o.ingest[1], "sbr_station_transmissions_total")
	frNote := "n/a"
	if frames > 0 {
		frNote = fmt.Sprintf("frames=%.0f", frames)
	}
	rep.set("core.base_inserts_per_batch", "count", ratio(delta(o.ingest[0], o.ingest[1], "sbr_core_base_inserts_total"), frames), frNote)
	rep.set("core.intervals_per_batch", "count", ratio(delta(o.ingest[0], o.ingest[1], "sbr_core_intervals_total"), frames), frNote)
	for _, ds := range []string{"weather", "stock", "phone"} {
		xs := o.sse[ds]
		rep.set("core.avg_sse."+ds, "sq_units", mean(xs), na(xs, "batches="+fmt.Sprint(len(xs))))
	}

	ms50("netio.dial_ms_p50", o.dialMS)
	ms50("netio.send_ms_p50", o.sendMS)
	rep.set("wire.frame_bytes_p50", "B", median(o.frameLens), na(o.frameLens, latencyNote(0.5, len(o.frameLens))))

	recv := histDelta(o.ingest[0], o.ingest[1], "sbr_station_receive_seconds")
	recvNote := func(q float64) string {
		if recv.Count == 0 {
			return "n/a"
		}
		return fmt.Sprintf("p%s n=%d histogram", pct(q), recv.Count)
	}
	rep.set("station.receive_ms_p50", "ms", 1000*recv.Quantile(0.5), recvNote(0.5))
	rep.set("station.receive_ms_tail", "ms", 1000*recv.Quantile(o.frameQ), recvNote(o.frameQ))
	lock := histDelta(o.ingest[0], o.ingest[1], "sbr_station_ingest_lock_wait_seconds")
	rep.set("station.ingest_lock_wait_ms_p99", "ms", 1000*lock.Quantile(0.99), fmt.Sprintf("n=%d histogram", lock.Count))

	ls := o.tr.analyze()
	tf := ls.ops["frame"]
	tfNote := "n/a"
	if tf > 0 {
		tfNote = fmt.Sprintf("self time per traced frame, n=%d", tf)
	}
	for _, st := range []string{"station.decode", "station.replica", "station.index", "segstore.append", "segstore.fsync"} {
		rep.set(st+"_ms", "ms", ls.perOp("frame", st), tfNote)
	}
	rep.set("netio.transport_ms_p50", "ms", median(ls.transport), na(ls.transport, latencyNote(0.5, len(ls.transport))))
	rep.set("segstore.fsyncs_per_frame", "count", ratio(float64(ls.spans["frame"]["segstore.fsync"]), float64(tf)), tfNote)
	seals := ls.durs["segstore.seal"]
	rep.set("segstore.seal_ms_p99", "ms", quantile(seals, 0.99), na(seals, latencyNote(0.99, len(seals))))
	rep.set("segstore.manifest_bytes_per_seal", "B", mean(o.manifest), na(o.manifest, n(len(o.manifest))))
	diskNote := "n/a"
	if o.disk.frames > 0 {
		diskNote = fmt.Sprintf("frames=%d files=%d", o.disk.frames, o.disk.files)
	}
	rep.set("segstore.record_bytes_per_frame", "B", ratio(float64(o.disk.records), float64(o.disk.frames)), diskNote)
	rep.set("segstore.overhead_bytes_per_frame", "B", ratio(float64(o.disk.overhead), float64(o.disk.frames)), diskNote)
	rep.set("segstore.open_s", "s", median(o.openS), na(o.openS, "median of "+n(len(o.openS))))
	rep.set("station.recover_s", "s", median(o.recoverS), na(o.recoverS, "median of "+n(len(o.recoverS))))

	q := float64(o.queries)
	qNote := "n/a"
	if o.queries > 0 {
		qNote = fmt.Sprintf("queries=%d", o.queries)
	}
	cold := float64(o.store[1].ColdReads - o.store[0].ColdReads)
	sf := float64(o.store[1].SingleflightHits - o.store[0].SingleflightHits)
	rep.set("segstore.cold_reads_per_query", "count", ratio(cold, q), qNote)
	rep.set("segstore.singleflight_hit_ratio", "ratio", ratio(sf, cold+sf), qNote)
	rep.set("segstore.cold_fetch_ms", "ms", ls.perOp("query", "segstore.cold_fetch"),
		fmt.Sprintf("self time per traced query, spans=%d", ls.spans["query"]["segstore.cold_fetch"]))
	walks := delta(o.query[0], o.query[1], "sbr_query_index_queries_total")
	rep.set("query.index_nodes_per_query", "count", ratio(delta(o.query[0], o.query[1], "sbr_query_index_nodes_total"), walks), fmt.Sprintf("index lookups=%.0f", walks))
	rep.set("query.index_walk_ms", "ms", mean(ls.durs["query.index_walk"]), "mean per traced walk "+n(len(ls.durs["query.index_walk"])))
	ch := delta(o.query[0], o.query[1], `sbr_httpapi_cache_events_total{kind="hit"}`)
	cm := delta(o.query[0], o.query[1], `sbr_httpapi_cache_events_total{kind="miss"}`)
	rep.set("httpapi.cache_hit_ratio", "ratio", ratio(ch, ch+cm), fmt.Sprintf("lookups=%.0f", ch+cm))
	rep.set("httpapi.history_ms", "ms", mean(ls.durs["station.history"]), "mean per traced reconstruction "+n(len(ls.durs["station.history"])))
	for _, k := range []string{"aggregate", "range", "downsample", "point"} {
		ms50("httpapi."+k+"_ms_p50", o.kindMS[k])
	}

	rep.set("go.alloc_bytes_per_op", "B", ratio(o.allocB, float64(o.ops)), fmt.Sprintf("ops=%d", o.ops))
	rep.set("go.gc_pause_ms", "ms", o.gcMS, "total over the timed phase")
	rep.set("loadgen.lateness_ms_p99", "ms", quantile(o.lateMS, 0.99), na(o.lateMS, latencyNote(0.99, len(o.lateMS))))
	rep.set("trace.unattributed_share", "ratio", ls.unattributed(), fmt.Sprintf("traced ops=%v", ls.ops))
	ov, ovNote := o.tr.overhead()
	rep.set("trace.overhead", "ratio", ov, ovNote)
	rep.table = ls.table()
}

// diskSplit splits the archive's bytes on disk into record blocks and
// everything else: segment magic, headers, footers, trailers, manifest
// and checkpoints.
type diskSplit struct {
	records, overhead int64
	frames            int
	files             int
}

// splitDisk walks the store's segment files block by block. Segment files
// are a magic followed by CRC-framed blocks (u32 length, u32 CRC, payload)
// whose first payload byte is the block kind; 'R' marks a record. A file
// that does not parse that way is counted as overhead whole.
func splitDisk(dir string) (diskSplit, error) {
	var d diskSplit
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		d.files++
		if !strings.HasSuffix(path, ".seg") {
			d.overhead += info.Size()
			return nil
		}
		rec, n, err := recordBytes(path)
		if err != nil {
			d.overhead += info.Size()
			return nil
		}
		d.records += rec
		d.frames += n
		d.overhead += info.Size() - rec
		return nil
	})
	return d, err
}

// recordBytes returns the bytes of a segment file's record blocks
// (framing included) and how many there are.
func recordBytes(path string) (int64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, err
	}
	const magicLen, headLen = 8, 8
	if len(data) < magicLen {
		return 0, 0, fmt.Errorf("%s: short segment", path)
	}
	var total int64
	var n int
	for off := magicLen; off+headLen < len(data); {
		size := int(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + headLen + size
		if size == 0 || end > len(data) {
			break // trailer or torn tail
		}
		if data[off+headLen] == 'R' {
			total += int64(headLen + size)
			n++
		}
		off = end
	}
	return total, n, nil
}
