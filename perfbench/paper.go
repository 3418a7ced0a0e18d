package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/sensor"
	"sbr/internal/wire"
)

// paper_fleet streams the paper's three evaluation datasets at full size
// (§5.1: weather, stock, phone calls), each with its own MBase, at 10%
// bandwidth under SSE, tick by tick through sensor.Sensor.Record into a
// station per dataset, one sensor connection at a time. Encoding is almost
// all the work, so an encoder change shows here and nowhere else; bytes
// and error are measured in the same run, so a speed-up cannot quietly
// cost compression. Each pass streams every dataset once, each under a
// fresh sensor. Encode time depends on the data, so the set-up draws each
// dataset four times from the seed and pass p streams draw p mod 4: every
// run covers four draws, and its figures move less from seed to seed.
// Passes repeat, four at least, until the timed phase is over. Each
// sensor's batch rows are read back over /v1/range right after it has
// streamed them.

const (
	paperBand   = 0.10 // the paper's 10% bandwidth setting (Tables 2–4)
	paperDraws  = 4    // seeded draws of each dataset, and the minimum pass count
	paperFrameQ = 0.80 // frame tail: 30 batches a pass, the slowest third phone calls
	// paperQueryQ is the read-back tail. A pass reads 31 rows of 10
	// batches; the weather rows, 4,096 samples against 2,048 or 2,560, are
	// the slowest 60 of its 310 reads. p80 sits on the step up to them and
	// moved by 10% from run to run with where that step fell; p90 lies
	// inside them and the cache misses (a series' first read), and above
	// p95 the reads show host stalls.
	paperQueryQ = 0.90
	// paperRestarts is how many times the three stations restart after the
	// read-back; recover_s is the median. One restart takes about 27 ms,
	// and single restarts vary by ±20% within a run, so the median needs
	// this many to repeat within a few percent.
	paperRestarts = 40
)

// paperSet is one of the paper's datasets and the station serving it.
type paperSet struct {
	name  string
	cfg   core.Config
	draws []*paperDraw
	stk   *stack
}

// paperDraw is one seeded draw of a dataset, laid out tick by tick.
type paperDraw struct {
	ds    *datagen.Dataset
	ticks [][]float64 // ticks[t] is the sample vector recorded at tick t
}

// paperSensor is one pass's sensor of one dataset.
type paperSensor struct {
	set  *paperSet
	draw *paperDraw
	id   string
	txs  []*core.Transmission // what the sensor sent, in order
}

func setupPaper(rc runConfig, dir string, tr *tracer) ([]*paperSet, error) {
	gens := []func(int64) *datagen.Dataset{datagen.Weather, datagen.Stocks, datagen.PhoneCalls}
	seeds := sensorSeeds(rc.seed, len(gens)*paperDraws)
	var sets []*paperSet
	for k, gen := range gens {
		set := &paperSet{}
		for d := 0; d < paperDraws; d++ {
			ds := gen(seeds[k*paperDraws+d])
			ticks := make([][]float64, ds.Files*ds.FileLen)
			for t := range ticks {
				v := make([]float64, ds.N())
				for q, row := range ds.Rows {
					v[q] = row[t]
				}
				ticks[t] = v
			}
			set.draws = append(set.draws, &paperDraw{ds: ds, ticks: ticks})
		}
		ds := set.draws[0].ds
		set.name = ds.Name
		set.cfg = core.Config{
			TotalBand: int(paperBand * float64(ds.N()*ds.FileLen)),
			MBase:     ds.MBase,
			Metric:    metrics.SSE,
		}
		stk, err := openStack(filepath.Join(dir, ds.Name), set.cfg, tr.recorder(), nil)
		if err != nil {
			closePaper(sets)
			return nil, err
		}
		set.stk = stk
		sets = append(sets, set)
	}
	return sets, nil
}

func closePaper(sets []*paperSet) {
	for _, s := range sets {
		s.stk.close() //nolint:errcheck — tearing down a finished or failed run
	}
}

func runPaper(rc runConfig) (*report, error) {
	var tr *tracer
	if rc.traced {
		tr = newTracer(rc.seed)
	}
	var sets []*paperSet
	defer func() { closePaper(sets) }()
	setupS := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		closePaper(sets)
		for _, s := range sets {
			os.RemoveAll(s.stk.dir)
		}
		sets = nil
		t0 := time.Now()
		s, err := setupPaper(rc, filepath.Join(rc.root, fmt.Sprintf("setup%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sets = s
	}

	o := &observations{frameQ: paperFrameQ, sse: map[string][]float64{}, kindMS: map[string][]float64{}, tr: tr}
	encReg := obs.NewRegistry()
	regs := func() regSnap {
		var rs []*obs.Registry
		for _, s := range sets {
			rs = append(rs, s.stk.reg)
		}
		return snapRegs(rs...)
	}
	// Each sensor's batch rows are read back over /v1/range as soon as it
	// has streamed them, so the reads spread over the run as the encoding
	// does, and a slow spell of the host lands on a share of each rather
	// than on all of one. Every read is checked bit for bit against a local
	// core.Decoder replay of what the sensor sent, and against the
	// generated input for error_nmse. The pass and read-back rates count
	// only the time spent streaming and reading.
	client := newAPIClient()
	defer client.CloseIdleConnections()
	var frameMS, passRates, queryMS, readRates []float64
	var passes [][]*paperSensor
	var values, wireBytes int
	var streamT, readT time.Duration
	var errAcc nmse
	settle()
	o.encode[0], o.ingest[0], o.mem = snapRegs(encReg), regs(), markMem()
	o.query[0], o.store[0] = o.ingest[0], storeStats(stacksOf(sets)...)
	steal := markSteal()
	start := time.Now()
	deadline := start.Add(rc.phaseLen())
	for pass := 0; pass < paperDraws || time.Now().Before(deadline); pass++ {
		var sensors []*paperSensor
		var pv, nq int
		var passStream, passRead time.Duration
		for _, set := range sets {
			ps := &paperSensor{set: set, draw: set.draws[pass%paperDraws], id: fmt.Sprintf("%s-p%02d", set.name, pass)}
			s0 := time.Now()
			if err := streamPaper(ps, o, encReg, &frameMS, &wireBytes); err != nil {
				return nil, fmt.Errorf("sensor %s: every batch is acked: %w", ps.id, err)
			}
			passStream += time.Since(s0)
			sensors = append(sensors, ps)
			pv += ps.draw.ds.N() * ps.draw.ds.FileLen * len(ps.txs)

			r0 := time.Now()
			n, err := readBackPaper(client, ps, tr, &queryMS, &errAcc)
			passRead += time.Since(r0)
			nq += n
			if err != nil {
				return nil, err
			}
		}
		passes = append(passes, sensors)
		passRates = append(passRates, float64(pv)/passStream.Seconds())
		readRates = append(readRates, float64(nq)/passRead.Seconds())
		streamT += passStream
		readT += passRead
		values += pv
	}
	phase := time.Since(start)
	fmt.Println(steal.line("timed_phase"))
	o.allocB, o.gcMS = o.mem.since()
	o.encode[1], o.ingest[1] = snapRegs(encReg), regs()
	o.query[1], o.store[1] = o.ingest[1], storeStats(stacksOf(sets)...)
	o.ops = len(frameMS)
	o.queries = len(queryMS)
	o.kindMS["range"] = queryMS

	rep := newReport()
	rep.attempted = len(frameMS) + len(queryMS)
	var diskB int64
	for _, s := range sets {
		b, err := dirBytes(s.stk.dir)
		if err != nil {
			return nil, err
		}
		diskB += b
		d, err := splitDisk(s.stk.dir)
		if err != nil {
			return nil, err
		}
		o.disk.records += d.records
		o.disk.overhead += d.overhead
		o.disk.frames += d.frames
		o.disk.files += d.files
	}

	// Restarts: stationd's shutdown, then segstore.Open + Station.Recover
	// until the first query answers, on all three stations.
	var recoverS []float64
	for r := 0; r < paperRestarts; r++ {
		var total time.Duration
		for _, set := range sets {
			if err := set.stk.close(); err != nil {
				return nil, fmt.Errorf("restart: closing station: %w", err)
			}
			rtr, root := tr.begin(set.name, "bench.restart")
			t0 := time.Now()
			ns, d, err := set.stk.reopen(client, set.name+"-p00", root)
			tr.finish("restart", rtr, root, t0)
			if err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			set.stk = ns
			total += d
			o.openS = append(o.openS, ns.openDur.Seconds())
			o.recoverS = append(o.recoverS, ns.recoverDur.Seconds())
		}
		recoverS = append(recoverS, total.Seconds())
	}
	rep.attempted += paperRestarts * len(sets)
	// The recovered stations answer exactly as before the restarts.
	for _, ps := range passes[0] {
		if err := checkPaperRecovered(client, ps); err != nil {
			return nil, err
		}
	}

	if rc.traced {
		perLayer(rep, o)
		return rep, nil
	}
	return rep, endToEnd(rep, figures{
		setupS: setupS, recoverS: recoverS,
		valueRate: median(passRates),
		rateNote:  fmt.Sprintf("median of %d passes; values=%d over %.2fs streaming of a %.2fs phase", len(passRates), values, streamT.Seconds(), phase.Seconds()),
		values:    values, frameMS: frameMS, frameQ: paperFrameQ,
		queryRate: median(readRates),
		queryNote: fmt.Sprintf("median of %d pass read-backs; queries=%d over %.2fs reading", len(readRates), len(queryMS), readT.Seconds()),
		queryMS:   queryMS, queryQ: paperQueryQ,
		wireBytes: wireBytes, diskBytes: diskB, archived: values, err: &errAcc,
	})
}

func stacksOf(sets []*paperSet) []*stack {
	out := make([]*stack, len(sets))
	for i, s := range sets {
		out[i] = s.stk
	}
	return out
}

// streamPaper records every tick of the dataset through a fresh sensor
// whose sink sends each batch over its own netio connection. A batch's
// frame time runs from the Record call that completes it to its ack, so
// it includes the encode.
func streamPaper(ps *paperSensor, o *observations, encReg *obs.Registry, frameMS *[]float64, wireBytes *int) error {
	set, ds, tr := ps.set, ps.draw.ds, o.tr
	t0 := time.Now()
	cl, err := netio.Dial(set.stk.tcpAddr, ps.id)
	o.dialMS = append(o.dialMS, ms(time.Since(t0)))
	if err != nil {
		return err
	}
	defer cl.Close()

	var sinkD time.Duration
	var root *trace.Span
	var traceID trace.ID
	sink := func(t *core.Transmission, frame []byte) error {
		s0 := time.Now()
		ssp := root.Child("bench.sink")
		defer ssp.End()
		if traceID != 0 {
			var err error
			if frame, err = wire.EncodeTraced(t, wire.TraceContext{ID: uint64(traceID), Sampled: true}); err != nil {
				return err
			}
		}
		sp := ssp.Child("bench.send")
		c0 := time.Now()
		err := cl.Send(frame)
		o.sendMS = append(o.sendMS, ms(time.Since(c0)))
		sp.End()
		o.frameLens = append(o.frameLens, float64(len(frame)))
		*wireBytes += len(frame)
		o.sse[set.name] = append(o.sse[set.name], t.TotalErr)
		ps.txs = append(ps.txs, t)
		sinkD = time.Since(s0)
		return err
	}
	sens, err := sensor.New(sensor.Config{Core: set.cfg, Quantities: ds.N(), BatchLen: ds.FileLen}, sink)
	if err != nil {
		return err
	}
	sens.Instrument(encReg)
	m := ds.FileLen
	for tick, sample := range ps.draw.ticks {
		if (tick+1)%m != 0 {
			if err := sens.Record(sample...); err != nil {
				return err
			}
			continue
		}
		traced := tr != nil && (tick/m)%2 == 1
		var btr *trace.Trace
		if traced {
			btr, root = tr.begin(ps.id, "bench.record")
			traceID = btr.TraceID()
		}
		r0 := time.Now()
		err := sens.Record(sample...)
		d := time.Since(r0)
		tr.finish("frame", btr, root, r0)
		root, traceID = nil, 0
		tr.opTime(traced, d)
		*frameMS = append(*frameMS, ms(d))
		o.encodeMS = append(o.encodeMS, ms(d-sinkD))
		if err != nil {
			return err
		}
	}
	return nil
}

// readBackPaper reads one sensor's batches row by row over /v1/range,
// and checks them against a core.Decoder replay of its transmissions.
func readBackPaper(client *apiClient, ps *paperSensor, tr *tracer, queryMS *[]float64, errAcc *nmse) (int, error) {
	set, ds := ps.set, ps.draw.ds
	dec, err := core.NewDecoder(set.cfg)
	if err != nil {
		return 0, err
	}
	m := ds.FileLen
	want := make([][]float64, ds.N()) // reference reconstruction per row
	for _, t := range ps.txs {
		rows, err := dec.Decode(t)
		if err != nil {
			return 0, fmt.Errorf("reference decode of %s: %w", ps.id, err)
		}
		for q, r := range rows {
			want[q] = append(want[q], r...)
		}
	}
	n := 0
	for q := range want {
		got := make([]float64, 0, len(want[q]))
		for f := 0; f < len(ps.txs); f++ {
			qtr, root := tr.beginQuery(set.stk.st, tr.flip(), ps.id)
			t0 := time.Now()
			a, d, err := client.readRange(set.stk.httpAddr, ps.id, q, f*m, (f+1)*m, qtr.TraceID())
			tr.finish("query", qtr, root, t0)
			n++
			if err != nil {
				return n, fmt.Errorf("read-back of %s row %d batch %d: %w", ps.id, q, f, err)
			}
			*queryMS = append(*queryMS, ms(d))
			got = append(got, a.Values...)
		}
		if !sameBits(got, want[q]) {
			return n, fmt.Errorf("read-back of %s row %d: station reconstruction differs from the core.Decoder replay", ps.id, q)
		}
		if err := errAcc.add(ds.Rows[q][:len(got)], got); err != nil {
			return n, err
		}
	}
	// Queries switch the station's recorder on and off; the frames that
	// follow are traced again.
	if tr != nil {
		set.stk.st.SetTracer(tr.rec)
	}
	return n, nil
}

// checkPaperRecovered re-reads the first batch of every row after the
// restarts and compares it with a fresh core.Decoder replay.
func checkPaperRecovered(client *apiClient, ps *paperSensor) error {
	dec, err := core.NewDecoder(ps.set.cfg)
	if err != nil {
		return err
	}
	rows, err := dec.Decode(ps.txs[0])
	if err != nil {
		return err
	}
	m := ps.draw.ds.FileLen
	for q, want := range rows {
		a, _, err := client.readRange(ps.set.stk.httpAddr, ps.id, q, 0, m, 0)
		if err != nil {
			return fmt.Errorf("after restart, %s row %d: %w", ps.id, q, err)
		}
		if !sameBits(a.Values, want) {
			return fmt.Errorf("after restart, %s row %d: answer differs from before", ps.id, q)
		}
	}
	return nil
}
