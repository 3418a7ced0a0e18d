package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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

// ingest_fleet is the duty-cycled uplink: 64 weather sensors (M=64, 10%
// bandwidth) whose frames are encoded at set-up, uploaded over two
// connections. Each connection dials one sensor, uploads a burst of its
// backlog, hangs up and dials the next; sensors far outnumber
// connections. netio, the station receive path and segstore's append,
// seal and manifest writes do all the work; encoding does none. The timed
// phase uploads the whole backlog, sized to take about --seconds here, so
// every run leaves the same archive behind: the reads, the restarts and
// the memory high-water mark that follow measure the same work each time.
// After it a seeded sample of points is read, the station restarts three
// times, and the same points must read the same.

const (
	fleetN         = 6    // weather quantities
	fleetM         = 64   // samples per quantity per frame
	fleetMBase     = 64   // cmd/stationd's -mbase default
	ingestSensors  = 64   // sensors in the fleet
	ingestConns    = 2    // upload connections open at once (nproc is 2)
	ingestBurst    = 32   // frames per upload session
	ingestBacklog  = 140  // frames per sensor per second of --seconds: ~9k frames/s here
	ingestPoints   = 2000 // point reads after the timed phase
	ingestSeries   = 12   // series read back whole for error_nmse
	ingestRestarts = 3    // restarts after the reads; recover_s is their median
	ingestFrameQ   = 0.99 // frame tail: the seal and manifest rewrite every 64 appends
	// ingestQueryQ is the point-read tail. The reads are alike (one cold
	// segment decode each); above p80 they show host stalls (CPU steal),
	// not the station, and differ from run to run.
	ingestQueryQ = 0.80
)

// fleetConfig is the station and sensor configuration of the weather
// fleets: 10% of each 6×64 batch.
func fleetConfig() core.Config {
	batch := float64(fleetN * fleetM)
	return core.Config{TotalBand: int(paperBand * batch), MBase: fleetMBase, Metric: metrics.SSE}
}

// fleetSensor is one sensor's pre-encoded backlog.
type fleetSensor struct {
	id     string
	seed   int64    // datagen seed of its input
	frames [][]byte // plain frames, in order
	traced [][]byte // the same frames carrying trace context (traced run)
	ids    []trace.ID
	acked  int // frames acknowledged
}

// encodeFleetSensor generates a sensor's weather input and encodes it
// tick by tick through sensor.Sensor.Record, collecting the frames.
func encodeFleetSensor(fs *fleetSensor, frames int, tr *tracer, o *observations, encReg *obs.Registry) error {
	ds := datagen.WeatherSized(fs.seed, fleetM, frames)
	var sinkD time.Duration
	sink := func(t *core.Transmission, frame []byte) error {
		s0 := time.Now()
		fs.frames = append(fs.frames, frame)
		o.sse["weather"] = append(o.sse["weather"], t.TotalErr)
		if tr != nil {
			id := tr.newID()
			tf, err := wire.EncodeTraced(t, wire.TraceContext{ID: uint64(id), Sampled: true})
			if err != nil {
				return err
			}
			fs.traced = append(fs.traced, tf)
			fs.ids = append(fs.ids, id)
		}
		sinkD = time.Since(s0)
		return nil
	}
	sens, err := sensor.New(sensor.Config{Core: fleetConfig(), Quantities: fleetN, BatchLen: fleetM}, sink)
	if err != nil {
		return err
	}
	sens.Instrument(encReg)
	sample := make([]float64, fleetN)
	n := len(ds.Rows[0])
	for t := 0; t < n; t++ {
		for q, row := range ds.Rows {
			sample[q] = row[t]
		}
		if (t+1)%fleetM != 0 {
			if err := sens.Record(sample...); err != nil {
				return err
			}
			continue
		}
		r0 := time.Now()
		err := sens.Record(sample...)
		o.encodeMS = append(o.encodeMS, ms(time.Since(r0)-sinkD))
		if err != nil {
			return err
		}
	}
	return nil
}

// sensorSeeds draws each sensor's input seed from the run seed.
func sensorSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

func runIngest(rc runConfig) (*report, error) {
	var tr *tracer
	if rc.traced {
		tr = newTracer(rc.seed)
	}
	perSensor := ingestBacklog * rc.seconds
	var stk *stack
	defer func() {
		if stk != nil {
			stk.close() //nolint:errcheck — tearing down a finished or failed run
		}
	}()
	var sensors []*fleetSensor
	var o *observations
	setupS := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if stk != nil {
			stk.close() //nolint:errcheck — discarding an earlier set-up
			os.RemoveAll(stk.dir)
			stk = nil
		}
		o = &observations{frameQ: ingestFrameQ, sse: map[string][]float64{}, kindMS: map[string][]float64{}, tr: tr}
		encReg := obs.NewRegistry()
		o.encode[0] = snapRegs(encReg)
		t0 := time.Now()
		sensors = nil
		for s, seed := range sensorSeeds(rc.seed, ingestSensors) {
			fs := &fleetSensor{id: fmt.Sprintf("w%02d", s), seed: seed}
			if err := encodeFleetSensor(fs, perSensor, tr, o, encReg); err != nil {
				return nil, fmt.Errorf("set-up: encoding %s: %w", fs.id, err)
			}
			sensors = append(sensors, fs)
		}
		var err error
		stk, err = openStack(filepath.Join(rc.root, fmt.Sprintf("setup%d", i)), fleetConfig(), tr.recorder(), nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		o.encode[1] = snapRegs(encReg)
	}

	// Timed phase: two connections upload bursts until every backlog is
	// sent. The deadline only bounds a run on a much slower machine.
	var frameMS []float64
	settle()
	o.ingest[0], o.mem = snapRegs(stk.reg), markMem()
	steal := markSteal()
	start := time.Now()
	up := &uploader{stk: stk, tr: tr, deadline: start.Add(3 * rc.phaseLen()), start: start}
	var wg sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		var mine []*fleetSensor
		for s := c; s < len(sensors); s += ingestConns {
			mine = append(mine, sensors[s])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			up.run(mine)
		}()
	}
	wg.Wait()
	phase := time.Since(start)
	fmt.Println(steal.line("timed_phase"))
	if err := up.failure(); err != nil {
		return nil, fmt.Errorf("every frame is acked: %w", err)
	}
	o.allocB, o.gcMS = o.mem.since()
	o.ingest[1] = snapRegs(stk.reg)
	frameMS = up.frameMS
	o.sendMS, o.dialMS, o.frameLens, o.manifest = up.frameMS, up.dialMS, up.frameLens, up.manifest
	o.ops = len(frameMS)

	rep := newReport()
	rep.attempted = len(frameMS)
	var acked, wireBytes int
	for _, fs := range sensors {
		acked += fs.acked
		for _, f := range fs.frames[:fs.acked] {
			wireBytes += len(f)
		}
		if fs.acked == 0 {
			continue
		}
		hl, err := stk.st.HistoryLen(fs.id)
		if err != nil {
			return nil, fmt.Errorf("HistoryLen check: %w", err)
		}
		if hl != fs.acked*fleetM {
			return nil, fmt.Errorf("HistoryLen check: sensor %s has %d samples, acked %d frames × %d", fs.id, hl, fs.acked, fleetM)
		}
	}
	values := acked * fleetN * fleetM
	diskB, err := dirBytes(stk.dir)
	if err != nil {
		return nil, err
	}
	if o.disk, err = splitDisk(stk.dir); err != nil {
		return nil, err
	}

	// Read phase: a seeded sample of points, closed loop, one connection.
	client := newAPIClient()
	defer client.CloseIdleConnections()
	points := samplePoints(rc.seed, sensors, ingestPoints)
	settle()
	o.query[0], o.store[0] = snapRegs(stk.reg), storeStats(stk)
	qstart := time.Now()
	before, queryMS, answers, err := readPoints(client, stk, points, tr)
	qphase := time.Since(qstart)
	if err != nil {
		return nil, err
	}
	o.query[1], o.store[1] = snapRegs(stk.reg), storeStats(stk)
	o.queries, o.kindMS["point"] = len(points), queryMS
	rep.attempted += len(points)

	var errAcc nmse
	if err := readBackFleet(client, stk, sensors, rc.seed, ingestSeries, &errAcc); err != nil {
		return nil, err
	}

	// Restarts: recovering this archive takes seconds, and one recovery
	// differs from the next by up to a fifth, so recover_s is the median
	// of ingestRestarts.
	var recoverS []float64
	for r := 0; r < ingestRestarts; r++ {
		if err := stk.close(); err != nil {
			return nil, fmt.Errorf("restart: closing station: %w", err)
		}
		rtr, root := tr.begin(sensors[0].id, "bench.restart")
		t0 := time.Now()
		ns, d, err := stk.reopen(client, sensors[0].id, root)
		tr.finish("restart", rtr, root, t0)
		if err != nil {
			stk = nil
			return nil, fmt.Errorf("restart: %w", err)
		}
		stk = ns
		recoverS = append(recoverS, d.Seconds())
		o.openS = append(o.openS, ns.openDur.Seconds())
		o.recoverS = append(o.recoverS, ns.recoverDur.Seconds())
	}
	rep.attempted += ingestRestarts
	after, _, _, err := readPoints(client, stk, points, nil)
	if err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	for i, p := range points {
		if after[i] != before[i] {
			return nil, fmt.Errorf("point answers survive restart: %s row %d idx %d read %v before, %v after",
				p.sensor, p.row, p.idx, before[i], after[i])
		}
	}

	if rc.traced {
		perLayer(rep, o)
		return rep, nil
	}
	return rep, endToEnd(rep, figures{
		setupS: setupS, recoverS: recoverS,
		valueRate: windowRate(up.acks, phase.Seconds()),
		rateNote:  fmt.Sprintf("median of %d windows; frames=%d over %.2fs", rateWindows, acked, phase.Seconds()),
		queryRate: windowRate(answers, qphase.Seconds()),
		queryNote: fmt.Sprintf("median of %d windows; point reads=%d over %.2fs", rateWindows, len(points), qphase.Seconds()),
		values:    values, frameMS: frameMS, frameQ: ingestFrameQ, queryMS: queryMS, queryQ: ingestQueryQ,
		wireBytes: wireBytes, diskBytes: diskB, archived: values, err: &errAcc,
	})
}

// uploader runs the upload connections of ingest_fleet.
type uploader struct {
	stk             *stack
	tr              *tracer
	start, deadline time.Time

	mu        sync.Mutex
	err       error
	stop      atomic.Bool
	frameMS   []float64
	acks      []event
	dialMS    []float64
	frameLens []float64
	manifest  []float64
}

// tracedSlice reports whether the traced run traces work started now:
// tracing alternates in 250 ms slices, so traced and untraced frames
// share the run's conditions and trace.overhead compares like with like.
func tracedSlice(tr *tracer, start time.Time) bool {
	return tr != nil && (time.Since(start)/(250*time.Millisecond))%2 == 1
}

// run is one connection: round-robin over its sensors, one burst each,
// until the deadline or every backlog is sent.
func (u *uploader) run(mine []*fleetSensor) {
	var frameMS, dialMS, lens, manifest []float64
	var acks []event
	defer func() {
		u.mu.Lock()
		u.frameMS = append(u.frameMS, frameMS...)
		u.acks = append(u.acks, acks...)
		u.dialMS = append(u.dialMS, dialMS...)
		u.frameLens = append(u.frameLens, lens...)
		u.manifest = append(u.manifest, manifest...)
		u.mu.Unlock()
	}()
	for k := 0; !u.stop.Load() && time.Now().Before(u.deadline); k++ {
		fs := mine[k%len(mine)]
		if fs.acked == len(fs.frames) {
			if allSent(mine) {
				return
			}
			continue
		}
		traced := tracedSlice(u.tr, u.start)
		var dtr *trace.Trace
		var dsp *trace.Span
		if traced {
			dtr, dsp = u.tr.begin(fs.id, "bench.dial")
		}
		t0 := time.Now()
		cl, err := netio.Dial(u.stk.tcpAddr, fs.id)
		dialMS = append(dialMS, ms(time.Since(t0)))
		u.tr.finish("dial", dtr, dsp, t0)
		if err != nil {
			u.fail(err)
			return
		}
		for b := 0; b < ingestBurst && fs.acked < len(fs.frames) && time.Now().Before(u.deadline); b++ {
			frame := fs.frames[fs.acked]
			var ftr *trace.Trace
			var fsp *trace.Span
			if traced {
				frame = fs.traced[fs.acked]
				ftr = u.tr.rec.Continue(fs.ids[fs.acked], fs.id)
				fsp = ftr.StartSpan("bench.send")
			}
			s0 := time.Now()
			err := cl.Send(frame)
			d := time.Since(s0)
			u.tr.finish("frame", ftr, fsp, s0)
			u.tr.opTime(traced, d)
			if err != nil {
				cl.Close()
				u.fail(fmt.Errorf("sensor %s frame %d: %w", fs.id, fs.acked, err))
				return
			}
			frameMS = append(frameMS, ms(d))
			at := s0.Sub(u.start).Seconds()
			acks = append(acks, event{start: at, end: at + d.Seconds(), weight: fleetN * fleetM})
			lens = append(lens, float64(len(frame)))
			fs.acked++
			if traced && fs.acked%64 == 0 {
				// The append that fills a segment seals it and rewrites the
				// manifest before the ack.
				if size, err := statManifest(u.stk.dir); err == nil {
					manifest = append(manifest, size)
				}
			}
		}
		if err := cl.Close(); err != nil {
			u.fail(err)
			return
		}
	}
}

func allSent(ss []*fleetSensor) bool {
	for _, s := range ss {
		if s.acked < len(s.frames) {
			return false
		}
	}
	return true
}

func (u *uploader) fail(err error) {
	u.mu.Lock()
	if u.err == nil {
		u.err = err
	}
	u.mu.Unlock()
	u.stop.Store(true)
}

func (u *uploader) failure() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

// pointQuery is one /v1/point read.
type pointQuery struct {
	sensor   string
	row, idx int
}

// samplePoints draws n seeded points over the acknowledged history.
func samplePoints(seed int64, sensors []*fleetSensor, n int) []pointQuery {
	rng := rand.New(rand.NewSource(seed + 1))
	var live []*fleetSensor
	for _, s := range sensors {
		if s.acked > 0 {
			live = append(live, s)
		}
	}
	out := make([]pointQuery, n)
	for i := range out {
		s := live[rng.Intn(len(live))]
		out[i] = pointQuery{sensor: s.id, row: rng.Intn(fleetN), idx: rng.Intn(s.acked * fleetM)}
	}
	return out
}

// readPoints reads every point in order and returns the answers, each
// read's time, and the reads as events from the first one's start.
// Traced reads alternate with untraced ones.
func readPoints(client *apiClient, stk *stack, points []pointQuery, tr *tracer) ([]pointAnswer, []float64, []event, error) {
	answers := make([]pointAnswer, len(points))
	lat := make([]float64, 0, len(points))
	evs := make([]event, 0, len(points))
	start := time.Now()
	for i, p := range points {
		qtr, root := tr.beginQuery(stk.st, i%2 == 1, p.sensor)
		t0 := time.Now()
		a, err := client.point(stk.httpAddr, p.sensor, p.row, p.idx, qtr.TraceID())
		d := time.Since(t0)
		tr.finish("query", qtr, root, t0)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("point read %s row %d idx %d: %w", p.sensor, p.row, p.idx, err)
		}
		answers[i] = a
		lat = append(lat, ms(d))
		at := t0.Sub(start).Seconds()
		evs = append(evs, event{start: at, end: at + d.Seconds(), weight: 1})
	}
	if tr != nil {
		stk.st.SetTracer(tr.rec)
	}
	return answers, lat, evs, nil
}

// readBackFleet reads n seeded series back whole over /v1/range, checks
// each bit for bit against a core.Decoder replay of the frames the sensor
// had acknowledged, and folds it into errAcc against the regenerated
// input.
func readBackFleet(client *apiClient, stk *stack, sensors []*fleetSensor, seed int64, n int, errAcc *nmse) error {
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < n; i++ {
		fs := sensors[rng.Intn(len(sensors))]
		row := i % fleetN
		if fs.acked == 0 {
			continue
		}
		want, err := replay(fs.frames[:fs.acked])
		if err != nil {
			return fmt.Errorf("reference decode of %s: %w", fs.id, err)
		}
		a, _, err := client.readRange(stk.httpAddr, fs.id, row, 0, fs.acked*fleetM, 0)
		if err != nil {
			return fmt.Errorf("read-back of %s row %d: %w", fs.id, row, err)
		}
		if !sameBits(a.Values, want[row]) {
			return fmt.Errorf("read-back of %s row %d: station reconstruction differs from the core.Decoder replay", fs.id, row)
		}
		if err := errAcc.add(fleetInput(fs)[row][:len(a.Values)], a.Values); err != nil {
			return err
		}
	}
	return nil
}

// fleetInput regenerates a fleet sensor's input, one series per quantity.
func fleetInput(fs *fleetSensor) [][]float64 {
	ds := datagen.WeatherSized(fs.seed, fleetM, len(fs.frames))
	out := make([][]float64, len(ds.Rows))
	for q, row := range ds.Rows {
		out[q] = row
	}
	return out
}

// statManifest is the size of the segment store's MANIFEST.json.
func statManifest(dir string) (float64, error) {
	fi, err := os.Stat(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}

// replay decodes frames with a fresh core.Decoder and returns each
// quantity's reconstruction.
func replay(frames [][]byte) ([][]float64, error) {
	dec, err := core.NewDecoder(fleetConfig())
	if err != nil {
		return nil, err
	}
	out := make([][]float64, fleetN)
	for i, f := range frames {
		t, err := wire.DecodeBytes(f)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		rows, err := dec.Decode(t)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		if len(rows) != fleetN {
			return nil, errors.New("unexpected quantity count")
		}
		for q, r := range rows {
			out[q] = append(out[q], r...)
		}
	}
	return out, nil
}
