package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
)

// dashboard_live serves a dashboard beside live ingest. Set-up builds an
// archive of 32 weather sensors through the same durable path, closes it
// and recovers it. Then one HTTP keep-alive reader runs a closed-loop
// dashboard mix (windowed aggregates, recent ranges, full-history
// downsamples, points) while one netio writer appends to 4 live sensors
// open loop at a fixed rate. Pinned panels fit the 64-entry history LRU;
// drill-downs exceed it and the 4-segment decoded cache; half of all
// queries target the live sensors, whose every new frame invalidates
// their cached histories. httpapi, the station read path, the query
// index, segstore cold fetch and recovery do the work.

const (
	dashSensors = 32
	dashLive    = 4
	dashArchive = 600 // frames per sensor in the pre-built archive
	dashRate    = 200 // writer frames per second, open loop
	dashBurst   = 10  // writer frames per session: one live sensor per session
	dashPoints  = 240 // downsample resolution
	dashWindow  = 512 // recent-range and drill-down range length, samples
	dashPinned  = 0.3 // share of queries on pinned panels; the rest drill down
	dashQ       = 0.99
	// dashRestarts is how many more times each thrown-away set-up's
	// archive restarts; recover_s is the median over these and every
	// set-up's own recovery.
	dashRestarts = 3
)

// dashQuery is one dashboard query and the answer it got.
type dashQuery struct {
	kind     string // aggregate, range, downsample, point
	sensor   int
	row      int
	from, to int    // aggregate and range
	idx      int    // point
	agg      string // aggregate function
	minLen   int    // history samples acknowledged when the query was sent
	maxLen   int    // history samples sent to the station when it returned
	value    float64
	bound    float64
	values   []float64
}

// pinnedPanels are the dashboard's fixed (sensor, row) panels: four on
// live sensors, four on quiet ones — a working set well inside the
// history LRU. Drill-downs outnumber them (dashPinned), so the median
// query is a cold read and sits inside the dense band of segment decodes
// rather than on the gap between cache hits and misses, where a small
// shift in the mix would move it a lot.
var pinnedPanels = [8][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 0}, {7, 1}}

// queryGen draws the dashboard mix from a seeded generator.
type queryGen struct {
	rng *rand.Rand
}

// next draws one query against the history lengths known now.
func (g *queryGen) next(histLen func(sensor int) int) dashQuery {
	r := g.rng
	live := r.Intn(2) == 0
	pinned := r.Float64() < dashPinned
	var q dashQuery
	switch {
	case pinned && live:
		p := pinnedPanels[r.Intn(dashLive)]
		q.sensor, q.row = p[0], p[1]
	case pinned:
		p := pinnedPanels[dashLive+r.Intn(len(pinnedPanels)-dashLive)]
		q.sensor, q.row = p[0], p[1]
	case live:
		q.sensor, q.row = r.Intn(dashLive), r.Intn(fleetN)
	default:
		q.sensor, q.row = dashLive+r.Intn(dashSensors-dashLive), r.Intn(fleetN)
	}
	n := histLen(q.sensor)
	q.minLen = n
	switch k := r.Float64(); {
	case k < 0.3:
		q.kind = "aggregate"
		q.agg = [4]string{"avg", "sum", "min", "max"}[r.Intn(4)]
		span := fleetM*(1+r.Intn(32)) + r.Intn(fleetM)
		q.to = n
		if !pinned {
			q.to = span + r.Intn(n-span+1)
		}
		q.from = q.to - span
	case k < 0.6:
		q.kind = "range"
		q.to = n
		if !pinned {
			q.to = dashWindow + r.Intn(n-dashWindow+1)
		}
		q.from = q.to - dashWindow
	case k < 0.7:
		q.kind = "downsample"
	default:
		q.kind = "point"
		q.idx = n - 1 - r.Intn(dashWindow)
		if !pinned {
			q.idx = r.Intn(n)
		}
	}
	return q
}

// params renders the query string.
func (q *dashQuery) params(id string) url.Values {
	v := url.Values{"sensor": {id}, "row": {itoa(q.row)}}
	switch q.kind {
	case "aggregate":
		v.Set("from", itoa(q.from))
		v.Set("to", itoa(q.to))
		v.Set("kind", q.agg)
	case "range":
		v.Set("from", itoa(q.from))
		v.Set("to", itoa(q.to))
	case "downsample":
		v.Set("points", itoa(dashPoints))
	case "point":
		v.Set("idx", itoa(q.idx))
	}
	return v
}

func dashID(s int) string { return fmt.Sprintf("d%02d", s) }

// uploadAll sends every sensor's first n frames, one session per sensor,
// over ingestConns connections.
func uploadAll(stk *stack, sensors []*fleetSensor, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, ingestConns)
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := c; s < len(sensors); s += ingestConns {
				fs := sensors[s]
				cl, err := netio.Dial(stk.tcpAddr, fs.id)
				if err != nil {
					errs[c] = err
					return
				}
				for ; fs.acked < n; fs.acked++ {
					if err := cl.Send(fs.frames[fs.acked]); err != nil {
						cl.Close()
						errs[c] = fmt.Errorf("sensor %s frame %d: %w", fs.id, fs.acked, err)
						return
					}
				}
				if err := cl.Close(); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dashEnv is the state a dashboard set-up leaves behind.
type dashEnv struct {
	stk     *stack
	sensors []*fleetSensor
	client  *apiClient
	recover time.Duration
}

func setupDashboard(rc runConfig, dir string, tr *tracer, o *observations, encReg *obs.Registry) (*dashEnv, error) {
	scheduled := dashRate * rc.seconds
	perLive := dashArchive + (scheduled/(dashLive*dashBurst)+1)*dashBurst
	e := &dashEnv{client: newAPIClient()}
	for s, seed := range sensorSeeds(rc.seed, dashSensors) {
		fs := &fleetSensor{id: dashID(s), seed: seed}
		frames := dashArchive
		if s < dashLive {
			frames = perLive
		}
		if err := encodeFleetSensor(fs, frames, tr, o, encReg); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", fs.id, err)
		}
		e.sensors = append(e.sensors, fs)
	}
	stk, err := openStack(dir, fleetConfig(), tr.recorder(), nil)
	if err != nil {
		return nil, err
	}
	if err := uploadAll(stk, e.sensors, dashArchive); err != nil {
		stk.close()
		return nil, fmt.Errorf("building the archive: %w", err)
	}
	e.stk = stk
	if e.recover, err = e.restart(tr, o); err != nil {
		return nil, err
	}
	return e, nil
}

// restart closes the station and starts it again on the same archive. It
// returns the time from the start of segstore.Open until the first query
// answered.
func (e *dashEnv) restart(tr *tracer, o *observations) (time.Duration, error) {
	if err := e.stk.close(); err != nil {
		return 0, fmt.Errorf("closing the archive: %w", err)
	}
	rtr, root := tr.begin(dashID(0), "bench.restart")
	t0 := time.Now()
	ns, d, err := e.stk.reopen(e.client, dashID(0), root)
	tr.finish("restart", rtr, root, t0)
	if err != nil {
		return 0, err
	}
	e.stk = ns
	o.openS = append(o.openS, ns.openDur.Seconds())
	o.recoverS = append(o.recoverS, ns.recoverDur.Seconds())
	return d, nil
}

func runDashboard(rc runConfig) (*report, error) {
	var tr *tracer
	if rc.traced {
		tr = newTracer(rc.seed)
	}
	var e *dashEnv
	defer func() {
		if e != nil {
			e.stk.close() //nolint:errcheck — tearing down a finished or failed run
			e.client.CloseIdleConnections()
		}
	}()
	var o *observations
	setupS := make([]float64, 0, setupReps)
	var recoverS []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.stk.close() //nolint:errcheck — discarding an earlier set-up
			e.client.CloseIdleConnections()
			os.RemoveAll(e.stk.dir)
			e = nil
		}
		prev := o
		o = &observations{frameQ: dashQ, sse: map[string][]float64{}, kindMS: map[string][]float64{}, tr: tr}
		if prev != nil {
			o.openS, o.recoverS = prev.openS, prev.recoverS
		}
		encReg := obs.NewRegistry()
		o.encode[0] = snapRegs(encReg)
		t0 := time.Now()
		ne, err := setupDashboard(rc, filepath.Join(rc.root, fmt.Sprintf("setup%d", i)), tr, o, encReg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		recoverS = append(recoverS, ne.recover.Seconds())
		o.encode[1] = snapRegs(encReg)
		e = ne
		// The archives of the set-ups thrown away restart a few times
		// more: one recovery differs from the next by up to a fifth. The
		// last set-up's archive stays as one restart leaves it.
		for r := 0; i < setupReps-1 && r < dashRestarts; r++ {
			d, err := e.restart(tr, o)
			if err != nil {
				e.client.CloseIdleConnections()
				e = nil
				return nil, fmt.Errorf("restart: %w", err)
			}
			recoverS = append(recoverS, d.Seconds())
		}
	}
	stk := e.stk
	live := e.sensors[:dashLive]
	var sent [dashLive]atomic.Int64 // frames handed to Send, per live sensor
	var acked [dashLive]atomic.Int64
	for i, fs := range live {
		sent[i].Store(int64(fs.acked))
		acked[i].Store(int64(fs.acked))
	}
	histLen := func(s int) int {
		if s < dashLive {
			return int(acked[s].Load()) * fleetM
		}
		return dashArchive * fleetM
	}

	settle()
	o.ingest[0], o.query[0], o.store[0], o.mem = snapRegs(stk.reg), snapRegs(stk.reg), storeStats(stk), markMem()
	steal := markSteal()
	start := time.Now()
	deadline := start.Add(rc.phaseLen())
	var wg sync.WaitGroup
	w := &writer{stk: stk, tr: tr, live: live, sent: &sent, acked: &acked, start: start, deadline: deadline}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run()
	}()
	gen := &queryGen{rng: rand.New(rand.NewSource(rc.seed + 3))}
	var queries []dashQuery
	var queryMS []float64
	var answers []event
	var readErr error
	for time.Now().Before(deadline) {
		q := gen.next(histLen)
		traced := tracedSlice(tr, start)
		qtr, root := tr.beginQuery(stk.st, traced, dashID(q.sensor))
		t0 := time.Now()
		d, err := ask(e.client, stk.httpAddr, &q, qtr.TraceID())
		tr.finish("query", qtr, root, t0)
		tr.opTime(traced, d)
		if err != nil {
			readErr = fmt.Errorf("%s query on %s: %w", q.kind, dashID(q.sensor), err)
			break
		}
		if q.sensor < dashLive {
			q.maxLen = int(sent[q.sensor].Load()) * fleetM
		} else {
			q.maxLen = q.minLen
		}
		queries = append(queries, q)
		queryMS = append(queryMS, ms(d))
		at := t0.Sub(start).Seconds()
		answers = append(answers, event{start: at, end: at + d.Seconds(), weight: 1})
		o.kindMS[q.kind] = append(o.kindMS[q.kind], ms(d))
	}
	qphase := time.Since(start)
	w.stop.Store(true)
	wg.Wait()
	phase := time.Since(start)
	fmt.Println(steal.line("timed_phase"))
	if tr != nil {
		stk.st.SetTracer(tr.rec)
	}
	if readErr != nil {
		return nil, readErr
	}
	if err := w.failure(); err != nil {
		return nil, fmt.Errorf("every frame is acked: %w", err)
	}
	o.allocB, o.gcMS = o.mem.since()
	o.ingest[1], o.query[1], o.store[1] = snapRegs(stk.reg), snapRegs(stk.reg), storeStats(stk)
	o.queries, o.ops = len(queries), len(queries)+len(w.frameMS)
	o.sendMS, o.dialMS, o.frameLens, o.lateMS, o.manifest = w.sendMS, w.dialMS, w.frameLens, w.lateMS, w.manifest

	rep := newReport()
	rep.attempted = len(queries) + len(w.frameMS)
	diskB, err := dirBytes(stk.dir)
	if err != nil {
		return nil, err
	}
	if o.disk, err = splitDisk(stk.dir); err != nil {
		return nil, err
	}
	if err := checkDashboard(e.sensors, queries); err != nil {
		return nil, err
	}
	var errAcc nmse
	var values, wireBytes int
	for _, fs := range live {
		values += (fs.acked - dashArchive) * fleetN * fleetM
		for _, f := range fs.frames[dashArchive:fs.acked] {
			wireBytes += len(f)
		}
		ref, err := replay(fs.frames[:fs.acked])
		if err != nil {
			return nil, fmt.Errorf("reference decode of %s: %w", fs.id, err)
		}
		input := fleetInput(fs)
		for row := 0; row < fleetN; row++ {
			a, _, err := e.client.readRange(stk.httpAddr, fs.id, row, 0, fs.acked*fleetM, 0)
			if err != nil {
				return nil, fmt.Errorf("read-back of %s row %d: %w", fs.id, row, err)
			}
			if !sameBits(a.Values, ref[row]) {
				return nil, fmt.Errorf("read-back of %s row %d: station reconstruction differs from the core.Decoder replay", fs.id, row)
			}
			if err := errAcc.add(input[row][:len(a.Values)], a.Values); err != nil {
				return nil, err
			}
		}
	}
	archived := 0
	for _, fs := range e.sensors {
		archived += fs.acked * fleetN * fleetM
	}

	if rc.traced {
		perLayer(rep, o)
		return rep, nil
	}
	return rep, endToEnd(rep, figures{
		setupS: setupS, recoverS: recoverS,
		valueRate: windowRate(w.acks, phase.Seconds()),
		rateNote:  fmt.Sprintf("median of %d windows; writer frames=%d offered at %d/s", rateWindows, len(w.frameMS), dashRate),
		queryRate: windowRate(answers, qphase.Seconds()),
		queryNote: fmt.Sprintf("median of %d windows; queries=%d beside the writer", rateWindows, len(queries)),
		values:    values, frameMS: w.frameMS, frameQ: dashQ, queryMS: queryMS, queryQ: dashQ,
		wireBytes: wireBytes, diskBytes: diskB, archived: archived, err: &errAcc,
	})
}

// ask sends one dashboard query and stores its answer in q.
func ask(client *apiClient, addr string, q *dashQuery, id trace.ID) (time.Duration, error) {
	body, d, err := client.get(addr, "/v1/"+q.kind, q.params(dashID(q.sensor)), id)
	if err != nil {
		return d, err
	}
	var a struct {
		Value  float64   `json:"value"`
		Bound  float64   `json:"bound"`
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return d, err
	}
	q.value, q.bound, q.values = a.Value, a.Bound, a.Values
	return d, nil
}

// checkDashboard compares every answer with the reference decoder's
// answer to the same query.
func checkDashboard(sensors []*fleetSensor, queries []dashQuery) error {
	refs := make(map[int][][]float64)
	for i, q := range queries {
		ref, ok := refs[q.sensor]
		if !ok {
			fs := sensors[q.sensor]
			var err error
			if ref, err = replay(fs.frames[:fs.acked]); err != nil {
				return fmt.Errorf("reference decode of %s: %w", fs.id, err)
			}
			refs[q.sensor] = ref
		}
		if err := checkAnswer(&q, ref[q.row]); err != nil {
			return fmt.Errorf("answers match the reference: query %d (%s %s row %d): %w", i, q.kind, dashID(q.sensor), q.row, err)
		}
	}
	return nil
}

// checkAnswer checks one answer against the reference history of its
// quantity. Samples compare bit for bit; aggregates, which the station
// sums in index order, compare within rounding of the sum of magnitudes.
func checkAnswer(q *dashQuery, ref []float64) error {
	if q.bound != 0 {
		return fmt.Errorf("bound %v, want 0 under the SSE metric", q.bound)
	}
	switch q.kind {
	case "point":
		if math.Float64bits(q.value) != math.Float64bits(ref[q.idx]) {
			return fmt.Errorf("value %v, want %v", q.value, ref[q.idx])
		}
	case "range":
		if !sameBits(q.values, ref[q.from:q.to]) {
			return fmt.Errorf("values differ from the reference")
		}
	case "downsample":
		for n := q.minLen; n <= q.maxLen; n += fleetM {
			if sameBits(q.values, downsample(ref[:n], dashPoints)) {
				return nil
			}
		}
		return fmt.Errorf("values match no history length in [%d, %d]", q.minLen, q.maxLen)
	case "aggregate":
		want, scale := aggregate(ref[q.from:q.to], q.agg)
		if math.Abs(q.value-want) > 1e-9*scale {
			return fmt.Errorf("%s %v, want %v", q.agg, q.value, want)
		}
	}
	return nil
}

// downsample window-averages hist to at most points values.
func downsample(hist []float64, points int) []float64 {
	if points >= len(hist) {
		return hist
	}
	factor := (len(hist) + points - 1) / points
	var out []float64
	for lo := 0; lo < len(hist); lo += factor {
		hi := min(lo+factor, len(hist))
		var sum float64
		for _, v := range hist[lo:hi] {
			sum += v
		}
		out = append(out, sum/float64(hi-lo))
	}
	return out
}

// aggregate computes an aggregate over xs and the tolerance scale its
// floating-point summation order allows.
func aggregate(xs []float64, kind string) (value, scale float64) {
	sum, abs := 0.0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		sum += v
		abs += math.Abs(v)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	switch kind {
	case "avg":
		return sum / float64(len(xs)), abs / float64(len(xs))
	case "sum":
		return sum, abs
	case "min":
		return lo, 0
	}
	return hi, 0
}

// writer is the open-loop writer of dashboard_live: frame j is due at
// start + j/dashRate and goes to live sensor (j/dashBurst) mod 4, one
// netio session per burst. A frame's time runs from when it was due, so
// a stall also counts against the frames queued behind it.
type writer struct {
	stk             *stack
	tr              *tracer
	live            []*fleetSensor
	sent, acked     *[dashLive]atomic.Int64
	start, deadline time.Time
	stop            atomic.Bool

	err                                        error
	frameMS, sendMS, dialMS, frameLens, lateMS []float64
	manifest                                   []float64
	acks                                       []event
}

func (w *writer) failure() error { return w.err }

// schedule is the open-loop writer's timetable: frame j is due at
// start + j×interval, whatever happened to the frames before it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(j int) time.Time { return s.start.Add(time.Duration(j) * s.interval) }

// account splits frame j's time: how late its send started after it was
// due, and its time from due to ack.
func (s schedule) account(j int, sendAt, ackAt time.Time) (late, frame time.Duration) {
	d := s.due(j)
	return sendAt.Sub(d), ackAt.Sub(d)
}

func (w *writer) run() {
	sched := schedule{start: w.start, interval: time.Second / dashRate}
	cur := -1
	var cl *netio.Client
	defer func() {
		if cl != nil {
			if err := cl.Close(); err != nil && w.err == nil {
				w.err = err
			}
		}
	}()
	for j := 0; !w.stop.Load(); j++ {
		due := sched.due(j)
		if !due.Before(w.deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sendAt := time.Now()
		k := (j / dashBurst) % dashLive
		fs := w.live[k]
		traced := tracedSlice(w.tr, w.start)
		var ftr *trace.Trace
		if traced {
			ftr = w.tr.rec.Continue(fs.ids[fs.acked], fs.id)
		}
		if k != cur {
			if cl != nil {
				if err := cl.Close(); err != nil {
					w.err = err
					return
				}
				cl = nil
			}
			dsp := ftr.StartSpan("bench.dial")
			t0 := time.Now()
			c, err := netio.Dial(w.stk.tcpAddr, fs.id)
			w.dialMS = append(w.dialMS, ms(time.Since(t0)))
			dsp.End()
			if err != nil {
				w.err = err
				return
			}
			cl, cur = c, k
		}
		frame := fs.frames[fs.acked]
		if traced {
			frame = fs.traced[fs.acked]
		}
		sp := ftr.StartSpan("bench.send")
		w.sent[k].Add(1)
		s0 := time.Now()
		err := cl.Send(frame)
		w.sendMS = append(w.sendMS, ms(time.Since(s0)))
		sp.End()
		w.tr.finish("frame", ftr, sp, due)
		if err != nil {
			w.err = fmt.Errorf("sensor %s frame %d: %w", fs.id, fs.acked, err)
			return
		}
		late, took := sched.account(j, sendAt, time.Now())
		w.lateMS = append(w.lateMS, ms(late))
		w.frameMS = append(w.frameMS, ms(took))
		at := sendAt.Sub(w.start).Seconds()
		w.acks = append(w.acks, event{start: at, end: at + (took - late).Seconds(), weight: fleetN * fleetM})
		w.frameLens = append(w.frameLens, float64(len(frame)))
		fs.acked++
		w.acked[k].Add(1)
		if traced && (fs.acked-dashArchive)%64 == 0 {
			if fi, err := statManifest(w.stk.dir); err == nil {
				w.manifest = append(w.manifest, fi)
			}
		}
	}
}
