package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sbr/internal/obs/trace"
	"sbr/internal/station"
)

// tracer is the traced run's instrumentation. It owns the program's own
// span recorder (installed with SampleEvery 1 on the station, the netio
// server and the HTTP API), opens the benchmark's spans around each call
// it makes into a module, and keeps every traced operation's trace in
// memory until the run ends. Every method is a no-op on a nil *tracer, so
// untraced runs share the code path.
type tracer struct {
	rec *trace.Recorder

	mu    sync.Mutex
	rng   *rand.Rand
	ops   []tracedOp
	times [2][]float64 // op durations in ms: [0] untraced, [1] traced
}

// tracedOp is one traced operation: a frame, a query, a dial or a
// restart. start is when the operation became due (for the open-loop
// writer, its schedule slot), end when it completed.
type tracedOp struct {
	kind       string
	tr         *trace.Trace
	start, end time.Time
}

func newTracer(seed int64) *tracer {
	return &tracer{
		rec: trace.NewRecorder(trace.Options{SampleEvery: 1}),
		rng: rand.New(rand.NewSource(seed ^ 0x7e11a5)),
	}
}

// recorder is the program-side recorder to install (nil when untraced).
func (t *tracer) recorder() *trace.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// begin opens a traced operation: a fresh trace whose first span, stage,
// is the benchmark's own span around the module call.
func (t *tracer) begin(sensor, stage string) (*trace.Trace, *trace.Span) {
	if t == nil {
		return nil, nil
	}
	tr := t.rec.Continue(t.newID(), sensor)
	return tr, tr.StartSpan(stage)
}

// flip draws a fair coin from the tracer's seeded generator: whether the
// next operation of a sequence is traced, without aliasing with any
// period the sequence has (a cache miss every tenth read, say).
func (t *tracer) flip() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Intn(2) == 1
}

// newID draws a fresh trace ID, for frames encoded ahead of time.
func (t *tracer) newID() trace.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id trace.ID
	for id == 0 {
		id = trace.ID(t.rng.Uint64())
	}
	return id
}

// beginQuery opens a query operation. The HTTP API traces every request
// while the station has a recorder installed, so the recorder is switched
// on for traced queries and off for untraced ones.
func (t *tracer) beginQuery(st *station.Station, traced bool, sensor string) (*trace.Trace, *trace.Span) {
	if t == nil {
		return nil, nil
	}
	if !traced {
		st.SetTracer(nil)
		return nil, nil
	}
	st.SetTracer(t.rec)
	return t.begin(sensor, "bench.http")
}

// finish closes a traced operation that became due at start.
func (t *tracer) finish(kind string, tr *trace.Trace, root *trace.Span, start time.Time) {
	if t == nil || tr == nil {
		return
	}
	root.End()
	end := time.Now()
	tr.Finish()
	t.mu.Lock()
	t.ops = append(t.ops, tracedOp{kind: kind, tr: tr, start: start, end: end})
	t.mu.Unlock()
}

// opTime records how long one operation of the workload's main kind took,
// by whether it was traced: the basis of trace.overhead.
func (t *tracer) opTime(traced bool, d time.Duration) {
	if t == nil {
		return
	}
	i := 0
	if traced {
		i = 1
	}
	t.mu.Lock()
	t.times[i] = append(t.times[i], ms(d))
	t.mu.Unlock()
}

// overhead is how much slower traced operations ran than untraced ones,
// interleaved in the same run: mean traced time over mean untraced time,
// minus one (the throughput ratio of a closed loop).
func (t *tracer) overhead() (float64, string) {
	if t == nil {
		return 0, "n/a"
	}
	u, tr := mean(t.times[0]), mean(t.times[1])
	if u == 0 || tr == 0 {
		return 0, "n/a"
	}
	return tr/u - 1, fmt.Sprintf("untraced=%d traced=%d ops", len(t.times[0]), len(t.times[1]))
}

// span is one recorded span flattened out of its trace, in microseconds
// from the trace start.
type span struct {
	id, parent uint32
	stage      string
	start, end float64
}

// layerStats aggregates the traced operations' spans.
type layerStats struct {
	ops     map[string]int                // traced operations by kind
	wall    map[string]float64            // Σ operation wall time by kind, µs
	uncov   float64                       // Σ operation time no span covers, µs
	durs    map[string][]float64          // span durations by stage, ms
	perKind map[string]map[string]float64 // kind → stage → Σ self µs
	spans   map[string]map[string]int     // kind → stage → spans
	open    int                           // operations skipped: a span never ended
	// transport is, per traced frame, the Client.Send round trip minus the
	// station's handle time (station.receive), in ms.
	transport []float64
}

// analyze computes every traced operation's per-stage self time: a
// span's duration minus the part of it its child spans cover. Spans the
// program opens at the top of a trace (netio.recv, station.receive,
// http.*) hang off the trace's first span; they are re-attached to the
// innermost span whose interval contains their start, which is the call
// that caused them.
func (t *tracer) analyze() *layerStats {
	ls := &layerStats{
		ops: map[string]int{}, wall: map[string]float64{},
		durs: map[string][]float64{}, perKind: map[string]map[string]float64{}, spans: map[string]map[string]int{},
	}
	if t == nil {
		return ls
	}
	for _, op := range t.ops {
		view := op.tr.Snapshot(true)
		var spans []span
		open := false
		var walk func(vs []*trace.SpanView)
		walk = func(vs []*trace.SpanView) {
			for _, v := range vs {
				open = open || v.Open
				spans = append(spans, span{id: v.ID, parent: v.Parent, stage: v.Stage,
					start: float64(v.StartUS), end: float64(v.StartUS + v.DurUS)})
				walk(v.Children)
			}
		}
		walk(view.Tree)
		if open || len(spans) == 0 {
			ls.open++
			continue
		}
		reparent(spans)
		if ls.perKind[op.kind] == nil {
			ls.perKind[op.kind] = map[string]float64{}
			ls.spans[op.kind] = map[string]int{}
		}
		lo := float64(op.start.Sub(view.Start).Microseconds())
		hi := float64(op.end.Sub(view.Start).Microseconds())
		all := make([][2]float64, len(spans))
		for i, s := range spans {
			all[i] = [2]float64{s.start, s.end}
			var kids [][2]float64
			for _, c := range spans {
				if c.parent == s.id {
					kids = append(kids, [2]float64{c.start, c.end})
				}
			}
			self := (s.end - s.start) - unionLen(kids, s.start, s.end)
			ls.perKind[op.kind][s.stage] += self
			ls.spans[op.kind][s.stage]++
			ls.durs[s.stage] = append(ls.durs[s.stage], (s.end-s.start)/1000)
		}
		ls.ops[op.kind]++
		ls.wall[op.kind] += hi - lo
		ls.uncov += (hi - lo) - unionLen(all, lo, hi)
		if op.kind == "frame" {
			send, recv := stageDur(spans, "bench.send"), stageDur(spans, "station.receive")
			if send > 0 && recv > 0 {
				ls.transport = append(ls.transport, (send-recv)/1000)
			}
		}
	}
	return ls
}

// reparent re-attaches the spans hanging off the trace's first span to the
// innermost span containing their start.
func reparent(spans []span) {
	root := spans[0].id
	for i := range spans {
		s := &spans[i]
		if s.parent != root {
			continue
		}
		best := -1
		for j, c := range spans {
			if c.id == s.id || c.start > s.start || s.start >= c.end {
				continue
			}
			if c.start == s.start && c.id > s.id {
				continue // started later within the same microsecond
			}
			if best < 0 || c.start > spans[best].start || (c.start == spans[best].start && c.id > spans[best].id) {
				best = j
			}
		}
		if best >= 0 {
			s.parent = spans[best].id
		}
	}
}

// stageDur is the summed duration of a trace's spans of one stage, µs.
func stageDur(spans []span, stage string) float64 {
	var d float64
	for _, s := range spans {
		if s.stage == stage {
			d += s.end - s.start
		}
	}
	return d
}

// unionLen is the length of the union of intervals clipped to [lo, hi].
func unionLen(iv [][2]float64, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	var c [][2]float64
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]float64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB float64
	for i, x := range c {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// perOp is a stage's mean self time per operation of a kind, in ms.
func (ls *layerStats) perOp(kind, stage string) float64 {
	if ls.ops[kind] == 0 {
		return 0
	}
	return ls.perKind[kind][stage] / float64(ls.ops[kind]) / 1000
}

// unattributed is the share of traced operation time no span covers.
func (ls *layerStats) unattributed() float64 {
	var wall float64
	for _, w := range ls.wall {
		wall += w
	}
	if wall == 0 {
		return 0
	}
	return ls.uncov / wall
}

// table renders the layer table: every stage's self time per operation
// of each kind, and its share of that kind's wall time, plus the
// unattributed row.
func (ls *layerStats) table() []string {
	var out []string
	kinds := make([]string, 0, len(ls.ops))
	for k := range ls.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		n := ls.ops[k]
		out = append(out, fmt.Sprintf("layer %-8s %-24s %8s %12s %7s", k, "stage", "spans", "self_ms/op", "share"))
		stages := make([]string, 0, len(ls.perKind[k]))
		for s := range ls.perKind[k] {
			stages = append(stages, s)
		}
		sort.Slice(stages, func(i, j int) bool { return ls.perKind[k][stages[i]] > ls.perKind[k][stages[j]] })
		for _, s := range stages {
			out = append(out, fmt.Sprintf("layer %-8s %-24s %8d %12.4f %6.2f%%", k, s, ls.spans[k][s],
				ls.perKind[k][s]/float64(n)/1000, 100*ls.perKind[k][s]/ls.wall[k]))
		}
		out = append(out, fmt.Sprintf("layer %-8s %-24s %8d %12.4f", k, "(wall per op)", n, ls.wall[k]/float64(n)/1000))
	}
	out = append(out, fmt.Sprintf("layer %-8s %-24s %8s %12s %6.2f%%", "all", "unattributed", "", "", 100*ls.unattributed()))
	if ls.open > 0 {
		out = append(out, fmt.Sprintf("layer skipped %d operations whose spans never ended", ls.open))
	}
	return out
}
