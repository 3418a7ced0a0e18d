package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sbr/internal/station"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1100)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, err := tail(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1100 samples: %v", err)
	}
	if v != 1088 { // nearest rank: ceil(0.99·1100) = 1089th smallest
		t.Fatalf("p99 of 0..1099 = %v, want 1088", v)
	}
	for _, n := range []int{0, 1, 100, 999} {
		_, err := tail(xs[:n], 0.99)
		if err == nil || !strings.Contains(err.Error(), "beyond") {
			t.Fatalf("p99 of %d samples: err %v, want a too-few-beyond failure", n, err)
		}
	}
	if _, err := tail(xs[:60], 0.80); err != nil {
		t.Fatalf("p80 of 60 samples has 12 beyond: %v", err)
	}
	if _, err := tail(xs[:45], 0.80); err == nil {
		t.Fatal("p80 of 45 samples has 9 beyond: want a failure")
	}
}

func TestNMSE(t *testing.T) {
	var e nmse
	// Σ(x−x̂)² = 1; Σ(x−x̄)² = 2.25+0.25+0.25+2.25 = 5.
	if err := e.add([]float64{1, 2, 3, 4}, []float64{1, 2, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if v, err := e.value(); err != nil || v != 0.2 {
		t.Fatalf("nmse = %v, %v; want 0.2", v, err)
	}
	// A second series far from the first is normalised by its own mean:
	// Σ(x−x̂)² += 0, Σ(x−x̄)² += 2.
	if err := e.add([]float64{1000, 1002}, []float64{1000, 1002}); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.value(); math.Abs(v-1.0/7) > 1e-15 {
		t.Fatalf("pooled nmse = %v, want 1/7", v)
	}
	if err := e.add([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch: want an error")
	}
	var flat nmse
	if err := flat.add([]float64{3, 3, 3}, []float64{3, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.value(); err == nil {
		t.Fatal("zero-variance input: want an error")
	}
}

func TestScheduleCountsFromDueTime(t *testing.T) {
	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	s := schedule{start: t0, interval: 5 * time.Millisecond}
	if got := s.due(3); !got.Equal(t0.Add(15 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// Frame 3 waited behind a stall: sent 7 ms after it was due, acked
	// 1 ms later. Its time is 8 ms, not the 1 ms the send took.
	late, took := s.account(3, t0.Add(22*time.Millisecond), t0.Add(23*time.Millisecond))
	if late != 7*time.Millisecond || took != 8*time.Millisecond {
		t.Fatalf("late %v took %v, want 7ms and 8ms", late, took)
	}
	// On time: no lateness, the frame time is the round trip.
	late, took = s.account(4, t0.Add(20*time.Millisecond), t0.Add(20*time.Millisecond+300*time.Microsecond))
	if late != 0 || took != 300*time.Microsecond {
		t.Fatalf("late %v took %v, want 0 and 300µs", late, took)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("%s lists workload %s, which the benchmark does not run", specFile, w.Name)
		}
	}

	var e nmse
	if err := e.add([]float64{1, 2, 3}, []float64{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	lat := make([]float64, 2000)
	for i := range lat {
		lat[i] = float64(i)
	}
	rep := newReport()
	rep.attempted = 1
	err = endToEnd(rep, figures{
		setupS: []float64{1}, recoverS: []float64{1}, valueRate: 10, queryRate: 2000,
		values: 10, frameMS: lat, frameQ: 0.99, queryMS: lat, queryQ: 0.99,
		wireBytes: 5, diskBytes: 7, archived: 10, err: &e,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.validate(spec.EndToEnd); err != nil {
		t.Fatalf("end-to-end metrics vs %s: %v", specFile, err)
	}

	layers := newReport()
	layers.attempted = 1
	perLayer(layers, &observations{frameQ: 0.99})
	if err := layers.validate(spec.PerLayer); err != nil {
		t.Fatalf("per-layer metrics vs %s: %v", specFile, err)
	}

	// validate catches a unit that drifted and a metric not listed.
	m := rep.vals["frame_ms_p50"]
	m.unit = "s"
	rep.vals["frame_ms_p50"] = m
	if err := rep.validate(spec.EndToEnd); err == nil || !strings.Contains(err.Error(), "frame_ms_p50") {
		t.Fatalf("wrong unit: err %v", err)
	}
	m.unit = "ms"
	rep.vals["frame_ms_p50"] = m
	rep.set("frame_ms_p90", "ms", 1, "")
	if err := rep.validate(spec.EndToEnd); err == nil || !strings.Contains(err.Error(), "frame_ms_p90") {
		t.Fatalf("unlisted metric: err %v", err)
	}
	delete(rep.vals, "frame_ms_p90")
	delete(rep.vals, "error_nmse")
	if err := rep.validate(spec.EndToEnd); err == nil || !strings.Contains(err.Error(), "error_nmse") {
		t.Fatalf("missing metric: err %v", err)
	}
}

func TestSpecLimits(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest: %s has %v", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s in s, lower is better, is required")
	}
}

func TestDownsampleMatchesStation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 1000, 38400, 38464} {
		hist := make([]float64, n)
		for i := range hist {
			hist[i] = rng.NormFloat64() * 100
		}
		want, err := station.DownsampleSeries(hist, dashPoints)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(downsample(hist, dashPoints), want) {
			t.Fatalf("n=%d: reference downsample differs from the station's", n)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// A traced frame: the benchmark's send span is the root; the
	// transport's and the station's spans hang off it, as the program
	// records them, and are re-attached to the span that caused them.
	spans := []span{
		{id: 1, parent: 0, stage: "bench.send", start: 0, end: 100},
		{id: 2, parent: 1, stage: "netio.recv", start: 10, end: 102},
		{id: 3, parent: 1, stage: "station.receive", start: 10, end: 90},
		{id: 4, parent: 3, stage: "station.decode", start: 12, end: 20},
		{id: 5, parent: 3, stage: "segstore.append", start: 40, end: 85},
	}
	reparent(spans)
	if spans[1].parent != 1 || spans[2].parent != 2 {
		t.Fatalf("parents after reparent: recv→%d receive→%d, want 1 and 2", spans[1].parent, spans[2].parent)
	}
	self := func(id uint32) float64 {
		s := spans[id-1]
		var kids [][2]float64
		for _, c := range spans {
			if c.parent == id {
				kids = append(kids, [2]float64{c.start, c.end})
			}
		}
		return (s.end - s.start) - unionLen(kids, s.start, s.end)
	}
	for id, want := range map[uint32]float64{1: 10, 2: 12, 3: 27, 4: 8, 5: 45} {
		if got := self(id); got != want {
			t.Errorf("self(%s) = %v, want %v", spans[id-1].stage, got, want)
		}
	}
	if got := unionLen([][2]float64{{0, 10}, {5, 20}, {30, 40}}, 2, 35); got != 23 {
		t.Errorf("unionLen = %v, want 23", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		workload        string
		seconds, traced int
	}{{"nope", 10, 0}, {"paper_fleet", 0, 0}, {"paper_fleet", 10, 2}} {
		err := run(c.workload, 1, c.seconds, c.traced)
		if err == nil {
			t.Errorf("run(%q, seconds=%d, trace=%d): want an error", c.workload, c.seconds, c.traced)
			continue
		}
		if line := oneLine(err); strings.Contains(line, "\n") {
			t.Errorf("failure reason spans lines: %q", line)
		}
	}
}

func TestWindowRate(t *testing.T) {
	// 10 s phase, one sample per 10 ms, except that window 3 stalled and
	// did half the work: the median window still reads 100 per second.
	var evs []event
	for i := 0; i < 1000; i++ {
		at := float64(i) / 100
		if at >= 3 && at < 4 && i%2 == 1 {
			continue
		}
		evs = append(evs, event{start: at, end: at, weight: 1})
	}
	if got := windowRate(evs, 10); math.Abs(got-100) > 1 {
		t.Fatalf("windowRate = %v, want 100", got)
	}
	// An event spanning the whole phase is spread over every window.
	if got := windowRate([]event{{start: 0, end: 10, weight: 400}}, 10); math.Abs(got-40) > 1e-9 {
		t.Fatalf("spread event: windowRate = %v, want 40", got)
	}
	if got := windowRate(nil, 10); got != 0 {
		t.Fatalf("no events: %v", got)
	}
}
