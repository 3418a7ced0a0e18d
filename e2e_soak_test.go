package sbr

import (
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/faultnet"
	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/outbox"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// TestChaosSoakSurvivableUplink is the survivable-uplink capstone: one
// sensor streams a fixed frame sequence through a congested, faulty link
// while every failure mode this PR defends against fires at least once —
//
//   - the sensor is "kill -9"ed mid-transmission (client and outbox
//     abandoned with frames written but unacknowledged) and a new
//     incarnation replays the durable outbox under the same nonce;
//   - the station process crashes (server, station and segment store
//     abandoned without a final checkpoint) and a fresh process recovers
//     from the archive on the same address, while the sensor's circuit
//     breaker turns the dead station into durable local spooling;
//   - the recovered station comes back in a forced shed episode, sheds the
//     sensor with retry-after busy acks, and /readyz answers 503 until the
//     episode ends — then flips back to 200 and the backlog drains.
//
// Afterwards the station history must be byte-identical to a fault-free
// reference, every frame delivered exactly once, the outbox empty, and
// no phantom sensor reboot recorded. SBR_SOAK=1 scales the run up for
// the dedicated soak CI job; the default stays test-suite sized.
func TestChaosSoakSurvivableUplink(t *testing.T) {
	const batchLen = 16
	nFrames := 48
	if os.Getenv("SBR_SOAK") != "" {
		nFrames = 240
	}
	// Phase boundaries: [0,a) die with the first sensor incarnation,
	// [a,b) stream live, [b,c) are sent against a dead station, [c,n)
	// after recovery.
	a, b, c := nFrames/3, nFrames/3*2, nFrames/6*5

	cfg := core.Config{TotalBand: 8, MBase: 8, Metric: metrics.SSE}
	frames := make([][]byte, 0, nFrames)
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFrames; i++ {
		row := make(timeseries.Series, batchLen)
		for j := range row {
			x := float64(i*batchLen+j) / 9
			row[j] = 3*math.Sin(x) + 0.5*math.Cos(5*x)
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

	// Fault-free reference: what the history must equal, bit for bit.
	ref, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range frames {
		if err := ref.ReceiveFrame("soak-node", frame); err != nil {
			t.Fatalf("reference frame %d: %v", i, err)
		}
	}
	wantHist, err := ref.History("soak-node", 0)
	if err != nil {
		t.Fatal(err)
	}

	// The link: lossy AND congested — drops, cuts and delays on top of a
	// bandwidth throttle with latency jitter, all seeded.
	inj := faultnet.New(faultnet.Config{
		Seed:        1234,
		Drop:        0.01,
		Cut:         0.008,
		Delay:       0.05,
		MaxDelay:    2 * time.Millisecond,
		BytesPerSec: 64 << 10,
		Jitter:      500 * time.Microsecond,
	})

	dataDir := t.TempDir()
	obPath := filepath.Join(t.TempDir(), "soak-node.outbox")
	var degraded atomic.Bool

	srvReg := obs.NewRegistry()
	srvMet := netio.NewMetrics(srvReg)
	cliReg := obs.NewRegistry()
	cliMet := netio.NewMetrics(cliReg)

	newStore := func() *segstore.Store {
		st, err := segstore.Open(segstore.Options{Dir: dataDir, Config: cfg, SegmentChunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st1, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st1.SetArchive(newStore(), 6)
	srv1, err := netio.ServeWith(st1, "127.0.0.1:0", netio.Options{Metrics: srvMet})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	newClient := func(window int) (*netio.ReliableClient, *outbox.Outbox) {
		t.Helper()
		ob, err := outbox.Open(obPath, outbox.Options{Sensor: "soak-node"})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := netio.NewReliable(addr, "soak-node", netio.ReliableOptions{
			Dial:             inj.Dialer(time.Second),
			AckTimeout:       300 * time.Millisecond,
			BackoffBase:      2 * time.Millisecond,
			BackoffMax:       30 * time.Millisecond,
			MaxAttempts:      500,
			Window:           window,
			Outbox:           ob,
			BreakerThreshold: 4,
			BreakerCooldown:  50 * time.Millisecond,
			Metrics:          cliMet,
			Rand:             rand.New(rand.NewSource(55)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rc, ob
	}

	// flushUntil drives Flush through breaker cooldowns and shed busy
	// acks until it succeeds or the deadline decides the link is truly
	// wedged.
	flushUntil := func(rc *netio.ReliableClient, within time.Duration) error {
		deadline := time.Now().Add(within)
		for {
			err := rc.Flush()
			if err == nil {
				return nil
			}
			if !errors.Is(err, netio.ErrBreakerOpen) && !errors.Is(err, netio.ErrBusy) {
				return err
			}
			if time.Now().After(deadline) {
				return err
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// ---- Phase 1: first sensor incarnation dies mid-transmission. ----
	// The window exceeds the phase, so every frame is written to the wire
	// but none is retired: the "kill -9" abandons the client with its
	// whole outbox unacknowledged (a crash between write and ack).
	rc1, _ := newClient(nFrames)
	for i := 0; i < a; i++ {
		if err := rc1.Send(frames[i]); err != nil {
			t.Fatalf("phase-1 send %d: %v", i, err)
		}
	}
	if rc1.Unacked() == 0 {
		t.Fatal("phase-1 client has nothing unacked; the crash would prove nothing")
	}
	// Crash: rc1 and its outbox handle are simply abandoned.

	// ---- Phase 2: new incarnation replays the outbox, streams on. ----
	rc2, ob := newClient(8)
	if rc2.Unacked() != a {
		t.Fatalf("restarted sensor queued %d outbox frames, want %d", rc2.Unacked(), a)
	}
	for i := a; i < b; i++ {
		if err := rc2.Send(frames[i]); err != nil {
			t.Fatalf("phase-2 send %d: %v", i, err)
		}
		if i == (a+b)/2 {
			// Checkpoint mid-stream, with more frames still to come before
			// the crash, so the station flap exercises the real recovery
			// shape: a restart from the newest segment file's header plus
			// a non-empty replay of its records.
			if err := flushUntil(rc2, 30*time.Second); err != nil {
				t.Fatalf("pre-checkpoint flush: %v (%s)", err, inj)
			}
			if err := st1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := flushUntil(rc2, 30*time.Second); err != nil {
		t.Fatalf("phase-2 flush: %v (%s)", err, inj)
	}

	// ---- Phase 3: the station crashes. ----
	// Close only the listener/conns; station and store are abandoned
	// un-checkpointed, like a process death. The sensor keeps producing:
	// the breaker trips and the frames drain to the durable outbox.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	for i := b; i < c; i++ {
		if err := rc2.Send(frames[i]); err != nil {
			t.Fatalf("send %d against a dead station: %v", i, err)
		}
	}
	if cliMet.BreakerTrips.Value() == 0 {
		t.Error("the station flap never tripped the breaker")
	}

	// ---- Phase 4: a fresh station process recovers — and sheds. ----
	st2, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetArchive(newStore(), 6)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed == 0 || rec.Replayed > 4 {
		t.Errorf("recovery replayed %d frames, want the newest segment's 1 to 4", rec.Replayed)
	}
	degradedFn := func() bool { return degraded.Load() || st2.ArchiveDegraded() }
	degraded.Store(true) // forced shed episode: up, but refusing work
	srv2, err := netio.ServeWith(st2, addr, netio.Options{
		Metrics:         srvMet,
		ArchiveDegraded: degradedFn,
		RetryAfter:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()

	// The health surfaces, wired exactly as cmd/stationd wires them.
	h := httpapi.NewHealth(
		httpapi.Check{Name: "draining", Probe: func() error {
			if srv2.Draining() {
				return errors.New("draining")
			}
			return nil
		}},
		httpapi.Check{Name: "admission", Probe: func() error {
			if reason := srv2.OverWatermark(); reason != "" {
				return errors.New("shedding: " + reason)
			}
			return nil
		}},
	)
	mux := http.NewServeMux()
	h.Register(mux)
	web := httptest.NewServer(mux)
	defer web.Close()
	readyz := func() int {
		t.Helper()
		resp, err := http.Get(web.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during the shed episode = %d, want 503", code)
	}
	// Drive the client into the shed at least once: each flush attempt
	// (re)probes the breaker, dials, and is turned away busy.
	shedBy := time.Now().Add(10 * time.Second)
	for srvMet.ShedDegraded.Value() == 0 {
		if time.Now().After(shedBy) {
			t.Fatal("the degraded station never shed the sensor")
		}
		rc2.Flush() //nolint:errcheck — expected to fail while shedding
		time.Sleep(20 * time.Millisecond)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while actively shedding = %d, want 503", code)
	}
	degraded.Store(false) // episode over
	if code := readyz(); code != http.StatusOK {
		t.Errorf("/readyz after the shed episode = %d, want 200", code)
	}
	if err := flushUntil(rc2, 30*time.Second); err != nil {
		t.Fatalf("post-recovery flush: %v (%s)", err, inj)
	}

	// ---- Phase 5: the tail streams normally; then the full audit. ----
	for i := c; i < nFrames; i++ {
		if err := rc2.Send(frames[i]); err != nil {
			t.Fatalf("phase-5 send %d: %v", i, err)
		}
	}
	if err := flushUntil(rc2, 30*time.Second); err != nil {
		t.Fatalf("final flush: %v (%s)", err, inj)
	}
	if err := rc2.Close(); err != nil {
		t.Fatalf("close after a clean flush: %v", err)
	}
	if got := ob.PendingCount(); got != 0 {
		t.Errorf("outbox still holds %d frames after full delivery", got)
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("%s; retries=%d reconnects=%d trips=%d probes=%d shed=%d replayed=%d",
		inj, cliMet.Retries.Value(), cliMet.Reconnects.Value(),
		cliMet.BreakerTrips.Value(), cliMet.BreakerProbes.Value(),
		srvMet.ShedDegraded.Value(), rec.Replayed)
	if inj.Injected() == 0 {
		t.Fatal("the fault injector never fired; the soak proves nothing")
	}

	stats, err := st2.SensorStats("soak-node")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transmissions != nFrames {
		t.Errorf("station holds %d transmissions, want exactly %d (exactly-once)", stats.Transmissions, nFrames)
	}
	if stats.Restarts != 0 {
		t.Errorf("outbox replay or reconnect misread as a sensor reboot: %d restarts", stats.Restarts)
	}
	gotHist, err := st2.History("soak-node", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotHist) != len(wantHist) {
		t.Fatalf("history length %d, want %d", len(gotHist), len(wantHist))
	}
	for i := range gotHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("history diverges from the fault-free reference at %d: %v != %v",
				i, gotHist[i], wantHist[i])
		}
	}
}
