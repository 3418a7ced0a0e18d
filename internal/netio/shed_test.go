package netio

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"sbr/internal/obs"
)

// TestShedsSpendNoFrameAttempts pins what a busy shed costs a reliable
// client: a failed connect, never a frame attempt. The client reads the
// server's handshake reply before it writes a frame, so with MaxAttempts 2
// three sheds leave every frame untouched; the breaker trips on the first
// shed, each shed half-open probe re-trips it, and once the slot frees
// every frame arrives exactly once, transmitted once.
func TestShedsSpendNoFrameAttempts(t *testing.T) {
	cfg := chaosConfig()
	st := newStation(t, cfg)
	met := NewMetrics(obs.NewRegistry())
	srv, err := ServeWith(st, "127.0.0.1:0", Options{Metrics: met, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	frames := encodeFrames(t, cfg, 4, 16)
	holder, err := Dial(srv.Addr(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	// A round-trip guarantees the holder occupies the single slot before
	// the reliable client arrives.
	if err := holder.Send(frames[0]); err != nil {
		t.Fatal(err)
	}

	const cooldown = 5 * time.Millisecond
	rc, err := NewReliable(srv.Addr(), "shed-node", ReliableOptions{
		AckTimeout:       time.Second,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		MaxAttempts:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
		Metrics:          met,
		Rand:             rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// While shed, the client may only report its open breaker: the frames
	// stay queued, nothing turns terminal.
	shed := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("shed client failed: %v", err)
		}
	}
	for _, frame := range frames {
		shed(rc.Send(frame))
	}
	deadline := time.Now().Add(10 * time.Second)
	for met.ShedCap.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("client shed only %d times", met.ShedCap.Value())
		}
		time.Sleep(cooldown)
		shed(rc.Flush())
	}

	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		err := rc.Flush()
		if err == nil {
			break
		}
		shed(err)
		if time.Now().After(deadline) {
			t.Fatalf("frames never delivered after the slot freed: %v", err)
		}
		time.Sleep(cooldown)
	}

	stats, err := st.SensorStats("shed-node")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transmissions != len(frames) || stats.Restarts != 0 {
		t.Errorf("station holds %d transmissions and %d restarts, want %d and 0",
			stats.Transmissions, stats.Restarts, len(frames))
	}
	if got := met.Retries.Value(); got != 0 {
		t.Errorf("%d retransmissions: a shed spent frame attempts", got)
	}
	if trips, probes := met.BreakerTrips.Value(), met.BreakerProbes.Value(); trips != 1 || probes < 2 {
		t.Errorf("breaker trips=%d probes=%d, want 1 trip re-armed by at least 2 shed probes", trips, probes)
	}
}
