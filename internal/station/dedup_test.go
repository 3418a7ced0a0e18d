package station

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

func restoreConfig() core.Config {
	return core.Config{TotalBand: 8, MBase: 8, Metric: metrics.SSE}
}

// encodeTestFrames returns n deterministic frames for one sensor.
func encodeTestFrames(t testing.TB, cfg core.Config, n, batchLen int) [][]byte {
	t.Helper()
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0, n)
	for b := 0; b < n; b++ {
		row := make(timeseries.Series, batchLen)
		for i := range row {
			row[i] = 2 * math.Sin(float64(b*batchLen+i)/5)
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
	return frames
}

// TestDuplicateDetection drives the station-level dedup rules directly:
// retransmissions (same incarnation) are duplicates, reboots (fresh
// incarnation nonce, seq 0) are not.
func TestDuplicateDetection(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 2, 16)
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const incarnationA, incarnationB = 0xA11CE, 0xB0B

	if err := st.ReceiveFrameFrom("node", incarnationA, frames[0]); err != nil {
		t.Fatal(err)
	}
	// Retransmission of seq 0 from the same incarnation: duplicate.
	if err := st.ReceiveFrameFrom("node", incarnationA, frames[0]); !errors.Is(err, ErrDuplicate) {
		t.Errorf("same-incarnation seq-0 retransmission gave %v, want ErrDuplicate", err)
	}
	if err := st.ReceiveFrameFrom("node", incarnationA, frames[1]); err != nil {
		t.Fatal(err)
	}
	// Retransmission of an interior sequence: duplicate regardless of source.
	if err := st.ReceiveFrameFrom("node", incarnationB, frames[1]); !errors.Is(err, ErrDuplicate) {
		t.Errorf("interior retransmission gave %v, want ErrDuplicate", err)
	}
	// Seq 0 from a *different* incarnation is a reboot, not a duplicate —
	// even though the frame bytes are identical (deterministic sensor).
	if err := st.ReceiveFrameFrom("node", incarnationB, frames[0]); err != nil {
		t.Errorf("reboot after nonce change gave %v, want acceptance", err)
	}
	stats, err := st.SensorStats("node")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", stats.Restarts)
	}
	if stats.Transmissions != 3 {
		t.Errorf("transmissions = %d, want 3", stats.Transmissions)
	}
}

// TestDuplicateDetectionWithoutNonce covers the in-process and archive
// replay paths where no incarnation nonce exists: the frame fingerprint
// decides whether seq 0 is the same frame again (duplicate) or a reboot.
func TestDuplicateDetectionWithoutNonce(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 1, 16)
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReceiveFrame("node", frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.ReceiveFrame("node", frames[0]); !errors.Is(err, ErrDuplicate) {
		t.Errorf("byte-identical seq-0 frame without nonce gave %v, want ErrDuplicate", err)
	}
	// A different seq-0 frame (new data after a real reboot) is accepted.
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := make(timeseries.Series, 16)
	for i := range row {
		row[i] = float64(i * i)
	}
	tr, err := comp.Encode([]timeseries.Series{row})
	if err != nil {
		t.Fatal(err)
	}
	reboot, err := wire.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(reboot, frames[0]) {
		t.Fatal("test needs distinct frame bytes")
	}
	if err := st.ReceiveFrame("node", reboot); err != nil {
		t.Errorf("distinct seq-0 frame without nonce gave %v, want acceptance (reboot)", err)
	}
}

// TestInProcessRebootSameNonce: a sensor application that reboots while
// its radio keeps the same long-lived transport client (same incarnation
// nonce) starts a fresh compressor and sends a NEW seq-0 frame whose
// bytes differ from the incarnation's original first frame. That is a
// reboot, not a retransmission — the fingerprint splits the same-nonce
// case.
func TestInProcessRebootSameNonce(t *testing.T) {
	cfg := restoreConfig()
	frames := encodeTestFrames(t, cfg, 1, 16)
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nonce = 0xA11CE
	if err := st.ReceiveFrameFrom("node", nonce, frames[0]); err != nil {
		t.Fatal(err)
	}
	// Fresh compressor, different samples: a genuinely new first frame.
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := make(timeseries.Series, 16)
	for i := range row {
		row[i] = float64(3*i + 7)
	}
	tr, err := comp.Encode([]timeseries.Series{row})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(frame, frames[0]) {
		t.Fatal("test frames must differ for this scenario")
	}
	if err := st.ReceiveFrameFrom("node", nonce, frame); err != nil {
		t.Errorf("same-nonce reboot with new bytes gave %v, want acceptance", err)
	}
	stats, err := st.SensorStats("node")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarts != 1 || stats.Transmissions != 2 {
		t.Errorf("restarts=%d transmissions=%d, want 1 and 2", stats.Restarts, stats.Transmissions)
	}
}
