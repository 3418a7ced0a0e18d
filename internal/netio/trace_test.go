package netio

import (
	"math/rand"
	"testing"
	"time"

	"sbr/internal/faultnet"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/wire"
)

// encodeTracedFrames wraps encodeFrames with per-frame sampled trace
// contexts, IDs 1..n — deterministic so tests can look each trace up.
func encodeTracedFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	cfg := chaosConfig()
	plain := encodeFrames(t, cfg, n, 16)
	frames := make([][]byte, n)
	for i, frame := range plain {
		tr, err := wire.DecodeBytes(frame)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := wire.EncodeTraced(tr, wire.TraceContext{ID: uint64(i + 1), Sampled: true})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = traced
	}
	return frames
}

// TestChaosOneTracePerFrame is the tracing half of the chaos proof: frames
// whose delivery needed retransmissions and reconnects must still come out
// as ONE trace each — the send span and the receive span joined on the
// wire-propagated ID, the retries recorded as child spans — never as a
// fresh trace per attempt.
func TestChaosOneTracePerFrame(t *testing.T) {
	const nFrames = 120
	frames := encodeTracedFrames(t, nFrames)

	// Client and server share one recorder (one process), so Continue on
	// the same ID must join the halves into a single trace object.
	rec := trace.NewRecorder(trace.Options{Capacity: 2 * nFrames, MaxInflight: 2 * nFrames})
	st := newStation(t, chaosConfig())
	srv, err := ServeWith(st, "127.0.0.1:0", Options{
		Tracer:           rec,
		HandshakeTimeout: time.Second,
		IdleTimeout:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := faultnet.New(faultnet.Config{
		Seed:      9,
		Drop:      0.05,
		Duplicate: 0.03,
		Cut:       0.02,
		Delay:     0.05,
		MaxDelay:  2 * time.Millisecond,
	})
	met := NewMetrics(obs.NewRegistry())
	rc, err := NewReliable(srv.Addr(), "chaos-node", ReliableOptions{
		Dial:        inj.Dialer(time.Second),
		AckTimeout:  200 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MaxAttempts: 200,
		Window:      8,
		Metrics:     met,
		Tracer:      rec,
		Rand:        rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range frames {
		if err := rc.Send(frame); err != nil {
			t.Fatalf("send %d: %v (%s)", i, err, inj)
		}
	}
	if err := rc.Flush(); err != nil {
		t.Fatalf("flush: %v (%s)", err, inj)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if met.Retries.Value() == 0 && met.Reconnects.Value() == 0 {
		t.Fatal("chaos schedule too gentle: no retries, the test proves nothing")
	}
	t.Logf("%s; retries=%d reconnects=%d", inj, met.Retries.Value(), met.Reconnects.Value())

	retried := 0
	for i := 1; i <= nFrames; i++ {
		tr := rec.Lookup(trace.ID(i))
		if tr == nil {
			t.Fatalf("trace %d lost", i)
		}
		tv := tr.Snapshot(true)
		stages := map[string]int{}
		var walk func(vs []*trace.SpanView)
		walk = func(vs []*trace.SpanView) {
			for _, v := range vs {
				stages[v.Stage]++
				walk(v.Children)
			}
		}
		walk(tv.Tree)
		// Exactly one send span and at least one receive span: a restarted
		// trace would show a second netio.send; a forked one would miss the
		// receive half entirely.
		if stages["netio.send"] != 1 {
			t.Errorf("trace %d has %d netio.send spans, want exactly 1", i, stages["netio.send"])
		}
		if stages["netio.recv"] == 0 {
			t.Errorf("trace %d has no netio.recv span: halves not joined", i)
		}
		if stages["netio.retry"] > 0 {
			retried++
		}
	}
	if int64(retried) == 0 && met.Retries.Value() > 0 {
		t.Error("retries happened but no trace carries a netio.retry span")
	}
	if got, _ := st.SensorStats("chaos-node"); got.Transmissions != nFrames {
		t.Errorf("station holds %d transmissions, want %d", got.Transmissions, nFrames)
	}
}
