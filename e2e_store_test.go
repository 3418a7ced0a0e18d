package sbr

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"sbr/internal/core"
	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/segstore"
	"sbr/internal/sensor"
	"sbr/internal/station"
	"sbr/internal/timeseries"
)

// TestEndToEndStoreCrashRecovery is the durability capstone: a station
// archives to a segment store with a tight in-memory window, checkpoints
// mid-stream, then dies without warning. A fresh process over the same
// data directory must answer every HTTP query with byte-identical JSON —
// including ranges that live only in sealed segments on disk — after
// replaying no more than its newest segment file.
func TestEndToEndStoreCrashRecovery(t *testing.T) {
	const (
		batchLen = 64
		batches  = 24
	)
	cfg := core.Config{TotalBand: 8, MBase: 16, Metric: metrics.SSE}
	dir := t.TempDir()

	ingest := func(st *station.Station, s *sensor.Sensor, from, to int) {
		t.Helper()
		for i := from * batchLen; i < to*batchLen; i++ {
			v := 3*math.Sin(float64(i)/40) + math.Cos(float64(i)/7)
			if err := s.Record(v); err != nil {
				t.Fatal(err)
			}
		}
		_ = st
	}

	newSensor := func(st *station.Station, src uint64) *sensor.Sensor {
		t.Helper()
		s, err := sensor.New(sensor.Config{
			Core: cfg, Quantities: 1, BatchLen: batchLen,
		}, func(_ *core.Transmission, frame []byte) error {
			return st.ReceiveFrameFrom("field-1", src, frame)
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// First life: ingest, checkpoint at batch 16, keep going, crash.
	st1, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store1, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	st1.SetArchive(store1, 6)
	sn := newSensor(st1, 7)
	ingest(st1, sn, 0, 16)
	if err := st1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(st1, sn, 16, batches)

	// Record the answers the live station serves right before the crash.
	urls := []string{
		"/v1/sensors",
		"/v1/point?sensor=field-1&row=0&idx=3",
		"/v1/point?sensor=field-1&row=0&idx=900",
		"/v1/range?sensor=field-1&row=0&from=0&to=128",
		"/v1/range?sensor=field-1&row=0&from=500&to=700",
		"/v1/range?sensor=field-1&row=0",
		"/v1/aggregate?sensor=field-1&row=0&kind=avg",
		"/v1/aggregate?sensor=field-1&row=0&from=10&to=1000&kind=max",
		"/v1/aggregate?sensor=field-1&row=0&from=0&to=64&kind=sum",
		"/v1/downsample?sensor=field-1&row=0&points=12",
		"/v1/exceedances?sensor=field-1&row=0&threshold=2.5",
	}
	serve := func(st *station.Station) map[string]string {
		api := httptest.NewServer(httpapi.New(st, 8))
		defer api.Close()
		out := make(map[string]string, len(urls))
		for _, u := range urls {
			resp, err := http.Get(api.URL + u)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d %s", u, resp.StatusCode, body)
			}
			out[u] = string(body)
		}
		return out
	}
	before := serve(st1)
	// Crash: no Close, no final checkpoint. The fsynced segment files are
	// all that survives.

	// Second life over the same directory.
	store2, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	st2, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetArchive(store2, 6)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint at batch 16 rolled the segments; the 8 batches after
	// it filled two segments of 4, and only the newest replays.
	if rec.Replayed != 4 {
		t.Errorf("replayed %d frames, want the newest segment's 4", rec.Replayed)
	}

	after := serve(st2)
	for _, u := range urls {
		if after[u] != before[u] {
			t.Errorf("GET %s differs after crash recovery:\n  before: %s\n  after:  %s",
				u, before[u], after[u])
		}
	}

	// And the recovered process accepts live traffic on the same stream.
	var tail timeseries.Series
	for i := batches * batchLen; i < (batches+1)*batchLen; i++ {
		tail = append(tail, 3*math.Sin(float64(i)/40)+math.Cos(float64(i)/7))
	}
	// A rebooted sensor restarts its sequence numbers under a fresh
	// incarnation nonce: the station resets its replica and keeps
	// extending the record.
	sn2 := newSensor(st2, 8)
	for _, v := range tail {
		if err := sn2.Record(v); err != nil {
			t.Fatal(err)
		}
	}
	n, err := st2.HistoryLen("field-1")
	if err != nil {
		t.Fatal(err)
	}
	if n != (batches+1)*batchLen {
		t.Errorf("history after post-recovery ingest: %d samples, want %d", n, (batches+1)*batchLen)
	}
}
