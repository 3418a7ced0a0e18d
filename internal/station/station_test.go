package station

import (
	"errors"
	"math"
	"testing"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

func testConfig() core.Config {
	return core.Config{TotalBand: 120, MBase: 64, Metric: metrics.SSE}
}

// feed compresses `files` batches of the dataset through a fresh compressor
// and delivers them to the station under the given sensor ID.
func feed(t *testing.T, st *Station, id string, ds *datagen.Dataset, files int, viaWire bool) []*core.Transmission {
	t.Helper()
	comp, err := core.NewCompressor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sent []*core.Transmission
	for f := 0; f < files; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, tr)
		if viaWire {
			frame, err := wire.Encode(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.ReceiveFrame(id, frame); err != nil {
				t.Fatal(err)
			}
		} else if err := st.Receive(id, tr); err != nil {
			t.Fatal(err)
		}
	}
	return sent
}

func smallDataset() *datagen.Dataset {
	return datagen.StocksSized(1, 64, 4)
}

func TestStationReceiveAndHistory(t *testing.T) {
	st, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset()
	feed(t, st, "node-1", ds, 3, false)

	hist, err := st.History("node-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3*ds.FileLen {
		t.Fatalf("history length %d, want %d", len(hist), 3*ds.FileLen)
	}
	// History must match an independent decoder pass.
	dec, _ := core.NewDecoder(testConfig())
	comp, _ := core.NewCompressor(testConfig())
	var want timeseries.Series
	for f := 0; f < 3; f++ {
		tr, _ := comp.Encode(ds.File(f))
		rows, _ := dec.Decode(tr)
		want = append(want, rows[0]...)
	}
	if !timeseries.Equal(hist, want, 1e-12) {
		t.Error("station history diverges from an independent decode")
	}
}

func TestStationHistoryIsReasonable(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	feed(t, st, "s", ds, 4, false)
	for row := 0; row < ds.N(); row++ {
		hist, err := st.History("s", row)
		if err != nil {
			t.Fatal(err)
		}
		orig := ds.Rows[row][:4*ds.FileLen]
		mse := metrics.MeanSquared(orig, hist)
		if mse > orig.Variance() {
			t.Errorf("row %d reconstruction MSE %v above signal variance %v",
				row, mse, orig.Variance())
		}
	}
}

func TestStationPointRangeAggregate(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	feed(t, st, "s", ds, 2, false)
	hist, _ := st.History("s", 1)

	v, err := st.At("s", 1, 70)
	if err != nil {
		t.Fatal(err)
	}
	if v != hist[70] {
		t.Errorf("At = %v, want %v", v, hist[70])
	}

	rg, err := st.Range("s", 1, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !timeseries.Equal(rg, hist[10:20], 0) {
		t.Error("Range mismatch")
	}

	for kind, want := range map[AggregateKind]float64{
		AggAvg: hist[10:20].Mean(),
		AggSum: hist[10:20].Sum(),
		AggMin: hist[10:20].Min(),
		AggMax: hist[10:20].Max(),
	} {
		got, err := st.Aggregate("s", 1, 10, 20, kind)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Aggregate kind %d = %v, want %v", kind, got, want)
		}
	}
}

func TestStationQueryErrors(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	feed(t, st, "s", ds, 1, false)

	if _, err := st.History("unknown", 0); !errors.Is(err, ErrUnknownSensor) {
		t.Error("unknown sensor accepted")
	}
	if _, err := st.History("s", 99); !errors.Is(err, ErrInvalidQuery) {
		t.Error("row out of range accepted")
	}
	if _, err := st.At("s", 0, -1); !errors.Is(err, ErrInvalidQuery) {
		t.Error("negative index accepted")
	}
	if _, err := st.At("s", 0, ds.FileLen); !errors.Is(err, ErrInvalidQuery) {
		t.Error("index beyond history accepted")
	}
	if _, err := st.Range("s", 0, 10, 5); !errors.Is(err, ErrInvalidQuery) {
		t.Error("inverted range accepted")
	}
	if _, err := st.Aggregate("s", 0, 3, 3, AggAvg); !errors.Is(err, ErrInvalidQuery) {
		t.Error("empty aggregate range accepted")
	}
	if _, err := st.Aggregate("s", 0, 0, 4, AggregateKind(42)); !errors.Is(err, ErrInvalidQuery) {
		t.Error("unknown aggregate kind accepted")
	}
}

func TestStationMultipleSensors(t *testing.T) {
	st, _ := New(testConfig())
	dsA := datagen.StocksSized(1, 64, 2)
	dsB := datagen.StocksSized(2, 64, 2)
	feed(t, st, "b-node", dsB, 2, true)
	feed(t, st, "a-node", dsA, 2, true)

	ids := st.Sensors()
	if len(ids) != 2 || ids[0] != "a-node" || ids[1] != "b-node" {
		t.Errorf("Sensors = %v", ids)
	}
	sa, err := st.SensorStats("a-node")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Transmissions != 2 || sa.Quantities != dsA.N() || sa.SamplesPerRow != 64 {
		t.Errorf("stats = %+v", sa)
	}
	if sa.RawBytes == 0 || sa.Values == 0 {
		t.Error("wire-fed sensor has zero byte/value accounting")
	}
	if len(sa.BaseInserts) != 2 {
		t.Errorf("BaseInserts = %v", sa.BaseInserts)
	}
	if _, err := st.SensorStats("nope"); !errors.Is(err, ErrUnknownSensor) {
		t.Error("unknown sensor stats accepted")
	}
}

func TestStationBaseSignalReplica(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	comp, _ := core.NewCompressor(testConfig())
	for f := 0; f < 3; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive("s", tr); err != nil {
			t.Fatal(err)
		}
	}
	replica, err := st.BaseSignal("s")
	if err != nil {
		t.Fatal(err)
	}
	if !timeseries.Equal(replica, comp.BaseSignal(), 0) {
		t.Error("station base-signal replica diverged from the sender")
	}
	if _, err := st.BaseSignal("nope"); !errors.Is(err, ErrUnknownSensor) {
		t.Error("unknown sensor base signal accepted")
	}
}

func TestStationRejectsCorruptFrame(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	comp, _ := core.NewCompressor(testConfig())
	tr, _ := comp.Encode(ds.File(0))
	frame, _ := wire.Encode(tr)
	frame[len(frame)-1] ^= 1
	if err := st.ReceiveFrame("s", frame); err == nil {
		t.Error("corrupt frame accepted")
	}
}

func TestStationRejectsOutOfOrder(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	comp, _ := core.NewCompressor(testConfig())
	t0, _ := comp.Encode(ds.File(0))
	t1, _ := comp.Encode(ds.File(1))
	if err := st.Receive("s", t1); err == nil {
		t.Error("out-of-order transmission accepted")
	}
	if err := st.Receive("s", t0); err != nil {
		t.Fatal(err)
	}
}

func TestStationConcurrentSensors(t *testing.T) {
	st, _ := New(testConfig())
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			ds := datagen.StocksSized(int64(g+1), 64, 2)
			comp, err := core.NewCompressor(testConfig())
			if err != nil {
				done <- err
				return
			}
			id := string(rune('a' + g))
			for f := 0; f < 2; f++ {
				tr, err := comp.Encode(ds.File(f))
				if err != nil {
					done <- err
					return
				}
				if err := st.Receive(id, tr); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(st.Sensors()); got != 4 {
		t.Errorf("%d sensors registered, want 4", got)
	}
}

func TestStationErrorBounds(t *testing.T) {
	// A sensor running under the MaxAbs metric ships a guaranteed bound
	// with every transmission; the station must surface it with answers
	// and the bound must actually hold.
	cfg := testConfig()
	cfg.Metric = metrics.MaxAbs
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset()
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if tr.ErrBound <= 0 {
			t.Fatalf("transmission %d has no error bound", f)
		}
		frame, err := wire.Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ReceiveFrame("s", frame); err != nil {
			t.Fatal(err)
		}
	}
	for idx := 0; idx < 2*ds.FileLen; idx += 17 {
		v, bound, err := st.AtWithBound("s", 0, idx)
		if err != nil {
			t.Fatal(err)
		}
		if bound <= 0 {
			t.Fatalf("no bound at sample %d", idx)
		}
		orig := ds.Rows[0][idx]
		if math.Abs(v-orig) > bound+1e-9 {
			t.Fatalf("sample %d: |%v − %v| exceeds the guaranteed bound %v",
				idx, v, orig, bound)
		}
	}
	win, err := st.ReadWindow("s", 0, 0, 2*ds.FileLen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if win.Bound <= 0 {
		t.Error("range bound missing")
	}
	if win, err := st.ReadWindow("s", 0, 5, 5, nil); err != nil || len(win.Values) != 0 || win.Bound != 0 {
		t.Errorf("empty window = (%d values, bound %v, %v), want no values and a zero bound", len(win.Values), win.Bound, err)
	}
	if _, err := st.ReadWindow("nope", 0, 0, 1, nil); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("unknown sensor: %v, want ErrUnknownSensor", err)
	}
}

func TestStationNoBoundsUnderSSE(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	feed(t, st, "s", ds, 1, false)
	_, bound, err := st.AtWithBound("s", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bound != 0 {
		t.Errorf("SSE-metric sensor reported bound %v, want 0", bound)
	}
}

func TestStationReceiveFailureLeavesStateConsistent(t *testing.T) {
	// A rejected transmission (wrong order) must not corrupt the sensor's
	// log: subsequent valid transmissions still decode and the history
	// stays contiguous.
	st, _ := New(testConfig())
	ds := smallDataset()
	comp, _ := core.NewCompressor(testConfig())
	t0, _ := comp.Encode(ds.File(0))
	t1, _ := comp.Encode(ds.File(1))
	t2, _ := comp.Encode(ds.File(2))

	if err := st.Receive("s", t0); err != nil {
		t.Fatal(err)
	}
	if err := st.Receive("s", t2); err == nil { // gap: must be rejected
		t.Fatal("gapped transmission accepted")
	}
	if err := st.Receive("s", t1); err != nil {
		t.Fatalf("valid transmission rejected after a failed one: %v", err)
	}
	if err := st.Receive("s", t2); err != nil {
		t.Fatalf("resumed sequence rejected: %v", err)
	}
	stats, _ := st.SensorStats("s")
	if stats.Transmissions != 3 {
		t.Errorf("%d transmissions recorded, want 3", stats.Transmissions)
	}
	hist, err := st.History("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3*ds.FileLen {
		t.Errorf("history length %d after recovery", len(hist))
	}
}

func TestStationBatchShapeChangeRejected(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	comp, _ := core.NewCompressor(testConfig())
	t0, _ := comp.Encode(ds.File(0))
	if err := st.Receive("s", t0); err != nil {
		t.Fatal(err)
	}
	// Forge a transmission with a different shape but the right sequence.
	bad := *t0
	bad.Seq = 1
	bad.N = t0.N + 1
	if err := st.Receive("s", &bad); err == nil {
		t.Error("shape change accepted")
	}
}

// TestStationRefusalLeavesReplica sends, between valid frames, frames the
// station must refuse — a changed batch shape, an interval start past the
// batch, and a reboot frame (seq 0) with the same fault — and checks that
// each refusal leaves the sensor's replica as it was: the next valid frame
// decodes, no restart is counted, and the replica still matches the
// sensor's base signal.
func TestStationRefusalLeavesReplica(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()
	comp, _ := core.NewCompressor(testConfig())
	valid := make([]*core.Transmission, 4)
	for f := range valid {
		valid[f], _ = comp.Encode(ds.File(f))
	}
	if err := st.Receive("s", valid[0]); err != nil {
		t.Fatal(err)
	}
	reboot, _ := core.NewCompressor(testConfig())
	rebootTx, _ := reboot.Encode(ds.File(1))
	for i, mut := range []func(*core.Transmission) *core.Transmission{
		func(tx *core.Transmission) *core.Transmission { bad := *tx; bad.N++; return &bad },
		func(tx *core.Transmission) *core.Transmission {
			bad := *tx
			bad.Intervals = append([]interval.Interval(nil), tx.Intervals...)
			bad.Intervals[len(bad.Intervals)-1].Start = tx.N*tx.M + 1
			return &bad
		},
		func(*core.Transmission) *core.Transmission {
			bad := *rebootTx
			bad.Intervals = append([]interval.Interval(nil), rebootTx.Intervals...)
			bad.Intervals[0].Shift = 1 << 20
			return &bad
		},
	} {
		next := valid[i+1]
		if err := st.Receive("s", mut(next)); err == nil {
			t.Fatalf("refusal %d: accepted", i)
		}
		if err := st.Receive("s", next); err != nil {
			t.Fatalf("refusal %d: the next valid frame was rejected: %v", i, err)
		}
	}
	stats, _ := st.SensorStats("s")
	if stats.Transmissions != 4 || stats.Restarts != 0 {
		t.Errorf("stats = %+v, want 4 transmissions and no restart", stats)
	}
	if replica, _ := st.BaseSignal("s"); !timeseries.Equal(replica, comp.BaseSignal(), 0) {
		t.Error("the replica no longer matches the sensor's base signal")
	}
}

func TestStationSensorRestart(t *testing.T) {
	st, _ := New(testConfig())
	ds := smallDataset()

	// First life: two transmissions.
	comp1, _ := core.NewCompressor(testConfig())
	for f := 0; f < 2; f++ {
		tr, _ := comp1.Encode(ds.File(f))
		if err := st.Receive("s", tr); err != nil {
			t.Fatal(err)
		}
	}
	// Reboot: a fresh compressor re-numbers from zero with an empty base
	// signal. The station must accept it and keep the history growing.
	comp2, _ := core.NewCompressor(testConfig())
	tr, _ := comp2.Encode(ds.File(2))
	if err := st.Receive("s", tr); err != nil {
		t.Fatalf("restart transmission rejected: %v", err)
	}
	tr2, _ := comp2.Encode(ds.File(3))
	if err := st.Receive("s", tr2); err != nil {
		t.Fatalf("post-restart transmission rejected: %v", err)
	}

	stats, _ := st.SensorStats("s")
	if stats.Transmissions != 4 || stats.Restarts != 1 {
		t.Errorf("stats = %+v, want 4 transmissions and 1 restart", stats)
	}
	hist, err := st.History("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4*ds.FileLen {
		t.Errorf("history length %d after restart, want %d", len(hist), 4*ds.FileLen)
	}
	// The post-restart chunks must still be sane reconstructions.
	orig := ds.Rows[0][2*ds.FileLen : 4*ds.FileLen]
	if mse := metrics.MeanSquared(orig, hist[2*ds.FileLen:]); mse > orig.Variance() {
		t.Errorf("post-restart reconstruction MSE %v vs variance %v", mse, orig.Variance())
	}
	// The replica matches the *second* compressor now.
	replica, _ := st.BaseSignal("s")
	if !timeseries.Equal(replica, comp2.BaseSignal(), 0) {
		t.Error("post-restart base replica does not match the new sensor")
	}
}

func TestStationRestartDisabled(t *testing.T) {
	st, _ := New(testConfig())
	st.AllowRestart = false
	ds := smallDataset()
	comp1, _ := core.NewCompressor(testConfig())
	tr, _ := comp1.Encode(ds.File(0))
	if err := st.Receive("s", tr); err != nil {
		t.Fatal(err)
	}
	comp2, _ := core.NewCompressor(testConfig())
	tr2, _ := comp2.Encode(ds.File(1))
	if err := st.Receive("s", tr2); err == nil {
		t.Error("restart accepted with AllowRestart disabled")
	}
}
