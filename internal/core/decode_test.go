package core

import (
	"math"
	"reflect"
	"testing"

	"sbr/internal/base"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
)

// cloneTx deep-copies the parts of a transmission a test mutates.
func cloneTx(t *Transmission) *Transmission {
	c := *t
	c.Intervals = append([]interval.Interval(nil), t.Intervals...)
	c.Placements = append([]base.Placement(nil), t.Placements...)
	c.BaseIntervals = make([]timeseries.Series, len(t.BaseIntervals))
	for i, iv := range t.BaseIntervals {
		c.BaseIntervals[i] = iv.Clone()
	}
	return &c
}

// TestRejectionLeavesReplica feeds a decoder each kind of transmission it
// must refuse — on a fresh replica and after a valid transmission, through
// Decode, DecodeRow and Advance — and requires the refusal to leave
// State() unchanged: the next valid transmission then decodes exactly as
// on a replica that never saw the refused one.
func TestRejectionLeavesReplica(t *testing.T) {
	cfg := Config{TotalBand: 300, MBase: 320, Metric: metrics.SSE}
	comp, err := NewCompressorForceIns(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]*Transmission, 3)
	for i := range txs {
		if txs[i], err = comp.Encode(testRows(int64(20+i), 4, 256)); err != nil {
			t.Fatal(err)
		}
	}
	ref, _ := NewDecoder(cfg)
	want := make([][]timeseries.Series, len(txs))
	for i, tx := range txs {
		if want[i], err = ref.Decode(tx); err != nil {
			t.Fatal(err)
		}
	}

	kinds := []struct {
		name string
		mut  func(*Transmission)
	}{
		{"seq ahead", func(tx *Transmission) { tx.Seq++ }},
		{"seq behind", func(tx *Transmission) { tx.Seq-- }},
		{"width", func(tx *Transmission) { tx.W++ }},
		{"zero width", func(tx *Transmission) { tx.W = 0 }},
		{"start past the batch", func(tx *Transmission) {
			tx.Intervals[len(tx.Intervals)-1].Start = tx.N*tx.M + 1
		}},
		{"shift past the base signal", func(tx *Transmission) { tx.Intervals[0].Shift = 1 << 20 }},
		{"placement out of range", func(tx *Transmission) { tx.Placements[0].Slot = 99 }},
		{"valid insert then a bad placement", func(tx *Transmission) {
			tx.BaseIntervals = append(tx.BaseIntervals, tx.BaseIntervals[0].Clone())
			tx.Placements = append(tx.Placements, base.Placement{Slot: 99})
		}},
		{"base interval width", func(tx *Transmission) { tx.BaseIntervals[0] = tx.BaseIntervals[0][:1] }},
		{"placements missing", func(tx *Transmission) { tx.Placements = nil }},
	}
	entries := []struct {
		name string
		call func(*Decoder, *Transmission) error
	}{
		{"Decode", func(d *Decoder, tx *Transmission) error { _, err := d.Decode(tx); return err }},
		{"DecodeRow", func(d *Decoder, tx *Transmission) error { return d.DecodeRow(tx, 1, make(timeseries.Series, tx.M)) }},
		{"Advance", func(d *Decoder, tx *Transmission) error { return d.Advance(tx) }},
		{"DecodeRow out of range", func(d *Decoder, tx *Transmission) error {
			return d.DecodeRow(tx, tx.N, make(timeseries.Series, tx.M))
		}},
		{"DecodeRow short of room", func(d *Decoder, tx *Transmission) error {
			return d.DecodeRow(tx, 1, make(timeseries.Series, tx.M-1))
		}},
	}
	for _, at := range []int{0, 1} { // refused as the first transmission, then after one
		for _, k := range kinds {
			for _, e := range entries {
				if at == 0 && (k.name == "seq behind" || k.name == "width") {
					continue // a fresh replica has no width, and seq -1 is just out of order
				}
				dec, _ := NewDecoder(cfg)
				for _, tx := range txs[:at] {
					if _, err := dec.Decode(tx); err != nil {
						t.Fatal(err)
					}
				}
				before := dec.State()
				bad := cloneTx(txs[at])
				if e.name == "Decode" || e.name == "DecodeRow" || e.name == "Advance" {
					k.mut(bad)
				}
				if err := e.call(dec, bad); err == nil {
					t.Fatalf("at %d, %s, %s: accepted", at, k.name, e.name)
				}
				if after := dec.State(); !reflect.DeepEqual(before, after) {
					t.Fatalf("at %d, %s, %s: refusal changed the replica from %+v to %+v", at, k.name, e.name, before, after)
				}
				for i := at; i < len(txs); i++ {
					rows, err := dec.Decode(txs[i])
					if err != nil {
						t.Fatalf("at %d, %s, %s: transmission %d after the refusal: %v", at, k.name, e.name, i, err)
					}
					if !sameBits(rows, want[i]) {
						t.Fatalf("at %d, %s, %s: transmission %d decodes differently after the refusal", at, k.name, e.name, i)
					}
				}
			}
		}
	}
}

// TestAdvanceThenDecodeRow checks that a replica advanced past the first
// transmissions reconstructs every later row bit-identically to a replica
// that decoded everything, into one buffer it overwrites each time.
func TestAdvanceThenDecodeRow(t *testing.T) {
	cfg := Config{TotalBand: 300, MBase: 320, Metric: metrics.SSE}
	comp, err := NewCompressorForceIns(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewDecoder(cfg)
	var txs []*Transmission
	var want [][]timeseries.Series
	for i := 0; i < 4; i++ {
		tx, err := comp.Encode(testRows(int64(30+i), 4, 256))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ref.Decode(tx)
		if err != nil {
			t.Fatal(err)
		}
		txs, want = append(txs, tx), append(want, rows)
	}
	got := make(timeseries.Series, 256)
	for skip := range txs {
		for row := 0; row < 4; row++ {
			dec, _ := NewDecoder(cfg)
			for _, tx := range txs[:skip] {
				if err := dec.Advance(tx); err != nil {
					t.Fatal(err)
				}
			}
			for i := skip; i < len(txs); i++ {
				for j := range got {
					got[j] = math.NaN()
				}
				if err := dec.DecodeRow(txs[i], row, got); err != nil {
					t.Fatal(err)
				}
				if !sameBits([]timeseries.Series{got}, want[i][row:row+1]) {
					t.Fatalf("advanced %d, transmission %d row %d differs from a full decode", skip, i, row)
				}
			}
			if !reflect.DeepEqual(dec.State(), ref.State()) {
				t.Fatalf("advanced %d, row %d: replica state differs from a full decode", skip, row)
			}
		}
	}
}

// sameBits compares rows by their IEEE-754 bits.
func sameBits(a, b []timeseries.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
