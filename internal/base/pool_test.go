package base

import (
	"testing"

	"sbr/internal/timeseries"
)

func iv(vals ...float64) timeseries.Series { return timeseries.Series(vals) }

func TestPoolAppendWithinCapacity(t *testing.T) {
	p := NewPool(8, 2) // 4 slots
	pl, err := p.Commit([]timeseries.Series{iv(1, 2), iv(3, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 2 || pl[0].Slot != 0 || pl[1].Slot != 1 {
		t.Errorf("placements = %v", pl)
	}
	if p.NumIntervals() != 2 || p.Size() != 4 {
		t.Errorf("pool holds %d intervals / %d values", p.NumIntervals(), p.Size())
	}
	if !timeseries.Equal(p.Signal(), iv(1, 2, 3, 4), 0) {
		t.Errorf("signal = %v", p.Signal())
	}
}

func TestPoolCommitCopiesData(t *testing.T) {
	p := NewPool(4, 2)
	src := iv(1, 2)
	if _, err := p.Commit([]timeseries.Series{src}, nil); err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if p.Signal()[0] != 1 {
		t.Error("pool shares storage with the committed interval")
	}
}

func TestPoolLFUEviction(t *testing.T) {
	p := NewPool(4, 2) // 2 slots
	if _, err := p.Commit([]timeseries.Series{iv(1, 1), iv(2, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	// Bump slot 1's frequency; slot 0 stays cold.
	counts := p.UseCounts(1)
	counts[1] = 5
	pl, err := p.Commit([]timeseries.Series{iv(3, 3)}, counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 1 || pl[0].Slot != 0 {
		t.Fatalf("placement = %v, want replacement of cold slot 0", pl)
	}
	if !timeseries.Equal(p.Signal(), iv(3, 3, 2, 2), 0) {
		t.Errorf("post-eviction signal = %v", p.Signal())
	}
}

func TestPoolLFUTieBreaksLowestIndex(t *testing.T) {
	p := NewPool(4, 2)
	if _, err := p.Commit([]timeseries.Series{iv(1, 1), iv(2, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	pl, err := p.Commit([]timeseries.Series{iv(3, 3)}, p.UseCounts(1))
	if err != nil {
		t.Fatal(err)
	}
	if pl[0].Slot != 0 {
		t.Errorf("equal-frequency eviction chose slot %d, want 0", pl[0].Slot)
	}
}

func TestPoolNewIntervalsNotEvicted(t *testing.T) {
	// Capacity 2, starts full; inserting 2 intervals must evict both old
	// slots, never a new interval.
	p := NewPool(4, 2)
	if _, err := p.Commit([]timeseries.Series{iv(1, 1), iv(2, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	pl, err := p.Commit([]timeseries.Series{iv(7, 7), iv(8, 8)}, p.UseCounts(2))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{pl[0].Slot: true, pl[1].Slot: true}
	if !got[0] || !got[1] {
		t.Errorf("placements = %v, want slots {0,1}", pl)
	}
	sig := p.Signal()
	if !(sig[0] == 7 || sig[0] == 8) || !(sig[2] == 7 || sig[2] == 8) {
		t.Errorf("post-eviction signal = %v", sig)
	}
}

func TestPoolCountUse(t *testing.T) {
	p := NewPool(8, 4) // slots of width 4
	if _, err := p.Commit([]timeseries.Series{iv(0, 0, 0, 0), iv(1, 1, 1, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	counts := p.UseCounts(0)
	p.CountUse(counts, 2, 4) // spans slots 0 and 1
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("counts = %v, want both slots bumped", counts)
	}
	p.CountUse(counts, 0, 2) // only slot 0
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts = %v", counts)
	}
	p.CountUse(counts, -1, 3) // ramp mapping: ignored
	p.CountUse(counts, 0, 0)  // empty: ignored
	if counts[0] != 2 {
		t.Errorf("invalid uses changed counts: %v", counts)
	}
}

func TestPoolCommitValidation(t *testing.T) {
	p := NewPool(8, 2)
	if _, err := p.Commit([]timeseries.Series{iv(1)}, nil); err == nil {
		t.Error("wrong-width interval accepted")
	}
	if _, err := p.Commit([]timeseries.Series{iv(1, 2), iv(1, 2), iv(1, 2), iv(1, 2), iv(1, 2)}, nil); err == nil {
		t.Error("oversized insert accepted")
	}
	if _, err := p.Commit([]timeseries.Series{iv(1, 2)}, []int{1, 2, 3}); err == nil {
		t.Error("wrong counts length accepted")
	}
}

func TestPoolApplyMirrorsCommit(t *testing.T) {
	sender := NewPool(6, 2) // 3 slots
	replica := NewPool(6, 2)

	step := func(ivs []timeseries.Series, hot []int) {
		t.Helper()
		counts := sender.UseCounts(len(ivs))
		for _, h := range hot {
			counts[h] += 3
		}
		pl, err := sender.Commit(ivs, counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Apply(ivs, pl); err != nil {
			t.Fatal(err)
		}
		if !timeseries.Equal(sender.Signal(), replica.Signal(), 0) {
			t.Fatalf("replica diverged: sender=%v replica=%v",
				sender.Signal(), replica.Signal())
		}
	}

	step([]timeseries.Series{iv(1, 1), iv(2, 2)}, nil)
	step([]timeseries.Series{iv(3, 3)}, []int{0})
	step([]timeseries.Series{iv(4, 4), iv(5, 5)}, []int{2}) // forces eviction
	step(nil, []int{0, 1})
	step([]timeseries.Series{iv(6, 6)}, nil) // another eviction round
}

func TestPoolApplyValidation(t *testing.T) {
	p := NewPool(4, 2)
	if err := p.Apply([]timeseries.Series{iv(1, 2)}, nil); err == nil {
		t.Error("mismatched placements accepted")
	}
	if err := p.Apply([]timeseries.Series{iv(1)}, []Placement{{Slot: 0}}); err == nil {
		t.Error("wrong-width interval accepted")
	}
	if err := p.Apply([]timeseries.Series{iv(1, 2)}, []Placement{{Slot: 5}}); err == nil {
		t.Error("out-of-range placement accepted")
	}
}

// TestPoolApplyRefusalLeavesPool checks that an update refused at its
// last interval stores none of the earlier ones.
func TestPoolApplyRefusalLeavesPool(t *testing.T) {
	p := NewPool(6, 2)
	if err := p.Apply([]timeseries.Series{iv(1, 2)}, []Placement{{Slot: 0}}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]Placement{
		{{Slot: 1}, {Slot: 0}, {Slot: 9}}, // append, overwrite, then out of range
		{{Slot: 1}, {Slot: 2}, {Slot: 3}}, // the third append exceeds the capacity
		{{Slot: 0}, {Slot: 1}, {Slot: -1}},
	} {
		if err := p.Apply([]timeseries.Series{iv(3, 4), iv(5, 6), iv(7, 8)}, bad); err == nil {
			t.Fatalf("placements %v accepted", bad)
		}
		if got := p.Signal(); !timeseries.Equal(got, iv(1, 2), 0) {
			t.Fatalf("placements %v refused, but the pool now holds %v", bad, got)
		}
	}
}

func TestPoolClone(t *testing.T) {
	p := NewPool(4, 2)
	if _, err := p.Commit([]timeseries.Series{iv(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if _, err := c.Commit([]timeseries.Series{iv(9, 9)}, nil); err != nil {
		t.Fatal(err)
	}
	if p.NumIntervals() != 1 {
		t.Error("Clone shares state with the original")
	}
}

func TestPoolFrequenciesAccumulate(t *testing.T) {
	p := NewPool(8, 2)
	if _, err := p.Commit([]timeseries.Series{iv(1, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	counts := p.UseCounts(0)
	counts[0] = 4
	if _, err := p.Commit(nil, counts); err != nil {
		t.Fatal(err)
	}
	counts = p.UseCounts(0)
	counts[0] = 3
	if _, err := p.Commit(nil, counts); err != nil {
		t.Fatal(err)
	}
	if freqs := p.Frequencies(); freqs[0] != 7 {
		t.Errorf("frequency = %d, want 7", freqs[0])
	}
}

func TestNewPoolPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPool(…, 0) did not panic")
		}
	}()
	NewPool(8, 0)
}

// TestPoolAppendSignal: the signal with pending intervals is the stored
// slots, then the pending ones, and building it leaves the pool as it was.
func TestPoolAppendSignal(t *testing.T) {
	p := NewPool(8, 2)
	if _, err := p.Commit([]timeseries.Series{iv(1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	x := p.AppendSignal(nil, []timeseries.Series{iv(3, 4)})
	if !timeseries.Equal(x, iv(1, 2, 3, 4), 0) {
		t.Errorf("AppendSignal = %v", x)
	}
	if p.NumIntervals() != 1 {
		t.Error("AppendSignal mutated the pool")
	}
}

func TestPoolAppendSignalReusesScratch(t *testing.T) {
	p := NewPool(8, 2)
	if _, err := p.Commit([]timeseries.Series{{1, 2}, {3, 4}}, nil); err != nil {
		t.Fatal(err)
	}
	pending := []timeseries.Series{{5, 6}, {7, 8}}

	scratch := make(timeseries.Series, 0, 1)
	got := p.AppendSignal(scratch[:0], pending)
	if want := iv(1, 2, 3, 4, 5, 6, 7, 8); !timeseries.Equal(got, want, 0) {
		t.Fatalf("AppendSignal = %v, want %v", got, want)
	}
	// Reuse: a second call into the same (now larger) scratch allocates
	// nothing and overwrites the previous contents.
	again := p.AppendSignal(got[:0], nil)
	if !timeseries.Equal(again, p.Signal(), 0) {
		t.Fatalf("reused AppendSignal = %v, want %v", again, p.Signal())
	}
	if &again[0] != &got[0] {
		t.Error("second AppendSignal should reuse the scratch backing array")
	}
}

// TestPoolApplyOverwritesInPlace: a replica whose pool is full applies a
// replacement without allocating, and the slot holds a copy, not the
// caller's slice.
func TestPoolApplyOverwritesInPlace(t *testing.T) {
	p := NewPool(4, 2)
	if err := p.Apply([]timeseries.Series{{1, 2}, {3, 4}}, []Placement{{Slot: 0}, {Slot: 1}}); err != nil {
		t.Fatal(err)
	}
	in := []timeseries.Series{{5, 6}}
	at := []Placement{{Slot: 0}}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Apply(in, at); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Apply into a full pool allocated %v times", n)
	}
	in[0][0] = 99
	if got := p.Signal(); !timeseries.Equal(got, iv(5, 6, 3, 4), 0) {
		t.Errorf("signal %v, want [5 6 3 4]", got)
	}
}
