package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sbr/internal/base"
	"sbr/internal/core"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
)

func sampleTransmission(seed int64) *core.Transmission {
	rng := rand.New(rand.NewSource(seed))
	w := 4
	ivs := []timeseries.Series{
		{1.5, -2.25, 3, 4},
		{0, math.Pi, -1e-9, 7},
	}
	t := &core.Transmission{
		Seq: 3, N: 2, M: 32, W: w,
		BaseIntervals: ivs,
		Placements:    []base.Placement{{Slot: 0}, {Slot: 5}},
	}
	for k := 0; k < 6; k++ {
		t.Intervals = append(t.Intervals, interval.Interval{
			Start: k * 8,
			Shift: rng.Intn(10) - 1,
			A:     rng.NormFloat64(),
			B:     rng.NormFloat64(),
		})
	}
	t.Cost = 2*(w+1) + 6*interval.ValuesPerInterval
	return t
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := sampleTransmission(1)
	frame, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != orig.Seq || got.N != orig.N || got.M != orig.M || got.W != orig.W {
		t.Errorf("header mismatch: %+v vs %+v", got, orig)
	}
	if len(got.BaseIntervals) != 2 {
		t.Fatalf("%d base intervals back", len(got.BaseIntervals))
	}
	for i := range got.BaseIntervals {
		if !timeseries.Equal(got.BaseIntervals[i], orig.BaseIntervals[i], 0) {
			t.Errorf("base interval %d differs", i)
		}
		if got.Placements[i] != orig.Placements[i] {
			t.Errorf("placement %d differs", i)
		}
	}
	if len(got.Intervals) != len(orig.Intervals) {
		t.Fatalf("%d intervals back", len(got.Intervals))
	}
	for i := range got.Intervals {
		o, g := orig.Intervals[i], got.Intervals[i]
		if g.Start != o.Start || g.Shift != o.Shift || g.A != o.A || g.B != o.B {
			t.Errorf("interval %d: %v vs %v", i, g, o)
		}
	}
	if got.Cost != orig.Cost {
		t.Errorf("recomputed cost %d, want %d", got.Cost, orig.Cost)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	frame, _ := Encode(sampleTransmission(2))
	frame[0] = 'X'
	if _, err := DecodeBytes(frame); !errors.Is(err, ErrMagic) {
		t.Errorf("bad magic gave %v, want ErrMagic", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	frame, _ := Encode(sampleTransmission(3))
	frame[4] = 99
	if _, err := DecodeBytes(frame); err == nil {
		t.Error("bad version accepted")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	frame, _ := Encode(sampleTransmission(4))
	// Flip one payload byte (after header + length varint).
	frame[len(frame)/2] ^= 0xFF
	_, err := DecodeBytes(frame)
	if err == nil {
		t.Fatal("corrupted frame accepted")
	}
}

func TestDecodeChecksumError(t *testing.T) {
	frame, _ := Encode(sampleTransmission(5))
	frame[len(frame)-1] ^= 0x01 // corrupt the CRC itself
	if _, err := DecodeBytes(frame); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupt CRC gave %v, want ErrChecksum", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame, _ := Encode(sampleTransmission(6))
	for _, cut := range []int{0, 3, 5, 10, len(frame) - 1} {
		if _, err := DecodeBytes(frame[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeCleanEOF(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream gave %v, want io.EOF", err)
	}
}

func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	var want []*core.Transmission
	for i := int64(0); i < 3; i++ {
		tr := sampleTransmission(i)
		tr.Seq = int(i)
		want = append(want, tr)
		frame, err := Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	r := bytes.NewReader(buf.Bytes())
	for i := 0; ; i++ {
		tr, err := Decode(r)
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("decoded %d frames, want 3", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if tr.Seq != want[i].Seq {
			t.Errorf("frame %d has seq %d", i, tr.Seq)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	tr := sampleTransmission(7)
	tr.Placements = tr.Placements[:1]
	if _, err := Encode(tr); err == nil {
		t.Error("mismatched placements accepted")
	}
	tr = sampleTransmission(8)
	tr.BaseIntervals[0] = timeseries.Series{1}
	if _, err := Encode(tr); err == nil {
		t.Error("wrong-width base interval accepted")
	}
}

// TestShapeLimit: a frame must describe at least one quantity of at
// least one sample and at most maxValues samples in all. The refused
// shapes are frames of about 20 bytes that would otherwise make a
// receiver reconstruct 2²² values (N=1, M=2²²), wrap M negative (M=2⁶³)
// or wrap N·M to zero (N=M=2³²); Encode refuses what the parser does.
func TestShapeLimit(t *testing.T) {
	refused := [][2]uint64{{1, 1 << 22}, {1, 1 << 63}, {1 << 32, 1 << 32}, {0, 4}, {4, 0}, {1<<10 + 1, 1 << 10}}
	for _, nm := range refused {
		if tr, err := DecodeBytes(shapeFrame(nm[0], nm[1])); err == nil {
			t.Errorf("N=%d M=%d: decoded %d×%d, want a refusal", nm[0], nm[1], tr.N, tr.M)
		}
		if nm[0] <= math.MaxInt64 && nm[1] <= math.MaxInt64 {
			if _, err := Encode(&core.Transmission{N: int(nm[0]), M: int(nm[1]), W: 1}); err == nil {
				t.Errorf("N=%d M=%d: Encode accepted the shape", nm[0], nm[1])
			}
		}
	}
	if len(shapeFrame(1, 1<<22)) != 20 {
		t.Errorf("the N=1, M=2²² frame is %d bytes, want 20", len(shapeFrame(1, 1<<22)))
	}
	for _, nm := range [][2]uint64{{1, 1}, {1 << 10, 1 << 10}, {1, maxValues}, {15, 25600}} {
		tr, err := DecodeBytes(shapeFrame(nm[0], nm[1]))
		if err != nil || uint64(tr.N) != nm[0] || uint64(tr.M) != nm[1] {
			t.Errorf("N=%d M=%d: DecodeBytes = %v, want the shape accepted", nm[0], nm[1], err)
		}
	}
}

func TestEmptyTransmission(t *testing.T) {
	tr := &core.Transmission{Seq: 0, N: 1, M: 4, W: 2}
	frame, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.BaseIntervals) != 0 || len(got.Intervals) != 0 {
		t.Error("empty transmission decoded non-empty")
	}
}

// Property: random single-byte corruption anywhere in the frame is either
// detected or decodes to exactly the same transmission (varint prefixes can
// absorb some flips only if they re-encode the same values — anything else
// must fail).
func TestCorruptionDetectionProperty(t *testing.T) {
	orig := sampleTransmission(9)
	frame, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	f := func(posRaw uint16, bitRaw uint8) bool {
		pos := int(posRaw) % len(frame)
		bit := byte(1) << (bitRaw % 8)
		mut := append([]byte(nil), frame...)
		mut[pos] ^= bit
		got, err := DecodeBytes(mut)
		if err != nil {
			return true // detected
		}
		// Decoded despite the flip: must be semantically identical.
		if got.Seq != orig.Seq || len(got.Intervals) != len(orig.Intervals) {
			return false
		}
		for i := range got.Intervals {
			if got.Intervals[i] != orig.Intervals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: round trip is identity for random transmissions.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := rng.Intn(6) + 1
		tr := &core.Transmission{
			Seq: rng.Intn(100), N: rng.Intn(5) + 1, M: rng.Intn(64) + 1, W: w,
		}
		for k := 0; k < rng.Intn(4); k++ {
			iv := make(timeseries.Series, w)
			for i := range iv {
				iv[i] = rng.NormFloat64()
			}
			tr.BaseIntervals = append(tr.BaseIntervals, iv)
			tr.Placements = append(tr.Placements, base.Placement{Slot: rng.Intn(10)})
		}
		for k := 0; k < rng.Intn(10); k++ {
			tr.Intervals = append(tr.Intervals, interval.Interval{
				Start: rng.Intn(1000),
				Shift: rng.Intn(20) - 1,
				A:     rng.NormFloat64(),
				B:     rng.NormFloat64(),
			})
		}
		frame, err := Encode(tr)
		if err != nil {
			return false
		}
		got, err := DecodeBytes(frame)
		if err != nil {
			return false
		}
		if got.Seq != tr.Seq || got.N != tr.N || got.M != tr.M || got.W != tr.W ||
			len(got.BaseIntervals) != len(tr.BaseIntervals) ||
			len(got.Intervals) != len(tr.Intervals) {
			return false
		}
		for i := range tr.Intervals {
			o, g := tr.Intervals[i], got.Intervals[i]
			if g.Start != o.Start || g.Shift != o.Shift || g.A != o.A || g.B != o.B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWireIntegrationWithCompressor checks a full compressor → wire →
// decoder chain reconstructs identically to the in-memory path.
func TestWireIntegrationWithCompressor(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows := make([]timeseries.Series, 3)
	for r := range rows {
		rows[r] = make(timeseries.Series, 128)
		for i := range rows[r] {
			rows[r][i] = math.Sin(float64(i)/9)*10 + rng.NormFloat64()
		}
	}
	cfg := core.Config{TotalBand: 120, MBase: 60, Metric: metrics.SSE}
	comp, _ := core.NewCompressor(cfg)
	decDirect, _ := core.NewDecoder(cfg)
	decWire, _ := core.NewDecoder(cfg)

	for round := 0; round < 3; round++ {
		tr, err := comp.Encode(rows)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := decDirect.Decode(tr)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBytes(frame)
		if err != nil {
			t.Fatal(err)
		}
		viaWire, err := decWire.Decode(back)
		if err != nil {
			t.Fatal(err)
		}
		for r := range direct {
			if !timeseries.Equal(direct[r], viaWire[r], 1e-12) {
				t.Fatalf("round %d row %d: wire path diverges from direct path", round, r)
			}
		}
	}
}

func TestQuadraticRoundTrip(t *testing.T) {
	tr := sampleTransmission(11)
	tr.Intervals[2].C = -0.125
	tr.Intervals[4].C = 3.5
	frame, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Intervals {
		if got.Intervals[i].C != tr.Intervals[i].C {
			t.Errorf("interval %d: C = %v, want %v", i, got.Intervals[i].C, tr.Intervals[i].C)
		}
	}
	// Quadratic frames recompute cost at 5 values per record.
	want := 2*(tr.W+1) + len(tr.Intervals)*interval.ValuesPerQuadInterval
	if got.Cost != want {
		t.Errorf("quadratic cost %d, want %d", got.Cost, want)
	}
	// Linear frames stay compact: adding the quadratic flag grows the frame.
	linear := sampleTransmission(11)
	linFrame, err := Encode(linear)
	if err != nil {
		t.Fatal(err)
	}
	if len(linFrame) >= len(frame) {
		t.Errorf("linear frame (%d bytes) not smaller than quadratic frame (%d bytes)",
			len(linFrame), len(frame))
	}
}

func TestQuadraticEndToEndViaWire(t *testing.T) {
	rows := make([]timeseries.Series, 2)
	for r := range rows {
		rows[r] = make(timeseries.Series, 128)
		for i := range rows[r] {
			tv := float64(i%32) - 16
			rows[r][i] = float64(r+1) * (0.3*tv*tv + 2*tv - 1)
		}
	}
	cfg := core.Config{TotalBand: 80, MBase: 32, Metric: metrics.SSE, Quadratic: true}
	comp, _ := core.NewCompressor(cfg)
	dec, _ := core.NewDecoder(cfg)
	tr, err := comp.Encode(rows)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(back)
	if err != nil {
		t.Fatal(err)
	}
	y := timeseries.Concat(rows...)
	yh := timeseries.Concat(got...)
	if errv := metrics.SumSquared(y, yh); math.Abs(errv-tr.TotalErr) > 1e-6*(1+tr.TotalErr) {
		t.Errorf("wire quadratic path: decoder err %v, sender err %v", errv, tr.TotalErr)
	}
}

func TestUnknownFlagsRejected(t *testing.T) {
	// Build a frame whose flags byte carries an unassigned bit: must be
	// rejected rather than silently misparsed.
	frame, err := Encode(sampleTransmission(20))
	if err != nil {
		t.Fatal(err)
	}
	// Body starts after magic(4) + version(1) + length varint. The first
	// body byte is the flags byte.
	// Find it by decoding the varint length manually.
	i := 5
	for frame[i]&0x80 != 0 {
		i++
	}
	i++ // first body byte = flags
	frame[i] |= 0x80
	// Fix the checksum so only the flag check can fire.
	body := frame[i : len(frame)-4]
	sum := crc32.ChecksumIEEE(body)
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], sum)
	if _, err := DecodeBytes(frame); err == nil {
		t.Error("unknown flag bit accepted")
	}
}

func TestReadFrameRoundTrip(t *testing.T) {
	// A stream of three frames read back raw must byte-equal the encodings
	// and re-decode to the same transmissions.
	var stream bytes.Buffer
	var frames [][]byte
	for seed := int64(1); seed <= 3; seed++ {
		frame, err := Encode(sampleTransmission(seed))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		stream.Write(frame)
	}
	for i := 0; ; i++ {
		raw, err := ReadFrame(&stream)
		if err == io.EOF {
			if i != len(frames) {
				t.Fatalf("EOF after %d frames, want %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, frames[i]) {
			t.Fatalf("frame %d: raw bytes differ from encoding", i)
		}
		if _, err := DecodeBytes(raw); err != nil {
			t.Fatalf("frame %d: re-decoding raw frame: %v", i, err)
		}
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte("XXXXXXXXXX"))); !errors.Is(err, ErrMagic) {
		t.Fatalf("garbage magic: err = %v, want ErrMagic", err)
	}
	frame, err := Encode(sampleTransmission(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3])); err == nil {
		t.Fatal("truncated frame must fail")
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 99 // version
	if _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version must fail")
	}
}

// TestFrameSeq checks the header peek the transports use to match
// acknowledgements to outstanding frames: it must agree with the full
// decode, for plain and bounded frames alike, without touching the body.
func TestFrameSeq(t *testing.T) {
	for _, bound := range []float64{0, 0.125} {
		tr := sampleTransmission(2)
		tr.Seq = 41
		tr.ErrBound = bound
		frame, err := Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := FrameSeq(frame)
		if err != nil {
			t.Fatalf("bound=%v: %v", bound, err)
		}
		if seq != tr.Seq {
			t.Errorf("bound=%v: FrameSeq = %d, want %d", bound, seq, tr.Seq)
		}
	}
	if _, err := FrameSeq([]byte("XXXX-definitely-not-a-frame")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := FrameSeq(nil); err == nil {
		t.Error("empty frame accepted")
	}
	frame, err := Encode(sampleTransmission(3))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 99 // version
	if _, err := FrameSeq(bad); err == nil {
		t.Error("bad version accepted")
	}
}

// TestReuseMatchesFreshDecodes drives one stream through the reused path
// of a cold read — every frame parsed into one Transmission (DecodeInto)
// and decoded by one Decoder with its scratch space — and through fresh
// ones: DecodeBytes, and a decoder seeded (NewDecoderAt) from the state
// the reused one had before the frame. A frame with many intervals and
// inserts comes first, then ones with few and none, a refused update, a
// corrupt frame and an insert that replaces a slot. Rows, errors and
// replica states must be identical bit for bit.
func TestReuseMatchesFreshDecodes(t *testing.T) {
	cfg := core.Config{TotalBand: 64, MBase: 16, Metric: metrics.SSE}
	const n, m, w = 2, 16, 4
	base4 := func(v float64) timeseries.Series { return timeseries.Series{v, -v, 2 * v, v / 3} }
	tx := func(seq int, inserts []timeseries.Series, slots []int, starts, shifts []int) *core.Transmission {
		tr := &core.Transmission{Seq: seq, N: n, M: m, W: w, BaseIntervals: inserts}
		for _, s := range slots {
			tr.Placements = append(tr.Placements, base.Placement{Slot: s})
		}
		for i, s := range starts {
			tr.Intervals = append(tr.Intervals, interval.Interval{Start: s, Shift: shifts[i], A: 0.5 + float64(i), B: float64(seq) - 1})
		}
		return tr
	}
	many := tx(0, []timeseries.Series{base4(1), base4(2), base4(3)}, []int{0, 1, 2},
		[]int{0, 3, 6, 9, 12, 15, 18, 21, 24, 27}, []int{0, 2, interval.RampShift, 5, 8, 1, 4, interval.RampShift, 9, 7})
	few := tx(1, nil, nil, []int{0, 11, 20}, []int{0, interval.RampShift, 0})
	none := tx(2, nil, nil, []int{0}, []int{interval.RampShift})
	refused := tx(3, nil, nil, []int{0, 30}, []int{10, 0}) // shift 10 of a 32-sample interval: past the signal
	insert := tx(3, []timeseries.Series{base4(4)}, []int{3}, []int{0, 8}, []int{8, interval.RampShift})
	replace := tx(4, []timeseries.Series{base4(5), base4(6)}, []int{0, 2}, []int{0, 5, 31}, []int{1, interval.RampShift, 15})
	var frames [][]byte
	for _, tr := range []*core.Transmission{many, few, none, refused, insert, replace} {
		frame, err := Encode(tr)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	corrupt := append([]byte(nil), frames[1]...)
	corrupt[len(corrupt)-1] ^= 1
	frames = append(frames[:4], append([][]byte{corrupt}, frames[4:]...)...)

	var reused core.Transmission
	dec, err := core.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := make(timeseries.Series, m)
	for i, frame := range frames {
		before := dec.State()
		fresh, ferr := DecodeBytes(frame)
		rerr := DecodeInto(&reused, frame)
		if fmt.Sprint(rerr) != fmt.Sprint(ferr) {
			t.Fatalf("frame %d: DecodeInto error %v, DecodeBytes error %v", i, rerr, ferr)
		}
		if ferr != nil {
			continue
		}
		if !sameTransmission(&reused, fresh) {
			t.Fatalf("frame %d: DecodeInto parsed %+v, DecodeBytes %+v", i, reused, *fresh)
		}
		ref, err := core.NewDecoderAt(cfg, before)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := ref.Decode(fresh)
		q := i % n
		for j := range row {
			row[j] = math.NaN()
		}
		if gerr := dec.DecodeRow(&reused, q, row); fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("frame %d: reused decode error %v, fresh decode error %v", i, gerr, werr)
		}
		if werr == nil {
			for j, v := range want[q] {
				if math.Float64bits(row[j]) != math.Float64bits(v) {
					t.Fatalf("frame %d row %d sample %d: reused decode %v, fresh decode %v", i, q, j, row[j], v)
				}
			}
		}
		if got, want := dec.State(), ref.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: reused replica %+v, fresh replica %+v", i, got, want)
		}
	}
	if dec.State().Next != 5 {
		t.Fatalf("the stream ended at transmission %d, want all 5 accepted ones decoded", dec.State().Next)
	}
}
