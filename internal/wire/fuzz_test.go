package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"sbr/internal/base"
	"sbr/internal/core"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
)

// FuzzDecode checks that arbitrary byte streams never crash the decoder,
// that the in-place parser accepts exactly the inputs the reader-based
// parser it replaced accepts (oracleDecode), with identical fields, that
// parsing into a Transmission a larger frame filled first (DecodeInto)
// gives what DecodeBytes gives, errors included, and that every frame the
// decoder accepts re-encodes to a frame the decoder accepts again with
// identical content. Run with `go test -fuzz=FuzzDecode ./internal/wire`
// for an open-ended session; the seed corpus runs in every regular `go
// test`.
func FuzzDecode(f *testing.F) {
	// Seed with valid frames of several shapes plus structured garbage.
	seeds := []*core.Transmission{
		{Seq: 0, N: 1, M: 4, W: 2},
		{
			Seq: 7, N: 2, M: 16, W: 3,
			BaseIntervals: []timeseries.Series{{1, 2, 3}},
			Placements:    []base.Placement{{Slot: 0}},
			Intervals: []interval.Interval{
				{Start: 0, Shift: -1, A: 1.5, B: -2},
				{Start: 16, Shift: 2, A: 0, B: 9},
			},
		},
		{
			Seq: 3, N: 1, M: 8, W: 2,
			Intervals: []interval.Interval{{Start: 0, Shift: 1, A: 1, B: 2, C: -0.5}},
		},
	}
	for _, t := range seeds {
		frame, err := Encode(t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte("SBRT"))
	f.Add([]byte{'S', 'B', 'R', 'T', 1, 0xFF, 0xFF, 0xFF})

	// Frames the old parser refused without reading the whole body.
	f.Add(withBody([]byte{0, 0, 1, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1})) // W = 2⁶⁴−1
	f.Add(withBody([]byte{0, 0, 1, 4, 0, 0xff, 0xff, 0xff, 0x7f}))                                     // 2²⁸−1 empty inserts
	f.Add(withBody([]byte{0, 0, 1, 4, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x01}))                            // 2²⁸ intervals
	f.Add(withBody([]byte{0, 0, 1, 4, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0})) // placement slot 2⁶⁴−1, which int() makes −1

	// Shapes outside the frame shape limit, each a few bytes long.
	for _, nm := range [][2]uint64{{1, 1 << 22}, {1, 1 << 63}, {1 << 32, 1 << 32}, {0, 4}, {1, 0}} {
		f.Add(shapeFrame(nm[0], nm[1]))
	}

	big, err := Encode(bigTransmission())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		old, oldErr := oracleDecode(bytes.NewReader(data))
		if (err == nil) != (oldErr == nil) {
			t.Fatalf("DecodeBytes error %v, reader-based parser error %v", err, oldErr)
		}
		var reused core.Transmission
		if err := DecodeInto(&reused, big); err != nil {
			t.Fatal(err)
		}
		if rerr := DecodeInto(&reused, data); fmt.Sprint(rerr) != fmt.Sprint(err) {
			t.Fatalf("DecodeInto over a parsed frame: error %v, DecodeBytes error %v", rerr, err)
		}
		if err != nil {
			return // rejection is always fine; crashing is not
		}
		if !sameTransmission(tr, old) {
			t.Fatalf("DecodeBytes parsed %+v, the reader-based parser %+v", tr, old)
		}
		if !sameTransmission(&reused, tr) || reused.TotalErr != 0 {
			t.Fatalf("DecodeInto over a parsed frame gave %+v, DecodeBytes %+v", reused, *tr)
		}
		// Accepted frames must round-trip losslessly.
		frame2, err := Encode(tr)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		tr2, err := DecodeBytes(frame2)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if tr2.Seq != tr.Seq || tr2.N != tr.N || tr2.M != tr.M || tr2.W != tr.W ||
			len(tr2.Intervals) != len(tr.Intervals) ||
			len(tr2.BaseIntervals) != len(tr.BaseIntervals) {
			t.Fatal("round trip changed the transmission")
		}
		for i := range tr.Intervals {
			a, b := tr.Intervals[i], tr2.Intervals[i]
			if a.Start != b.Start || a.Shift != b.Shift ||
				!sameFloat(a.A, b.A) || !sameFloat(a.B, b.B) || !sameFloat(a.C, b.C) {
				t.Fatalf("interval %d changed: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzReadFrame loops ReadFrame over arbitrary bytes, the way the server
// reads a sensor connection: it must never panic, and every frame it
// yields must be framing-stable. ReadFrame does not verify the CRC (the
// station's decode does), but each yielded frame is the next slice of the
// input, exactly as long as its header declares, and reading it back from
// its own bytes reproduces it exactly, so one frame can never smear into
// the next.
func FuzzReadFrame(f *testing.F) {
	comp, err := core.NewCompressor(core.Config{TotalBand: 8, MBase: 8, Metric: metrics.SSE})
	if err != nil {
		f.Fatal(err)
	}
	var stream []byte
	for b := 0; b < 3; b++ {
		row := make(timeseries.Series, 16)
		for i := range row {
			row[i] = math.Sin(float64(b*16+i) / 3)
		}
		tr, err := comp.Encode([]timeseries.Series{row})
		if err != nil {
			f.Fatal(err)
		}
		// Trace ID b: the first frame is plain, the others carry the
		// optional trace header.
		frame, err := EncodeTraced(tr, TraceContext{ID: uint64(b), Sampled: b == 1})
		if err != nil {
			f.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	f.Add(stream)                 // a clean multi-frame stream
	f.Add(stream[:len(stream)-7]) // torn tail
	mut := append([]byte(nil), stream...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut) // corrupt interior
	f.Add([]byte{})
	f.Add([]byte("SBRT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		off := 0
		for {
			frame, err := ReadFrame(r)
			if err != nil {
				return // a clean end, or a torn or corrupt stream
			}
			if !bytes.HasPrefix(data[off:], frame) {
				t.Fatalf("frame at offset %d is not the next slice of the input", off)
			}
			off += len(frame)
			head := 5 // magic and version, then the optional trace header
			if frame[4] == VersionTraced {
				head += traceHeaderLen
			}
			bodyLen, n := binary.Uvarint(frame[head:])
			if n <= 0 || len(frame) != head+n+int(bodyLen)+4 {
				t.Fatalf("frame of %d bytes, header declares a %d-byte body", len(frame), bodyLen)
			}
			again, err := ReadFrame(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("yielded frame does not re-frame: %v", err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatal("yielded frame re-frames to different bytes")
			}
		}
	})
}

// bigTransmission is a quadratic, bounded frame with more inserts and
// intervals, and wider base intervals, than any other seed: parsed first
// into a reused Transmission, it leaves every slice longer and every field
// set.
func bigTransmission() *core.Transmission {
	t := &core.Transmission{Seq: 9, N: 2, M: 32, W: 6, ErrBound: 0.75, TotalErr: 3}
	for i := 0; i < 5; i++ {
		iv := make(timeseries.Series, t.W)
		for j := range iv {
			iv[j] = float64(i*t.W+j) - 7.5
		}
		t.BaseIntervals = append(t.BaseIntervals, iv)
		t.Placements = append(t.Placements, base.Placement{Slot: i})
	}
	for i := 0; i < 12; i++ {
		t.Intervals = append(t.Intervals, interval.Interval{Start: 5 * i, Shift: i - 1, A: 0.5 * float64(i), B: -1, C: 0.25})
	}
	return t
}

// withBody frames a body with a valid checksum.
func withBody(body []byte) []byte {
	var frame bytes.Buffer
	frame.Write(magic[:])
	frame.WriteByte(Version)
	putUvarint(&frame, uint64(len(body)))
	frame.Write(body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	frame.Write(crc[:])
	return frame.Bytes()
}

// sameTransmission compares every parsed field, floats by their bits.
func sameTransmission(a, b *core.Transmission) bool {
	if a.Seq != b.Seq || a.N != b.N || a.M != b.M || a.W != b.W || a.Cost != b.Cost ||
		math.Float64bits(a.ErrBound) != math.Float64bits(b.ErrBound) ||
		len(a.Intervals) != len(b.Intervals) || len(a.BaseIntervals) != len(b.BaseIntervals) ||
		!reflect.DeepEqual(a.Placements, b.Placements) {
		return false
	}
	for i, x := range a.Intervals {
		y := b.Intervals[i]
		if x.Start != y.Start || x.Length != y.Length || x.Shift != y.Shift ||
			math.Float64bits(x.A) != math.Float64bits(y.A) || math.Float64bits(x.B) != math.Float64bits(y.B) ||
			math.Float64bits(x.C) != math.Float64bits(y.C) {
			return false
		}
	}
	for i, x := range a.BaseIntervals {
		y := b.BaseIntervals[i]
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				return false
			}
		}
	}
	return true
}

// shapeFrame is a checksummed frame of n quantities of m samples, W 1 and
// no records.
func shapeFrame(n, m uint64) []byte {
	var body bytes.Buffer
	body.WriteByte(0) // flags
	// seq, N, M, W, insert count, interval count
	for _, v := range []uint64{0, n, m, 1, 0, 0} {
		putUvarint(&body, v)
	}
	return withBody(body.Bytes())
}

// oracleDecode is the reader-based frame parser that DecodeBytes
// replaced, kept as FuzzDecode's oracle. It refuses the shapes the format
// has refused since the shape limit was added: N or M zero, or N·M above
// maxValues. Three guards differ from it, none in what it accepts: the
// insert-count bound no longer divides by zero for W = 2⁶⁴−1, and a body
// length, insert count or interval count the remaining bytes cannot hold
// is refused before it is allocated rather than when the read runs out.
func oracleDecode(r *bytes.Reader) (*core.Transmission, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if !bytes.Equal(head[:4], magic[:]) {
		return nil, ErrMagic
	}
	if head[4] != Version && head[4] != VersionTraced {
		return nil, fmt.Errorf("wire: unsupported frame version %d", head[4])
	}
	if head[4] == VersionTraced {
		var thdr [traceHeaderLen]byte
		if _, err := io.ReadFull(r, thdr[:]); err != nil {
			return nil, fmt.Errorf("wire: reading trace header: %w", err)
		}
	}
	bodyLen, err := binary.ReadUvarint(&byteCounter{r: r})
	if err != nil {
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if bodyLen > maxReasonable {
		return nil, fmt.Errorf("wire: frame length %d too large", bodyLen)
	}
	if bodyLen > uint64(r.Len()) {
		return nil, fmt.Errorf("wire: reading frame body: %w", io.ErrUnexpectedEOF)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("wire: reading frame checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc32.ChecksumIEEE(body) {
		return nil, ErrChecksum
	}
	return oracleBody(bytes.NewReader(body))
}

func oracleBody(r *bytes.Reader) (*core.Transmission, error) {
	flags, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: reading flags: %w", err)
	}
	if flags&^(flagQuadratic|flagBounded) != 0 {
		return nil, fmt.Errorf("wire: unknown flags 0x%02x", flags)
	}
	var errBound float64
	if flags&flagBounded != 0 {
		errBound, err = oracleFloat(r)
		if err != nil {
			return nil, err
		}
	}
	var head [4]uint64 // seq, N, M, W
	for i := range head {
		if head[i], err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("wire: reading header field %d: %w", i, err)
		}
	}
	seq, n, m, w := head[0], head[1], head[2], head[3]
	if hi, lo := bits.Mul64(n, m); n == 0 || m == 0 || hi != 0 || lo > maxValues {
		return nil, fmt.Errorf("wire: %d×%d frame outside the shape limit", n, m)
	}
	t := &core.Transmission{Seq: int(seq), N: int(n), M: int(m), W: int(w), ErrBound: errBound}

	ins, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("wire: reading insert count: %w", err)
	}
	if ins > 0 && (w >= maxReasonable || ins > maxReasonable/(w+1)) {
		return nil, fmt.Errorf("wire: implausible insert count %d", ins)
	}
	if ins > 0 && ins > uint64(r.Len())/(8*w+1) {
		return nil, fmt.Errorf("wire: reading placement slot: %w", io.ErrUnexpectedEOF)
	}
	t.BaseIntervals = make([]timeseries.Series, ins)
	t.Placements = make([]base.Placement, ins)
	for i := range t.BaseIntervals {
		slot, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("wire: reading placement slot: %w", err)
		}
		t.Placements[i] = base.Placement{Slot: int(slot)}
		iv := make(timeseries.Series, w)
		for j := range iv {
			v, err := oracleFloat(r)
			if err != nil {
				return nil, err
			}
			iv[j] = v
		}
		t.BaseIntervals[i] = iv
	}

	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("wire: reading interval count: %w", err)
	}
	if count > maxReasonable {
		return nil, fmt.Errorf("wire: implausible interval count %d", count)
	}
	if count > uint64(r.Len())/minRecordBytes {
		return nil, fmt.Errorf("wire: reading interval start: %w", io.ErrUnexpectedEOF)
	}
	t.Intervals = make([]interval.Interval, count)
	for i := range t.Intervals {
		start, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("wire: reading interval start: %w", err)
		}
		shift, err := binary.ReadVarint(r)
		if err != nil {
			return nil, fmt.Errorf("wire: reading interval shift: %w", err)
		}
		a, err := oracleFloat(r)
		if err != nil {
			return nil, err
		}
		b, err := oracleFloat(r)
		if err != nil {
			return nil, err
		}
		var cq float64
		if flags&flagQuadratic != 0 {
			cq, err = oracleFloat(r)
			if err != nil {
				return nil, err
			}
		}
		t.Intervals[i] = interval.Interval{
			Start: int(start), Shift: int(shift), A: a, B: b, C: cq,
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in frame body", r.Len())
	}
	perRecord := interval.ValuesPerInterval
	if flags&flagQuadratic != 0 {
		perRecord = interval.ValuesPerQuadInterval
	}
	t.Cost = int(ins)*(t.W+1) + len(t.Intervals)*perRecord
	return t, nil
}

func oracleFloat(r *bytes.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("wire: reading value: %w", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// sameFloat treats NaN as equal to NaN: fuzzed frames can carry NaN
// payloads, which never compare equal via ==.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}
