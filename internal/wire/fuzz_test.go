package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"sbr/internal/base"
	"sbr/internal/core"
	"sbr/internal/interval"
	"sbr/internal/metrics"
	"sbr/internal/timeseries"
)

// FuzzDecode checks that arbitrary byte streams never crash the decoder and
// that every frame the decoder accepts re-encodes to a frame the decoder
// accepts again with identical content. Run with `go test -fuzz=FuzzDecode
// ./internal/wire` for an open-ended session; the seed corpus runs in every
// regular `go test`.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBytes(data)
		if err != nil {
			return // rejection is always fine; crashing is not
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

// sameFloat treats NaN as equal to NaN: fuzzed frames can carry NaN
// payloads, which never compare equal via ==.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}
