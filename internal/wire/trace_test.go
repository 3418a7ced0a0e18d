package wire

import (
	"bytes"
	"testing"
)

func TestEncodeTracedRoundTrip(t *testing.T) {
	orig := sampleTransmission(11)
	tc := TraceContext{ID: 0xdeadbeefcafe0001, Sampled: true}
	frame, err := EncodeTraced(orig, tc)
	if err != nil {
		t.Fatal(err)
	}
	if frame[4] != VersionTraced {
		t.Fatalf("version byte %d, want %d", frame[4], VersionTraced)
	}
	// The trace header rides outside the body: decoding ignores it and
	// yields the same transmission a plain frame would.
	got, err := DecodeBytes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != orig.Seq || got.N != orig.N || got.Cost != orig.Cost {
		t.Errorf("decoded %+v, want %+v", got, orig)
	}
	if peek := FrameTrace(frame); peek != tc {
		t.Errorf("FrameTrace = %+v, want %+v", peek, tc)
	}
	seq, err := FrameSeq(frame)
	if err != nil || seq != orig.Seq {
		t.Errorf("FrameSeq = %d, %v; want %d", seq, err, orig.Seq)
	}
}

func TestEncodeTracedZeroContextIsPlainFrame(t *testing.T) {
	orig := sampleTransmission(12)
	plain, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := EncodeTraced(orig, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, traced) {
		t.Error("zero trace context should encode the plain v2 frame")
	}
	if peek := FrameTrace(plain); peek != (TraceContext{}) {
		t.Errorf("v2 frame peeked a trace context %+v", peek)
	}
}

func TestReadFrameAcceptsTraced(t *testing.T) {
	orig := sampleTransmission(14)
	traced, err := EncodeTraced(orig, TraceContext{ID: 7, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ReadFrame(bytes.NewReader(traced))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, traced) {
		t.Error("ReadFrame did not return the full traced frame")
	}
	// The raw bytes still carry the trace context for anyone re-peeking.
	if tc := FrameTrace(raw); tc.ID != 7 || !tc.Sampled {
		t.Errorf("re-peeked context %+v", tc)
	}
}

func TestFrameTraceRejectsShortOrForeign(t *testing.T) {
	if tc := FrameTrace([]byte("SBRT")); tc != (TraceContext{}) {
		t.Errorf("short frame peeked %+v", tc)
	}
	if tc := FrameTrace([]byte("XXXXYYYYZZZZWWWW")); tc != (TraceContext{}) {
		t.Errorf("foreign bytes peeked %+v", tc)
	}
	if tc := FrameTrace(nil); tc != (TraceContext{}) {
		t.Errorf("nil frame peeked %+v", tc)
	}
}
