// Package wire serialises transmissions into the byte stream a sensor
// radio actually ships: a compact binary layout with varint-coded header
// fields, IEEE-754 payload values and a trailing CRC-32. The abstract
// bandwidth accounting of the algorithms (Cost, in "values") is preserved
// independently; wire gives the concrete framing used by the network
// simulator, the transport and the base station's segment archive.
//
// Interval lengths are deliberately not encoded: the base station recovers
// them from the sorted start offsets (Section 4.2), exactly as the paper's
// four-value records require.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"sbr/internal/base"
	"sbr/internal/core"
	"sbr/internal/interval"
	"sbr/internal/timeseries"
)

// magic identifies an SBR transmission frame.
var magic = [4]byte{'S', 'B', 'R', 'T'}

// Version is the current frame format version. Version 2 added the flags
// byte (quadratic records, shipped error bounds) at the head of the body.
const Version = 2

// VersionTraced is the traced frame format: identical to Version except
// that nine extra header bytes — an 8-byte little-endian trace ID and a
// trace-flags byte — sit between the version byte and the body length.
// The CRC still covers the body only: the trace context is best-effort
// diagnostic metadata, deliberately outside checksum protection, and a
// corrupted trace header at worst mis-joins a trace — never the data.
const VersionTraced = 3

// traceHeaderLen is the extra header length of a VersionTraced frame.
const traceHeaderLen = 9

// traceFlagSampled marks a frame whose trace is sampled: receivers record
// spans for it. Unsampled traced frames exist only transiently (a sampler
// decides at birth and encodes unsampled frames as plain v2).
const traceFlagSampled byte = 1 << 0

// TraceContext is the causal-trace identity a frame carries across the
// wire. The zero value means "untraced".
type TraceContext struct {
	ID      uint64
	Sampled bool
}

// ErrChecksum is returned when a frame fails CRC validation.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// ErrMagic is returned when a frame does not start with the SBRT magic.
var ErrMagic = errors.New("wire: bad frame magic")

// maxReasonable bounds decoded counts to keep a corrupted or adversarial
// frame from driving huge allocations.
const maxReasonable = 1 << 28

// Encode serialises t into a framed byte slice.
func Encode(t *core.Transmission) ([]byte, error) {
	var body bytes.Buffer
	// Flags: bit 0 set when interval records carry the quadratic
	// coefficient of the non-linear encoding extension.
	var flags byte
	for _, iv := range t.Intervals {
		if iv.C != 0 {
			flags |= flagQuadratic
			break
		}
	}
	if t.Bounded() {
		flags |= flagBounded
	}
	body.WriteByte(flags)
	if flags&flagBounded != 0 {
		putFloat(&body, t.ErrBound)
	}
	putUvarint(&body, uint64(t.Seq))
	putUvarint(&body, uint64(t.N))
	putUvarint(&body, uint64(t.M))
	putUvarint(&body, uint64(t.W))

	if len(t.BaseIntervals) != len(t.Placements) {
		return nil, fmt.Errorf("wire: %d base intervals but %d placements",
			len(t.BaseIntervals), len(t.Placements))
	}
	putUvarint(&body, uint64(len(t.BaseIntervals)))
	for i, iv := range t.BaseIntervals {
		if len(iv) != t.W {
			return nil, fmt.Errorf("wire: base interval %d has %d values, want W=%d",
				i, len(iv), t.W)
		}
		putUvarint(&body, uint64(t.Placements[i].Slot))
		for _, v := range iv {
			putFloat(&body, v)
		}
	}

	putUvarint(&body, uint64(len(t.Intervals)))
	for _, iv := range t.Intervals {
		putUvarint(&body, uint64(iv.Start))
		putVarint(&body, int64(iv.Shift))
		putFloat(&body, iv.A)
		putFloat(&body, iv.B)
		if flags&flagQuadratic != 0 {
			putFloat(&body, iv.C)
		}
	}

	var frame bytes.Buffer
	frame.Write(magic[:])
	frame.WriteByte(Version)
	putUvarint(&frame, uint64(body.Len()))
	frame.Write(body.Bytes())
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body.Bytes()))
	frame.Write(crc[:])
	return frame.Bytes(), nil
}

// EncodeTraced serialises t like Encode and, when tc carries a non-zero
// trace ID, emits a VersionTraced frame whose header propagates tc. A
// zero tc yields a plain Version 2 frame — callers never branch on
// whether a trace is live.
func EncodeTraced(t *core.Transmission, tc TraceContext) ([]byte, error) {
	frame, err := Encode(t)
	if err != nil || tc.ID == 0 {
		return frame, err
	}
	out := make([]byte, 0, len(frame)+traceHeaderLen)
	out = append(out, frame[:4]...)
	out = append(out, VersionTraced)
	var hdr [traceHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[:8], tc.ID)
	if tc.Sampled {
		hdr[8] = traceFlagSampled
	}
	out = append(out, hdr[:]...)
	out = append(out, frame[5:]...)
	return out, nil
}

// FrameTrace peeks the trace context of a framed transmission without
// decoding the payload. Version 2 frames return the zero context; so do
// frames too short or mis-versioned to carry one (the full validation
// belongs to ReadFrame/Decode — this is a header peek).
func FrameTrace(frame []byte) TraceContext {
	if len(frame) < 5+traceHeaderLen || !bytes.Equal(frame[:4], magic[:]) || frame[4] != VersionTraced {
		return TraceContext{}
	}
	return TraceContext{
		ID:      binary.LittleEndian.Uint64(frame[5 : 5+8]),
		Sampled: frame[5+8]&traceFlagSampled != 0,
	}
}

// DecodeBytes parses one framed transmission from a byte slice.
func DecodeBytes(frame []byte) (*core.Transmission, error) {
	return Decode(bytes.NewReader(frame))
}

// ReadFrame reads one complete framed transmission from r and returns its
// raw bytes — header, body and checksum — without decoding the payload.
// The magic, version and length are validated so a corrupted stream cannot
// drive an unbounded allocation. A clean end of stream at a frame boundary
// returns io.EOF; the raw frame can be re-parsed with DecodeBytes or
// archived verbatim by the station.
func ReadFrame(r io.Reader) ([]byte, error) {
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
	var raw bytes.Buffer
	raw.Write(head[:])
	if head[4] == VersionTraced {
		var thdr [traceHeaderLen]byte
		if _, err := io.ReadFull(r, thdr[:]); err != nil {
			return nil, fmt.Errorf("wire: reading trace header: %w", err)
		}
		raw.Write(thdr[:])
	}
	bodyLen, err := binary.ReadUvarint(&byteCounter{r: io.TeeReader(r, &raw)})
	if err != nil {
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if bodyLen > maxReasonable {
		return nil, fmt.Errorf("wire: frame length %d too large", bodyLen)
	}
	if _, err := io.CopyN(&raw, r, int64(bodyLen)+4); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return raw.Bytes(), nil
}

// FrameSeq extracts the sequence number from a framed transmission
// without decoding the payload — the cheap header peek transports use to
// match acknowledgements to outstanding frames and to re-acknowledge
// retransmitted duplicates.
func FrameSeq(frame []byte) (int, error) {
	r := bytes.NewReader(frame)
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, fmt.Errorf("wire: reading frame header: %w", err)
	}
	if !bytes.Equal(head[:4], magic[:]) {
		return 0, ErrMagic
	}
	if head[4] != Version && head[4] != VersionTraced {
		return 0, fmt.Errorf("wire: unsupported frame version %d", head[4])
	}
	if head[4] == VersionTraced {
		if _, err := r.Seek(traceHeaderLen, io.SeekCurrent); err != nil {
			return 0, fmt.Errorf("wire: skipping trace header: %w", err)
		}
	}
	if _, err := binary.ReadUvarint(r); err != nil {
		return 0, fmt.Errorf("wire: reading frame length: %w", err)
	}
	flags, err := r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("wire: reading flags: %w", err)
	}
	if flags&flagBounded != 0 {
		if _, err := r.Seek(8, io.SeekCurrent); err != nil {
			return 0, fmt.Errorf("wire: skipping error bound: %w", err)
		}
	}
	seq, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("wire: reading seq: %w", err)
	}
	return int(seq), nil
}

// Decode parses one framed transmission from r. Interval lengths are
// recovered from the sorted starts of the decoded records; Cost is
// recomputed from the frame contents.
func Decode(r io.Reader) (*core.Transmission, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			// Clean end of stream at a frame boundary.
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
	br := &byteCounter{r: r}
	bodyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if bodyLen > maxReasonable {
		return nil, fmt.Errorf("wire: frame length %d too large", bodyLen)
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
	return decodeBody(bytes.NewReader(body))
}

// flagQuadratic marks frames whose interval records carry three
// coefficients (the quadratic encoding extension).
const flagQuadratic byte = 1 << 0

// flagBounded marks frames carrying the guaranteed maximum-error bound of
// Section 4.5 alongside the approximate signal.
const flagBounded byte = 1 << 1

func decodeBody(r *bytes.Reader) (*core.Transmission, error) {
	flags, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: reading flags: %w", err)
	}
	if flags&^(flagQuadratic|flagBounded) != 0 {
		return nil, fmt.Errorf("wire: unknown flags 0x%02x", flags)
	}
	var errBound float64
	if flags&flagBounded != 0 {
		errBound, err = getFloat(r)
		if err != nil {
			return nil, err
		}
	}
	seq, err := getUvarint(r, "seq")
	if err != nil {
		return nil, err
	}
	n, err := getUvarint(r, "N")
	if err != nil {
		return nil, err
	}
	m, err := getUvarint(r, "M")
	if err != nil {
		return nil, err
	}
	w, err := getUvarint(r, "W")
	if err != nil {
		return nil, err
	}
	t := &core.Transmission{Seq: int(seq), N: int(n), M: int(m), W: int(w), ErrBound: errBound}

	ins, err := getUvarint(r, "insert count")
	if err != nil {
		return nil, err
	}
	if ins > maxReasonable/(uint64(w)+1) {
		return nil, fmt.Errorf("wire: implausible insert count %d", ins)
	}
	t.BaseIntervals = make([]timeseries.Series, ins)
	t.Placements = make([]base.Placement, ins)
	for i := range t.BaseIntervals {
		slot, err := getUvarint(r, "placement slot")
		if err != nil {
			return nil, err
		}
		t.Placements[i] = base.Placement{Slot: int(slot)}
		iv := make(timeseries.Series, w)
		for j := range iv {
			v, err := getFloat(r)
			if err != nil {
				return nil, err
			}
			iv[j] = v
		}
		t.BaseIntervals[i] = iv
	}

	count, err := getUvarint(r, "interval count")
	if err != nil {
		return nil, err
	}
	if count > maxReasonable {
		return nil, fmt.Errorf("wire: implausible interval count %d", count)
	}
	t.Intervals = make([]interval.Interval, count)
	for i := range t.Intervals {
		start, err := getUvarint(r, "interval start")
		if err != nil {
			return nil, err
		}
		shift, err := binary.ReadVarint(r)
		if err != nil {
			return nil, fmt.Errorf("wire: reading interval shift: %w", err)
		}
		a, err := getFloat(r)
		if err != nil {
			return nil, err
		}
		b, err := getFloat(r)
		if err != nil {
			return nil, err
		}
		var cq float64
		if flags&flagQuadratic != 0 {
			cq, err = getFloat(r)
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

// byteCounter adapts an io.Reader to io.ByteReader for varint decoding.
type byteCounter struct {
	r io.Reader
}

func (b *byteCounter) ReadByte() (byte, error) {
	var buf [1]byte
	_, err := io.ReadFull(b.r, buf[:])
	return buf[0], err
}

func putUvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putVarint(w *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func putFloat(w *bytes.Buffer, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	w.Write(buf[:])
}

func getUvarint(r *bytes.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("wire: reading %s: %w", what, err)
	}
	return v, nil
}

func getFloat(r *bytes.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("wire: reading value: %w", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
