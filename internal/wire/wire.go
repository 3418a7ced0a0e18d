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

// maxValues bounds the samples one frame describes, N·M. A receiver
// reconstructs all of them, so a few bytes declaring a huge shape would
// otherwise cost it that much memory. 2²⁰ is 2.7× the largest batch this
// repository ships: 15 quantities of 25,600 samples.
const maxValues = 1 << 20

// shapeFits reports whether n quantities of m samples form a frame shape
// the format allows: n ≥ 1, m ≥ 1 and n·m ≤ maxValues, checked without
// overflow.
func shapeFits(n, m uint64) bool {
	return n >= 1 && m >= 1 && n <= maxValues/m
}

// Encode serialises t into a framed byte slice.
func Encode(t *core.Transmission) ([]byte, error) {
	if !shapeFits(uint64(t.N), uint64(t.M)) {
		return nil, fmt.Errorf("wire: %d×%d transmission outside the frame shape limit", t.N, t.M)
	}
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

// DecodeBytes parses one framed transmission from the start of a byte
// slice, reading the body in place. Bytes after the frame's checksum are
// ignored. Interval lengths are recovered from the sorted starts of the
// decoded records by the decoder; Cost is recomputed from the frame
// contents.
func DecodeBytes(frame []byte) (*core.Transmission, error) {
	t := new(core.Transmission)
	if err := DecodeInto(t, frame); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeInto is DecodeBytes parsing into t, whose slices it reuses: a
// reader that parses frame after frame through one Transmission allocates
// only when a frame needs more room than every frame before it did. It
// overwrites every field of t, accepts and refuses exactly the frames
// DecodeBytes does with the same errors, and leaves t unspecified on an
// error. A frame parsed into t is valid until the next call with t.
func DecodeInto(t *core.Transmission, frame []byte) error {
	if len(frame) == 0 {
		return io.EOF
	}
	if len(frame) < 5 {
		return fmt.Errorf("wire: reading frame header: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(frame[:4], magic[:]) {
		return ErrMagic
	}
	if frame[4] != Version && frame[4] != VersionTraced {
		return fmt.Errorf("wire: unsupported frame version %d", frame[4])
	}
	r := cursor{b: frame[5:]}
	if frame[4] == VersionTraced {
		r.take(traceHeaderLen, "trace header")
	}
	bodyLen := r.uvarint("frame length")
	if r.err == nil && bodyLen > maxReasonable {
		return fmt.Errorf("wire: frame length %d too large", bodyLen)
	}
	body := r.take(int(bodyLen), "frame body")
	crc := r.take(4, "frame checksum")
	if r.err != nil {
		return r.err
	}
	if binary.LittleEndian.Uint32(crc) != crc32.ChecksumIEEE(body) {
		return ErrChecksum
	}
	return parseBody(t, body)
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

// Decode reads one framed transmission from r and parses it: ReadFrame
// then DecodeBytes. A clean end of stream at a frame boundary returns
// io.EOF.
func Decode(r io.Reader) (*core.Transmission, error) {
	frame, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(frame)
}

// flagQuadratic marks frames whose interval records carry three
// coefficients (the quadratic encoding extension).
const flagQuadratic byte = 1 << 0

// flagBounded marks frames carrying the guaranteed maximum-error bound of
// Section 4.5 alongside the approximate signal.
const flagBounded byte = 1 << 1

// minRecordBytes is the smallest encoding of one interval record: a
// one-byte start and shift and the two coefficients.
const minRecordBytes = 2 + 16

// parseBody parses a checksummed frame body into t, reusing its slices.
// Every count is checked against the bytes left in the body before
// anything is allocated for it.
func parseBody(t *core.Transmission, body []byte) error {
	r := cursor{b: body}
	flags := r.byte("flags")
	if r.err == nil && flags&^(flagQuadratic|flagBounded) != 0 {
		return fmt.Errorf("wire: unknown flags 0x%02x", flags)
	}
	var errBound float64
	if flags&flagBounded != 0 {
		errBound = r.float()
	}
	seq, n, m, w := r.uvarint("seq"), r.uvarint("N"), r.uvarint("M"), r.uvarint("W")
	ins := r.uvarint("insert count")
	if r.err != nil {
		return r.err
	}
	if !shapeFits(n, m) {
		return fmt.Errorf("wire: %d×%d frame outside the shape limit (N, M ≥ 1, N·M ≤ %d)", n, m, maxValues)
	}
	if !insertsFit(ins, w) {
		return fmt.Errorf("wire: implausible insert count %d", ins)
	}
	// Each insert is a slot varint and W values.
	if ins > uint64(len(r.b))/(8*w+1) {
		return fmt.Errorf("wire: reading placement slot: %w", io.ErrUnexpectedEOF)
	}
	bases, placements, intervals := t.BaseIntervals, t.Placements, t.Intervals
	*t = core.Transmission{Seq: int(seq), N: int(n), M: int(m), W: int(w), ErrBound: errBound}
	t.BaseIntervals = reuse(bases, int(ins))
	t.Placements = reuse(placements, int(ins))
	// An insert keeps the values array of the one it replaces when that is
	// W wide; the rest share one fresh array.
	var values timeseries.Series
	for i := range t.BaseIntervals {
		t.Placements[i] = base.Placement{Slot: int(r.uvarint("placement slot"))}
		iv := t.BaseIntervals[i]
		if cap(iv) < int(w) {
			if len(values) == 0 {
				values = make(timeseries.Series, (ins-uint64(i))*w)
			}
			iv, values = values[:w:w], values[w:]
		}
		iv = iv[:w]
		for j := range iv {
			iv[j] = r.float()
		}
		t.BaseIntervals[i] = iv
	}

	count := r.uvarint("interval count")
	if r.err != nil {
		return r.err
	}
	if count > maxReasonable {
		return fmt.Errorf("wire: implausible interval count %d", count)
	}
	if count > uint64(len(r.b))/minRecordBytes {
		return fmt.Errorf("wire: reading interval start: %w", io.ErrUnexpectedEOF)
	}
	t.Intervals = reuse(intervals, int(count))
	for i := range t.Intervals {
		iv := interval.Interval{Start: int(r.uvarint("interval start")), Shift: int(r.varint("interval shift"))}
		iv.A, iv.B = r.float(), r.float()
		if flags&flagQuadratic != 0 {
			iv.C = r.float()
		}
		t.Intervals[i] = iv
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame body", len(r.b))
	}
	perRecord := interval.ValuesPerInterval
	if flags&flagQuadratic != 0 {
		perRecord = interval.ValuesPerQuadInterval
	}
	t.Cost = int(ins)*(t.W+1) + len(t.Intervals)*perRecord
	return nil
}

// reuse returns s resliced to n elements when it has the room, else a
// fresh slice; never nil, as make's is not.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// insertsFit bounds the base values a frame may declare: ins intervals of
// w values stay within maxReasonable counting one slot each.
func insertsFit(ins, w uint64) bool {
	return ins == 0 || (w < maxReasonable && ins <= maxReasonable/(w+1))
}

// cursor reads the fields of a frame in place. The first field that runs
// past the end sets err, naming it; every read after that yields zero, so
// a parser checks err once after a run of fields.
type cursor struct {
	b   []byte
	err error
}

func (r *cursor) fail(what string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: reading %s: %w", what, err)
	}
	r.b = nil
}

func (r *cursor) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(what, io.ErrUnexpectedEOF)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *cursor) byte(what string) byte {
	if b := r.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

func (r *cursor) float() float64 {
	if b := r.take(8, "value"); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *cursor) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what, varintErr(n))
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *cursor) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what, varintErr(n))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varintErr names why binary.Uvarint or Varint returned n <= 0.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows a 64-bit integer")
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
