package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/query"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// On-disk segment layout. A segment file is a magic preamble followed by a
// sequence of CRC32C-framed blocks (internal/blocklog):
//
//	file    := magic₈ header-block record-block* [footer-block trailer₁₂]
//	header  := 'H' first₈ n₄ m₄ created₈ decoder-state receive id-len₂ id
//	receive := frames₈ bytes₈ values₈ restarts₈ next-seq₈ nonce₈ zero-sum₈
//	record  := 'R' chunk₈ unix₈ frame
//	footer  := 'F' first₈ records₄ n₄ entry*
//	entry   := unix₈ bound₈ inserts₄ (sum₈ min₈ max₈)×n
//	trailer := footer-offset₈ "SGFT"
//	decoder-state := w₄ next₈ slots₄ value₈×(w·slots)
//
// Every field is fixed-width little endian. The header carries the sensor
// identity, the chunk shape and the sensor's state as of the segment's
// first chunk: the decoder replica and the receive bookkeeping. A sealed
// segment is therefore self-contained: a cold reader seeds a replica from
// the header and decodes the segment's records without touching any other
// part of the history — or the footer. And a sensor's newest file is its
// restart point: a restart resumes the sensor from that header and replays
// the records after it. A record holds
// the wire-encoded SBR transmission verbatim (the compressed unit of
// record, which already carries its §4.5 bound and insert count) and the
// time it was archived. The footer holds one fixed-width entry per record:
// what a restart needs to rebuild the station's per-chunk state (bound,
// inserted base intervals, per-quantity sum/min/max) without decoding a
// frame. It is the only home of those facts on disk, reached in one read
// through the fixed-size trailer.
//
// Torn writes are detected by the framing: a crash mid-append leaves a
// block whose length field or checksum cannot be satisfied, and the scanner
// reports the last byte offset that ends a whole block so the store can
// truncate the tail and keep appending.

// segMagic opens every segment file.
var segMagic = [8]byte{'S', 'B', 'R', 'S', 'E', 'G', '3', 0}

// oldSegMagics opened the segments of earlier formats: SBRSEG1 kept JSON
// metadata, and SBRSEG2 headers held no receive bookkeeping, which lived
// in station checkpoint files beside the segments. Open refuses their
// files by name rather than treating them as damage.
var oldSegMagics = [][8]byte{
	{'S', 'B', 'R', 'S', 'E', 'G', '1', 0},
	{'S', 'B', 'R', 'S', 'E', 'G', '2', 0},
}

// errOldFormat reports a file of an earlier format.
var errOldFormat = errors.New("segstore: written in an earlier format (SBRSEG1 or SBRSEG2 segments, ckpt-* checkpoints), which this version does not read: discard the data directory")

// isOldMagic reports whether magic opens a segment of an earlier format.
func isOldMagic(magic [8]byte) bool {
	for _, old := range oldSegMagics {
		if magic == old {
			return true
		}
	}
	return false
}

// trailerMagic closes a sealed segment, preceded by the footer offset.
var trailerMagic = [4]byte{'S', 'G', 'F', 'T'}

// trailerLen is the size of the trailer that commits a seal.
const trailerLen = 12

// Block kind tags (first payload byte).
const (
	blockHeader = 'H'
	blockRecord = 'R'
	blockFooter = 'F'
)

// recordHeadLen is the record payload before the frame: kind, chunk, unix.
const recordHeadLen = 17

// footerHeadLen is the footer payload before its entries: kind, first
// chunk, record count, quantities.
const footerHeadLen = 17

// footerEntryLen is the fixed width of one footer entry for n quantities.
func footerEntryLen(n int) int { return 20 + 24*n }

// segHeader is the header block payload.
type segHeader struct {
	Sensor      string
	FirstChunk  int
	N           int
	M           int
	CreatedUnix int64
	SensorState
}

// SensorState is what a segment header records about its sensor as of the
// segment's first chunk: the decoder replica and the receive bookkeeping a
// restart resumes with. It holds nothing per chunk, so its size does not
// grow with the history.
type SensorState struct {
	// Decoder is the replica (W, next sequence, pool slots).
	Decoder core.DecoderState
	// Frames, Bytes, Values and Restarts are the receive counters.
	Frames   int
	Bytes    int
	Values   int
	Restarts int
	// NextSeq, SrcNonce and ZeroSum are the duplicate-detection state: the
	// sequence the sensor sends next, the transport incarnation that
	// delivered its incarnation's first frame, and that frame's
	// fingerprint.
	NextSeq  int
	SrcNonce uint64
	ZeroSum  uint64
}

// receiveLen is the size of the receive bookkeeping in a header.
const receiveLen = 7 * 8

// RowSummary digests one quantity of one chunk. With the chunk's bound and
// sample count it is the chunk's aggregate-index leaf (query.Leaf).
type RowSummary struct {
	Sum, Min, Max float64
}

// ChunkFacts is what the station keeps per archived chunk besides its
// samples: the time the chunk was archived, its §4.5 error bound, the base
// intervals it inserted and one RowSummary per quantity. A sealed
// segment's footer is their one home on disk.
type ChunkFacts struct {
	Unix    int64
	Bound   float64
	Inserts int
	Rows    []RowSummary
}

// recMeta locates one whole record found by a scan.
type recMeta struct {
	Offset int64 // file offset of the record block
	Unix   int64
}

var le = binary.LittleEndian

func appendFloat(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

// appendDecoderState encodes st. Every base slot is W values wide, as
// core.Decoder.State produces them.
func appendDecoderState(b []byte, st core.DecoderState) []byte {
	b = le.AppendUint32(b, uint32(st.W))
	b = le.AppendUint64(b, uint64(st.Next))
	b = le.AppendUint32(b, uint32(len(st.Base)))
	for _, slot := range st.Base {
		for _, v := range slot {
			b = appendFloat(b, v)
		}
	}
	return b
}

// appendID encodes a sensor id behind its u16 length.
func appendID(b []byte, id string) ([]byte, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("segstore: sensor id of %d bytes is too long", len(id))
	}
	b = le.AppendUint16(b, uint16(len(id)))
	return append(b, id...), nil
}

// fields reads the fixed-width little-endian fields of one block payload.
// The first read past the end sets err, and every read after it yields
// zero, so a decoder checks err once, after its last field.
type fields struct {
	b   []byte
	err error
}

func (r *fields) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = fmt.Errorf("segstore: block ends %d bytes early", n-len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *fields) u16() int {
	if b := r.take(2); b != nil {
		return int(le.Uint16(b))
	}
	return 0
}

func (r *fields) u32() int {
	if b := r.take(4); b != nil {
		return int(le.Uint32(b))
	}
	return 0
}

func (r *fields) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// int reads a u64 that must fit a non-negative int.
func (r *fields) int() int {
	v := r.u64()
	if v > math.MaxInt64 && r.err == nil {
		r.err = fmt.Errorf("segstore: count %d out of range", v)
	}
	return int(v)
}

func (r *fields) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *fields) id() string { return string(r.take(r.u16())) }

// done reports the first error, or trailing bytes the decoder did not
// consume.
func (r *fields) done(what string) error {
	if r.err != nil {
		return fmt.Errorf("segstore: %s: %w", what, r.err)
	}
	if len(r.b) != 0 {
		return fmt.Errorf("segstore: %s: %d trailing bytes", what, len(r.b))
	}
	return nil
}

// decoderState reads a decoder-state, checking the slot count against the
// bytes that remain before allocating anything.
func (r *fields) decoderState() core.DecoderState {
	st := core.DecoderState{W: r.u32(), Next: r.int()}
	slots := r.u32()
	if r.err != nil || slots == 0 {
		return st
	}
	if st.W == 0 || slots > len(r.b)/(8*st.W) {
		r.err = fmt.Errorf("%d base slots of width %d exceed the block", slots, st.W)
		return st
	}
	vals := make(timeseries.Series, slots*st.W)
	for i := range vals {
		vals[i] = r.f64()
	}
	st.Base = make([]timeseries.Series, slots)
	for i := range st.Base {
		st.Base[i] = vals[i*st.W : (i+1)*st.W : (i+1)*st.W]
	}
	return st
}

// encodeHeaderBlock frames a header block.
func encodeHeaderBlock(h segHeader) ([]byte, error) {
	p := make([]byte, 0, 64+receiveLen+len(h.Sensor)+8*h.Decoder.W*len(h.Decoder.Base))
	p = append(p, blockHeader)
	p = le.AppendUint64(p, uint64(h.FirstChunk))
	p = le.AppendUint32(p, uint32(h.N))
	p = le.AppendUint32(p, uint32(h.M))
	p = le.AppendUint64(p, uint64(h.CreatedUnix))
	p = appendDecoderState(p, h.Decoder)
	for _, v := range []int{h.Frames, h.Bytes, h.Values, h.Restarts, h.NextSeq} {
		p = le.AppendUint64(p, uint64(v))
	}
	p = le.AppendUint64(p, h.SrcNonce)
	p = le.AppendUint64(p, h.ZeroSum)
	p, err := appendID(p, h.Sensor)
	if err != nil {
		return nil, err
	}
	return blocklog.Append(nil, p), nil
}

// decodeHeader parses a header block payload, kind tag included.
func decodeHeader(payload []byte) (segHeader, error) {
	if len(payload) == 0 || payload[0] != blockHeader {
		return segHeader{}, fmt.Errorf("segstore: not a segment header")
	}
	r := fields{b: payload[1:]}
	h := segHeader{FirstChunk: r.int(), N: r.u32(), M: r.u32(), CreatedUnix: int64(r.u64())}
	h.Decoder = r.decoderState()
	h.Frames, h.Bytes, h.Values, h.Restarts, h.NextSeq = r.int(), r.int(), r.int(), r.int(), r.int()
	h.SrcNonce, h.ZeroSum = r.u64(), r.u64()
	h.Sensor = r.id()
	if err := r.done("segment header"); err != nil {
		return segHeader{}, err
	}
	if h.N <= 0 || h.M <= 0 {
		return segHeader{}, fmt.Errorf("segstore: segment header shape %dx%d", h.N, h.M)
	}
	return h, nil
}

// encodeRecordBlock frames a record block.
func encodeRecordBlock(chunk int, unix int64, frame []byte) []byte {
	p := make([]byte, 0, recordHeadLen+len(frame))
	p = append(p, blockRecord)
	p = le.AppendUint64(p, uint64(chunk))
	p = le.AppendUint64(p, uint64(unix))
	p = append(p, frame...)
	return blocklog.Append(nil, p)
}

// encodeFooterBlock frames a footer block holding one entry per fact,
// each with n row summaries, plus the trailer; footerOff is the file
// offset the footer block will land at.
func encodeFooterBlock(first, n int, facts []ChunkFacts, footerOff int64) []byte {
	p := make([]byte, 0, footerHeadLen+len(facts)*footerEntryLen(n))
	p = append(p, blockFooter)
	p = le.AppendUint64(p, uint64(first))
	p = le.AppendUint32(p, uint32(len(facts)))
	p = le.AppendUint32(p, uint32(n))
	p = appendFooterEntries(p, facts)
	out := blocklog.Append(nil, p)
	out = le.AppendUint64(out, uint64(footerOff))
	return append(out, trailerMagic[:]...)
}

// appendFooterEntries encodes one footer entry per fact.
func appendFooterEntries(p []byte, facts []ChunkFacts) []byte {
	for _, f := range facts {
		p = le.AppendUint64(p, uint64(f.Unix))
		p = appendFloat(p, f.Bound)
		p = le.AppendUint32(p, uint32(f.Inserts))
		for _, rs := range f.Rows {
			p = appendFloat(p, rs.Sum)
			p = appendFloat(p, rs.Min)
			p = appendFloat(p, rs.Max)
		}
	}
	return p
}

// footerHead parses the fixed head of a footer block payload, kind tag
// included — first chunk, record count, quantities — and checks that
// exactly count entries follow, so the entries' size is bounded by the
// payload before anything is allocated. It returns the entry bytes.
func footerHead(payload []byte) (first, count, n int, entries []byte, err error) {
	if len(payload) == 0 || payload[0] != blockFooter {
		return 0, 0, 0, nil, fmt.Errorf("segstore: not a segment footer")
	}
	r := fields{b: payload[1:]}
	first, count, n = r.int(), r.u32(), r.u32()
	if r.err != nil {
		return 0, 0, 0, nil, r.done("segment footer")
	}
	if n == 0 {
		return 0, 0, 0, nil, fmt.Errorf("segstore: segment footer with no quantities")
	}
	// n < 2³², so the entry width cannot overflow.
	if w := footerEntryLen(n); len(r.b)%w != 0 || count != len(r.b)/w {
		return 0, 0, 0, nil, fmt.Errorf("segstore: segment footer of %d entries holds %d bytes", count, len(r.b))
	}
	return first, count, n, r.b, nil
}

// parseTrailer returns the footer offset a sealed file's trailer names.
func parseTrailer(tr []byte) (int64, bool) {
	if len(tr) != trailerLen || string(tr[8:]) != string(trailerMagic[:]) {
		return 0, false
	}
	return int64(le.Uint64(tr[:8])), true
}

// footerOffset returns the footer offset that tr, the last trailerLen
// bytes of a sealed file of size bytes, names: the end of the records.
func footerOffset(tr []byte, size int64) (int64, error) {
	if size < int64(len(segMagic))+trailerLen {
		return 0, fmt.Errorf("segstore: %d bytes cannot hold a sealed segment", size)
	}
	off, ok := parseTrailer(tr)
	if !ok || off <= int64(len(segMagic)) || off > size-trailerLen-8 {
		return 0, fmt.Errorf("segstore: bad segment trailer")
	}
	return off, nil
}

// footerTail is the least readFooter reads from a file's end: a footer of
// 24 entries for 6 quantities, with its trailer.
const footerTail = 4 << 10

// readFooter reads the footer block of a sealed file of size bytes — the
// one block a restart reads per sealed segment — into *buf, which the
// caller reuses from file to file, and returns the block's payload,
// checked against its checksum, in place. One read of the file's tail, as
// long as the longest footer the buffer has held, usually brings the
// trailer and the footer both; a longer footer takes a second read, and
// grows the buffer to hold it next time.
func readFooter(f io.ReaderAt, size int64, buf *[]byte) ([]byte, error) {
	if size < int64(len(segMagic))+trailerLen {
		return nil, fmt.Errorf("segstore: %d bytes cannot hold a sealed segment", size)
	}
	b, err := readTail(f, size, max(int64(cap(*buf)), footerTail), buf)
	if err != nil {
		return nil, err
	}
	off, err := footerOffset(b[len(b)-trailerLen:], size)
	if err != nil {
		return nil, err
	}
	if off < size-int64(len(b)) {
		if b, err = readTail(f, size, size-off, buf); err != nil {
			return nil, err
		}
	}
	payload, rest, err := blocklog.Cut(b[int64(len(b))-(size-off) : len(b)-trailerLen])
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("segstore: torn segment footer")
	}
	return payload, nil
}

// readTail reads the last min(n, size) bytes of a file of size bytes into
// *buf, growing it as needed.
func readTail(f io.ReaderAt, size, n int64, buf *[]byte) ([]byte, error) {
	n = min(n, size)
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := f.ReadAt(b, size-n); err != nil {
		return nil, fmt.Errorf("segstore: reading footer: %w", err)
	}
	return b, nil
}

// putEntries decodes the footer entries of chunks first, first+1, … — n
// row summaries each, laid out as footerHead checked them — and returns
// the newest time among them. The facts of the chunks inside the columns'
// span and below stop (stop < 0: no limit) land in the columns; the
// others are only timed. Each entry's fields sit at fixed offsets, so
// nothing is checked field by field. Entries of different files touch
// different chunks, so files can be decoded into one sensor's columns at
// once.
func (sr *SensorRecovery) putEntries(first, stop, n int, entries []byte) (newest int64, err error) {
	lo := max(first, sr.First)
	hi := sr.Start()
	if stop >= 0 {
		hi = min(hi, stop)
	}
	if lo < hi && len(sr.Leaves) != n {
		return 0, fmt.Errorf("footer entries hold %d quantities, the newest segment's header %d", n, len(sr.Leaves))
	}
	w := footerEntryLen(n)
	for i := 0; i*w < len(entries); i++ {
		e := entries[i*w : (i+1)*w]
		newest = max(newest, int64(le.Uint64(e)))
		c := first + i
		if c < lo || c >= hi {
			continue
		}
		j := c - sr.First
		bound := f64At(e, 8)
		sr.Bounds[j] = bound
		sr.Inserts[j] = int(le.Uint32(e[16:20]))
		for row, leaves := range sr.Leaves {
			at := 20 + 24*row
			leaves[j] = query.Leaf(sr.M, f64At(e, at), f64At(e, at+8), f64At(e, at+16), bound)
		}
	}
	return newest, nil
}

// f64At reads the little-endian float64 at b[at:].
func f64At(b []byte, at int) float64 { return math.Float64frombits(le.Uint64(b[at : at+8])) }

// summarizeRows digests the decoded rows for the footer with
// query.Summarize, so a restart rebuilds the very leaves the live index
// holds.
func summarizeRows(rows []timeseries.Series) []RowSummary {
	out := make([]RowSummary, len(rows))
	for i, r := range rows {
		sm := query.Summarize(r, 0)
		out[i] = RowSummary{Sum: sm.Sum, Min: sm.Min, Max: sm.Max}
	}
	return out
}

// segScan is the result of scanning a segment file front to back.
type segScan struct {
	Header segHeader
	Recs   []recMeta // one per whole record, in order
	Frames [][]byte  // raw wire frames, in record order
	// Good is the offset just past the last whole record (or the header);
	// in an active segment, a file longer than Good carries a torn tail.
	Good int64
}

// scanSegment scans a segment file held whole in b, validating every
// block checksum, and reports the header and every whole record — frames
// in place, as sub-slices of b — plus the torn-tail cut point. It stops at
// the first block that is not the next record — a footer, a torn or
// corrupt block, the end of b — and never fails on one; it fails only on
// files whose preamble or header block is unusable (err != nil and Header
// unset). records, the count the caller expects, sizes the result. A
// sealed file's footer and trailer are read through readFooter, never by
// a scan.
func scanSegment(b []byte, records int) (segScan, error) {
	var scan segScan
	if len(b) < len(segMagic) {
		return scan, fmt.Errorf("segstore: segment too short for its magic")
	}
	switch magic := [8]byte(b[:8]); {
	case isOldMagic(magic):
		return scan, errOldFormat
	case magic != segMagic:
		return scan, fmt.Errorf("segstore: bad segment magic")
	}
	payload, rest, err := blocklog.Cut(b[len(segMagic):])
	if err != nil {
		return scan, fmt.Errorf("segstore: unreadable segment header")
	}
	if scan.Header, err = decodeHeader(payload); err != nil {
		return scan, err
	}
	scan.Recs = make([]recMeta, 0, records)
	scan.Frames = make([][]byte, 0, records)
	for {
		scan.Good = int64(len(b) - len(rest))
		// The end of b is a clean end (unsealed segment, or the end of a
		// sealed one's records); a torn block is cut back to Good; a footer
		// ends the records. A record out of sequence is indistinguishable
		// from corruption that happened to keep a valid CRC.
		payload, rest, err = blocklog.Cut(rest)
		if err != nil || len(payload) < recordHeadLen || payload[0] != blockRecord ||
			le.Uint64(payload[1:9]) != uint64(scan.Header.FirstChunk+len(scan.Recs)) {
			return scan, nil
		}
		scan.Recs = append(scan.Recs, recMeta{Offset: scan.Good, Unix: int64(le.Uint64(payload[9:17]))})
		scan.Frames = append(scan.Frames, payload[recordHeadLen:])
	}
}

// tornFirstWrite reports whether a segment file b whose preamble or header
// does not scan is what a crash inside the segment's first write leaves
// behind: too short to hold the magic and a whole header block. No record
// can follow such a header, so deleting the file loses nothing that was
// acknowledged. Any other unreadable segment may hold acknowledged records
// and is left for the operator.
func tornFirstWrite(b []byte) bool {
	const head = 16 // the magic and the header block's length and checksum
	switch {
	case len(b) < len(segMagic):
		return true
	case [8]byte(b[:8]) != segMagic:
		return false
	case len(b) < head:
		return true
	}
	return int64(head)+int64(le.Uint32(b[8:12])) > int64(len(b))
}

// replay parses a segment's frames in order and hands each transmission
// to visit with the decoder it must go through: seeded from the header
// state, and replaced, as the station does, by a fresh one at a zero
// sequence after any prior history — the sensor restarted with an empty
// base signal. visit consumes the transmission through that decoder
// before the next frame is parsed into the same Transmission. Because the
// decode pipeline is deterministic and the header snapshot reproduces the
// replica pool exactly as it stood at segment start, the rows are
// bit-identical to what the live station computed when it first received
// the frames.
func replay(cfg core.Config, h segHeader, frames [][]byte, visit func(i int, dec *core.Decoder, t *core.Transmission) error) error {
	dec, err := core.NewDecoderAt(cfg, h.Decoder)
	if err != nil {
		return err
	}
	var t core.Transmission
	for i, frame := range frames {
		chunk := h.FirstChunk + i
		if err := wire.DecodeInto(&t, frame); err != nil {
			return fmt.Errorf("segstore: chunk %d: %w", chunk, err)
		}
		if t.Seq == 0 && chunk > 0 {
			if dec, err = core.NewDecoder(cfg); err != nil {
				return err
			}
		}
		if err := visit(i, dec, &t); err != nil {
			return fmt.Errorf("segstore: chunk %d: %w", chunk, err)
		}
	}
	return nil
}

// decodeRow reconstructs quantity row of a segment's records [lo, hi)
// (segment-relative) into dst, which holds M samples per record: record
// lo+i's row lands at dst[i·M : (i+1)·M]. The records before lo are parsed
// and validated but only advance the decoder; the records from hi on are
// not parsed at all.
func decodeRow(cfg core.Config, h segHeader, frames [][]byte, row, lo, hi int, dst timeseries.Series) error {
	if lo < 0 || hi > len(frames) || lo >= hi {
		return fmt.Errorf("segstore: records [%d,%d) outside a segment of %d", lo, hi, len(frames))
	}
	m := len(dst) / (hi - lo)
	return replay(cfg, h, frames[:hi], func(i int, dec *core.Decoder, t *core.Transmission) error {
		if i < lo {
			return dec.Advance(t)
		}
		return dec.DecodeRow(t, row, dst[(i-lo)*m:(i-lo+1)*m])
	})
}

// decodedChunk is one record replayed through a cold decoder.
type decodedChunk struct {
	rows    []timeseries.Series
	bound   float64
	inserts int
}

// decodeSegmentChunks replays every record of a scanned segment, returning
// each one's reconstructed rows, bound and insert count in order.
func decodeSegmentChunks(cfg core.Config, scan segScan) ([]decodedChunk, error) {
	out := make([]decodedChunk, 0, len(scan.Frames))
	err := replay(cfg, scan.Header, scan.Frames, func(_ int, dec *core.Decoder, t *core.Transmission) error {
		rows, err := dec.Decode(t)
		out = append(out, decodedChunk{rows: rows, bound: t.ErrBound, inserts: t.Ins()})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// factsFromScan rebuilds the per-chunk facts of a segment whose footer is
// missing — the active segment, or a sealed one whose footer is unreadable
// — by decoding its records.
func factsFromScan(cfg core.Config, scan segScan) ([]ChunkFacts, error) {
	chunks, err := decodeSegmentChunks(cfg, scan)
	if err != nil {
		return nil, err
	}
	facts := make([]ChunkFacts, len(chunks))
	for i, c := range chunks {
		if len(c.rows) != scan.Header.N {
			return nil, fmt.Errorf("segstore: chunk %d has %d rows, segment header says %d",
				scan.Header.FirstChunk+i, len(c.rows), scan.Header.N)
		}
		facts[i] = ChunkFacts{Unix: scan.Recs[i].Unix, Bound: c.bound, Inserts: c.inserts, Rows: summarizeRows(c.rows)}
	}
	return facts, nil
}
