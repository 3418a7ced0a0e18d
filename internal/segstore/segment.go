package segstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/timeseries"
	"sbr/internal/wire"
)

// On-disk segment layout. A segment file is a magic preamble followed by a
// sequence of CRC32C-framed blocks (internal/blocklog):
//
//	file   := magic₈ header-block record-block* [footer-block trailer₁₂]
//	trailer:= footer-offset₈ "SGFT"
//
// The first payload byte tags the block kind ('H' header, 'R' record,
// 'F' footer). The header carries the sensor identity, the chunk shape and
// the decoder replica state at segment start, so a sealed segment is
// self-contained: a cold reader seeds a replica from the header and decodes
// the segment's records without touching any other part of the history.
// Records hold the wire-encoded SBR transmission verbatim (the compressed
// unit of record), its §4.5 error bound and a per-row summary. The footer
// is the segment's index — chunk range, time range and per-record byte
// offsets — reachable in one seek through the fixed-size trailer.
//
// Torn writes are detected by the framing: a crash mid-append leaves a
// block whose length field or checksum cannot be satisfied, and the scanner
// reports the last byte offset that ends a whole block so the store can
// truncate the tail and keep appending.

// segMagic opens every segment file.
var segMagic = [8]byte{'S', 'B', 'R', 'S', 'E', 'G', '1', 0}

// trailerMagic closes a sealed segment, preceded by the footer offset.
var trailerMagic = [4]byte{'S', 'G', 'F', 'T'}

// Block kind tags (first payload byte).
const (
	blockHeader = 'H'
	blockRecord = 'R'
	blockFooter = 'F'
)

// segHeader is the header block payload (JSON after the kind tag).
type segHeader struct {
	Sensor      string            `json:"sensor"`
	FirstChunk  int               `json:"first_chunk"`
	N           int               `json:"n"`
	M           int               `json:"m"`
	Decoder     core.DecoderState `json:"decoder"`
	CreatedUnix int64             `json:"created_unix"`
}

// rowSummary is the per-quantity digest stored with every record and in
// the footer index: enough to answer chunk-aligned aggregates without
// decoding (count is the header's M; bounds derive from the record bound).
type rowSummary struct {
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// recMeta is one record's footer-index entry. Offset addresses the record
// block inside the file.
type recMeta struct {
	Chunk  int          `json:"chunk"`
	Offset int64        `json:"offset"`
	Unix   int64        `json:"unix"`
	Bound  float64      `json:"bound"`
	Rows   []rowSummary `json:"rows"`
}

// segFooter is the footer block payload (JSON after the kind tag): the
// sealed segment's index.
type segFooter struct {
	FirstChunk int       `json:"first_chunk"`
	Records    int       `json:"records"`
	MinUnix    int64     `json:"min_unix"`
	MaxUnix    int64     `json:"max_unix"`
	Recs       []recMeta `json:"recs"`
}

// record is one archived transmission: the raw wire frame plus the
// metadata that rides in the record block.
type record struct {
	Chunk int
	Unix  int64
	Bound float64
	Rows  []rowSummary
	Frame []byte
}

// encodeHeaderBlock frames a header block.
func encodeHeaderBlock(h segHeader) ([]byte, error) {
	body, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("segstore: encoding segment header: %w", err)
	}
	return blocklog.Append(nil, append([]byte{blockHeader}, body...)), nil
}

// encodeRecordBlock frames a record block.
func encodeRecordBlock(rec record) []byte {
	payload := make([]byte, 0, 64+len(rec.Frame))
	payload = append(payload, blockRecord)
	payload = binary.AppendUvarint(payload, uint64(rec.Chunk))
	payload = binary.AppendVarint(payload, rec.Unix)
	payload = appendFloat(payload, rec.Bound)
	payload = binary.AppendUvarint(payload, uint64(len(rec.Rows)))
	for _, rs := range rec.Rows {
		payload = appendFloat(payload, rs.Sum)
		payload = appendFloat(payload, rs.Min)
		payload = appendFloat(payload, rs.Max)
	}
	payload = binary.AppendUvarint(payload, uint64(len(rec.Frame)))
	payload = append(payload, rec.Frame...)
	return blocklog.Append(nil, payload)
}

// encodeFooterBlock frames a footer block plus the trailer; footerOff is
// the file offset the footer block will land at.
func encodeFooterBlock(ft segFooter, footerOff int64) ([]byte, error) {
	body, err := json.Marshal(ft)
	if err != nil {
		return nil, fmt.Errorf("segstore: encoding segment footer: %w", err)
	}
	out := blocklog.Append(nil, append([]byte{blockFooter}, body...))
	var trailer [12]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(footerOff))
	copy(trailer[8:12], trailerMagic[:])
	return append(out, trailer[:]...), nil
}

func appendFloat(buf []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

// decodeRecord parses a record block payload (after the kind tag has been
// verified by the caller).
func decodeRecord(payload []byte) (record, error) {
	r := bytes.NewReader(payload[1:])
	var rec record
	chunk, err := binary.ReadUvarint(r)
	if err != nil {
		return rec, fmt.Errorf("segstore: record chunk: %w", err)
	}
	unix, err := binary.ReadVarint(r)
	if err != nil {
		return rec, fmt.Errorf("segstore: record time: %w", err)
	}
	bound, err := readFloat(r)
	if err != nil {
		return rec, fmt.Errorf("segstore: record bound: %w", err)
	}
	nrows, err := binary.ReadUvarint(r)
	if err != nil {
		return rec, fmt.Errorf("segstore: record row count: %w", err)
	}
	if nrows > blocklog.MaxBlock/24 {
		return rec, fmt.Errorf("segstore: implausible record row count %d", nrows)
	}
	rows := make([]rowSummary, nrows)
	for i := range rows {
		if rows[i].Sum, err = readFloat(r); err != nil {
			return rec, fmt.Errorf("segstore: record summary: %w", err)
		}
		if rows[i].Min, err = readFloat(r); err != nil {
			return rec, fmt.Errorf("segstore: record summary: %w", err)
		}
		if rows[i].Max, err = readFloat(r); err != nil {
			return rec, fmt.Errorf("segstore: record summary: %w", err)
		}
	}
	frameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return rec, fmt.Errorf("segstore: record frame length: %w", err)
	}
	if frameLen != uint64(r.Len()) {
		return rec, fmt.Errorf("segstore: record frame length %d, %d bytes remain", frameLen, r.Len())
	}
	frame := make([]byte, frameLen)
	if _, err := io.ReadFull(r, frame); err != nil {
		return rec, fmt.Errorf("segstore: record frame: %w", err)
	}
	rec.Chunk = int(chunk)
	rec.Unix = unix
	rec.Bound = bound
	rec.Rows = rows
	rec.Frame = frame
	return rec, nil
}

func readFloat(r *bytes.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

// segScan is the result of scanning a segment file front to back.
type segScan struct {
	Header segHeader
	Recs   []recMeta // record index rebuilt from the records themselves
	Frames [][]byte  // raw wire frames, in record order
	Footer *segFooter
	// Good is the offset just past the last whole block (including a
	// footer); a file longer than Good carries a torn tail.
	Good int64
	Size int64
}

// scanSegment reads a segment file sequentially, validating every block
// checksum, and reports everything recoverable plus the torn-tail cut
// point. It never fails on torn or corrupt tails — only on files whose
// preamble or header block is unusable (err != nil and Header unset).
func scanSegment(r io.Reader, size int64) (segScan, error) {
	scan := segScan{Size: size}
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != segMagic {
		return scan, fmt.Errorf("segstore: bad segment magic")
	}
	off := int64(len(segMagic))
	payload, err := blocklog.Read(br, size-off)
	if err != nil || len(payload) == 0 || payload[0] != blockHeader {
		return scan, fmt.Errorf("segstore: unreadable segment header")
	}
	if err := json.Unmarshal(payload[1:], &scan.Header); err != nil {
		return scan, fmt.Errorf("segstore: decoding segment header: %w", err)
	}
	if scan.Header.N <= 0 || scan.Header.M <= 0 {
		return scan, fmt.Errorf("segstore: segment header shape %dx%d", scan.Header.N, scan.Header.M)
	}
	off += int64(8 + len(payload))
	scan.Good = off
	for {
		payload, err := blocklog.Read(br, size-off)
		if err != nil {
			// io.EOF is a clean end (unsealed segment); anything else is a
			// torn tail cut back to Good.
			return scan, nil
		}
		blockLen := int64(8 + len(payload))
		if len(payload) == 0 {
			return scan, nil
		}
		switch payload[0] {
		case blockRecord:
			rec, derr := decodeRecord(payload)
			if derr != nil {
				return scan, nil
			}
			want := scan.Header.FirstChunk + len(scan.Recs)
			if rec.Chunk != want || len(rec.Rows) != scan.Header.N {
				// A record out of sequence is indistinguishable from
				// corruption that happened to keep a valid CRC.
				return scan, nil
			}
			scan.Recs = append(scan.Recs, recMeta{
				Chunk: rec.Chunk, Offset: off, Unix: rec.Unix,
				Bound: rec.Bound, Rows: rec.Rows,
			})
			scan.Frames = append(scan.Frames, rec.Frame)
			off += blockLen
			scan.Good = off
		case blockFooter:
			var ft segFooter
			if json.Unmarshal(payload[1:], &ft) != nil {
				return scan, nil
			}
			if ft.FirstChunk != scan.Header.FirstChunk || ft.Records != len(scan.Recs) {
				return scan, nil
			}
			// The footer only counts with its trailer intact: a tail torn
			// inside the trailer means the seal never became durable, so the
			// footer bytes fall with the tear and the segment stays active.
			var tr [12]byte
			if _, err := io.ReadFull(br, tr[:]); err != nil {
				return scan, nil
			}
			if binary.LittleEndian.Uint64(tr[0:8]) != uint64(off) ||
				!bytes.Equal(tr[8:12], trailerMagic[:]) {
				return scan, nil
			}
			scan.Footer = &ft
			off += blockLen + 12 // block + trailer
			scan.Good = off
			return scan, nil
		default:
			return scan, nil
		}
	}
}

// decodeSegmentChunks replays a scanned segment's records through a cold
// decoder seeded from the header state, returning the reconstructed rows
// of every record in order. The result is byte-identical to what the live
// station computed when it first received the frames, because the decode
// pipeline is deterministic and the header snapshot reproduces the replica
// pool exactly as it stood at segment start.
func decodeSegmentChunks(cfg core.Config, scan segScan) ([][]timeseries.Series, error) {
	dec, err := core.NewDecoderAt(cfg, scan.Header.Decoder)
	if err != nil {
		return nil, err
	}
	out := make([][]timeseries.Series, 0, len(scan.Frames))
	for i, frame := range scan.Frames {
		t, err := wire.DecodeBytes(frame)
		if err != nil {
			return nil, fmt.Errorf("segstore: chunk %d: %w", scan.Header.FirstChunk+i, err)
		}
		// Mirror the station's reboot rule: a zero sequence after any prior
		// history means the sensor restarted with an empty base signal.
		if t.Seq == 0 && scan.Header.FirstChunk+i > 0 {
			if dec, err = core.NewDecoder(cfg); err != nil {
				return nil, err
			}
		}
		rows, err := dec.Decode(t)
		if err != nil {
			return nil, fmt.Errorf("segstore: chunk %d: %w", scan.Header.FirstChunk+i, err)
		}
		out = append(out, rows)
	}
	return out, nil
}
