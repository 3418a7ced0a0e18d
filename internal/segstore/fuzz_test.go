package segstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/timeseries"
)

// FuzzScanSegment feeds arbitrary bytes to the segment reader: whatever a
// crashed disk or a corrupt transfer hands us, scanning and decoding must
// fail cleanly (error or torn-tail truncation), never panic, and never
// claim more good bytes than the input holds. The in-memory scanner must
// find exactly what the reader-based scanner it replaced finds
// (scanSegmentReader): the same error, header, records, frames and cut
// point. A file that scans is never one Open would delete as a torn first
// write.
func FuzzScanSegment(f *testing.F) {
	cfg := testConfig()

	// Seed with a real segment and mutations of it so the fuzzer starts
	// past the magic/header checks. SegmentChunks large → one sealed file
	// with header, records, footer and trailer all present.
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, Config: cfg, SegmentChunks: 100})
	if err != nil {
		f.Fatal(err)
	}
	feedStore(f, s, cfg, "node", makeFrames(f, cfg, 4, 16), 0)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(activeSegPath(f, dir, "node"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	f.Add(seg[:len(seg)-5])
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(segMagic[:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := scanSegment(data, 0)
		ref, refErr := scanSegmentReader(bytes.NewReader(data), int64(len(data)))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("scanSegment error %v, reader-based scanner error %v", err, refErr)
		}
		torn := tornFirstWrite(data)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(scan.Header, ref.Header) || scan.Good != ref.Good ||
			len(scan.Recs) != len(ref.Recs) || len(scan.Frames) != len(ref.Frames) {
			t.Fatalf("scanSegment found %d records to %d, the reader-based scanner %d to %d",
				len(scan.Recs), scan.Good, len(ref.Recs), ref.Good)
		}
		for i := range scan.Recs {
			if scan.Recs[i] != ref.Recs[i] || !bytes.Equal(scan.Frames[i], ref.Frames[i]) {
				t.Fatalf("record %d differs from the reader-based scanner's", i)
			}
		}
		if torn {
			t.Fatalf("a segment that scans (%d records) reads as a torn first write", len(scan.Recs))
		}
		if scan.Good < 0 || scan.Good > int64(len(data)) {
			t.Fatalf("Good offset %d outside input of %d bytes", scan.Good, len(data))
		}
		if len(scan.Recs) != len(scan.Frames) {
			t.Fatalf("%d record metas vs %d frames", len(scan.Recs), len(scan.Frames))
		}
		// Decoding survivors must also be panic-free, whole or one row of a
		// window; errors are fine (the frames may be garbage that happened
		// to checksum).
		_, _ = decodeSegmentChunks(cfg, scan)
		if n, m := len(scan.Frames), scan.Header.M; n > 0 && m <= 1<<12 {
			_ = decodeRow(cfg, scan.Header, scan.Frames, 0, n/2, n, make(timeseries.Series, (n-n/2)*m))
		}
	})
}

// scanSegmentReader is the reader-based segment scanner that scanSegment
// replaced, kept as FuzzScanSegment's reference: it reads the file block
// by block through a bufio.Reader, copying each block into its own
// allocation.
func scanSegmentReader(r io.Reader, size int64) (segScan, error) {
	var scan segScan
	br := bufio.NewReaderSize(r, int(min(size, 1<<16)))
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return scan, fmt.Errorf("segstore: segment too short for its magic")
	}
	if isOldMagic(magic) {
		return scan, errOldFormat
	}
	if magic != segMagic {
		return scan, fmt.Errorf("segstore: bad segment magic")
	}
	off := int64(len(segMagic))
	payload, err := blocklog.Read(br, size-off)
	if err != nil {
		return scan, fmt.Errorf("segstore: unreadable segment header")
	}
	if scan.Header, err = decodeHeader(payload); err != nil {
		return scan, err
	}
	off += int64(8 + len(payload))
	scan.Good = off
	for {
		payload, err := blocklog.Read(br, size-off)
		if err != nil || len(payload) < recordHeadLen || payload[0] != blockRecord {
			return scan, nil
		}
		if le.Uint64(payload[1:9]) != uint64(scan.Header.FirstChunk+len(scan.Recs)) {
			return scan, nil
		}
		scan.Recs = append(scan.Recs, recMeta{Offset: off, Unix: int64(le.Uint64(payload[9:17]))})
		scan.Frames = append(scan.Frames, payload[recordHeadLen:])
		off += int64(8 + len(payload))
		scan.Good = off
	}
}

// FuzzDecodeMetadata feeds arbitrary bytes to the binary metadata
// decoders, the segment header and the footer, as block payloads (the
// checksum would otherwise reject almost every input before a decoder saw
// it). Each must return an error or a value, never panic or allocate
// beyond what the input can hold, and whatever decodes must re-encode to
// the very same bytes.
func FuzzDecodeMetadata(f *testing.F) {
	dec := core.DecoderState{W: 4, Next: 7, Base: []timeseries.Series{{1, 2, 3, 4}, {5, 6, 7, 8}}}
	for _, h := range []segHeader{
		// A live sensor's header, its receive bookkeeping counted up.
		{Sensor: "node", FirstChunk: 64, N: 2, M: 16, CreatedUnix: 1.7e9, SensorState: SensorState{
			Decoder: dec, Frames: 64, Bytes: 9000, Values: 700, Restarts: 1, NextSeq: 12, SrcNonce: 9, ZeroSum: 11}},
		// A rebooted sensor rolled before its replica held a base slot.
		{Sensor: "a/b", FirstChunk: 3, N: 1, M: 8, CreatedUnix: 1.7e9, SensorState: SensorState{
			Decoder: core.DecoderState{W: 8}, Frames: 3, Restarts: 2, NextSeq: 1, SrcNonce: 1<<64 - 1, ZeroSum: 1 << 63}},
	} {
		block, err := encodeHeaderBlock(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(block[8:])
	}
	facts := []ChunkFacts{
		{Unix: 1.7e9, Bound: 0.5, Inserts: 2, Rows: []RowSummary{{1, -1, 2}, {3, 0, 4}}},
		{Unix: 1.7e9 + 1, Bound: 0.25, Rows: []RowSummary{{5, 1, 3}, {-2, -3, 1}}},
	}
	ftr := encodeFooterBlock(64, 2, facts, 0)
	f.Add(ftr[8 : len(ftr)-trailerLen])
	f.Add(ftr[8 : 8+footerHeadLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := decodeHeader(data); err == nil {
			block, err := encodeHeaderBlock(h)
			if err != nil || !bytes.Equal(block[8:], data) {
				t.Fatalf("header does not re-encode to its bytes (%v)", err)
			}
		}
		if first, facts, err := decodeFooter(data); err == nil {
			block := encodeFooterBlock(first, int(le.Uint32(data[13:17])), facts, 0)
			if !bytes.Equal(block[8:len(block)-trailerLen], data) {
				t.Fatal("footer does not re-encode to its bytes")
			}
		}
	})
}

// decodeFooter parses a footer block payload, kind tag included, into its
// first chunk and per-record facts, field by field. Open decodes footers
// straight into a sensor's columns instead (SensorRecovery.putEntries); this
// is the reference both FuzzDecodeMetadata's round trip and
// TestFooterColumnsMatchReference check against.
func decodeFooter(payload []byte) (int, []ChunkFacts, error) {
	first, count, n, entries, err := footerHead(payload)
	if err != nil {
		return 0, nil, err
	}
	r := fields{b: entries}
	facts := make([]ChunkFacts, count)
	for i := range facts {
		f := &facts[i]
		f.Unix = int64(r.u64())
		f.Bound = r.f64()
		f.Inserts = r.u32()
		f.Rows = make([]RowSummary, n)
		for j := range f.Rows {
			f.Rows[j] = RowSummary{Sum: r.f64(), Min: r.f64(), Max: r.f64()}
		}
	}
	if err := r.done("segment footer"); err != nil {
		return 0, nil, err
	}
	return first, facts, nil
}
