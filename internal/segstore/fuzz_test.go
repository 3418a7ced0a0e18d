package segstore

import (
	"bytes"
	"os"
	"testing"

	"sbr/internal/core"
	"sbr/internal/timeseries"
)

// FuzzScanSegment feeds arbitrary bytes to the segment reader: whatever a
// crashed disk or a corrupt transfer hands us, scanning and decoding must
// fail cleanly (error or torn-tail truncation), never panic, and never
// claim more good bytes than the input holds. A file that scans is never
// one Open would delete as a torn first write.
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
	f.Add([]byte("SBRSEG2\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := scanSegment(bytes.NewReader(data), int64(len(data)))
		torn := tornFirstWrite(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
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
		if n := len(scan.Frames); n > 0 {
			_, _, _ = decodeRow(cfg, scan.Header, scan.Frames, 0, n/2, n)
		}
	})
}

// FuzzDecodeMetadata feeds arbitrary bytes to the binary metadata
// decoders: the segment header, the footer and the checkpoint, as block
// payloads (the checksum would otherwise reject almost every input before
// a decoder saw it), and the checkpoint as a whole file. Each must return
// an error or a value, never panic or allocate beyond what the input can
// hold. Whatever decodes must survive a round trip: headers and footers
// re-encode to the very same bytes, and a checkpoint's encoding decodes
// and re-encodes to itself.
func FuzzDecodeMetadata(f *testing.F) {
	dec := core.DecoderState{W: 4, Next: 7, Base: []timeseries.Series{{1, 2, 3, 4}, {5, 6, 7, 8}}}
	hdr, err := encodeHeaderBlock(segHeader{Sensor: "node", FirstChunk: 64, N: 2, M: 16, CreatedUnix: 1.7e9, Decoder: dec})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hdr[8:])
	facts := []ChunkFacts{
		{Unix: 1.7e9, Bound: 0.5, Inserts: 2, Rows: []RowSummary{{1, -1, 2}, {3, 0, 4}}},
		{Unix: 1.7e9 + 1, Bound: 0.25, Rows: []RowSummary{{5, 1, 3}, {-2, -3, 1}}},
	}
	ftr := encodeFooterBlock(64, 2, facts, 0)
	f.Add(ftr[8 : len(ftr)-trailerLen])
	ck, err := encodeCheckpoint(&Checkpoint{Unix: 1.7e9, Sensors: map[string]*SensorCheckpoint{
		"a": {Chunks: 80, N: 2, M: 16, Decoder: dec, Frames: 80, Bytes: 9000, Values: 700, NextSeq: 80, SrcNonce: 9, ZeroSum: 11},
		"b": {Chunks: 3, N: 1, M: 8, Restarts: 1},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ck)
	f.Add(ck[len(ckptMagic)+8:])
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
		if ck, err := parseCheckpoint(data); err == nil {
			file, err := encodeCheckpoint(ck)
			if err != nil {
				t.Fatal(err)
			}
			again, err := decodeCheckpoint(file)
			if err != nil {
				t.Fatalf("checkpoint encoding does not decode: %v", err)
			}
			if file2, err := encodeCheckpoint(again); err != nil || !bytes.Equal(file2, file) {
				t.Fatalf("checkpoint encoding is not a fixed point (%v)", err)
			}
		}
		_, _ = decodeCheckpoint(data)
	})
}
