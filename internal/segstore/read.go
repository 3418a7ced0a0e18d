package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sbr/internal/fanout"
	"sbr/internal/obs/trace"
	"sbr/internal/timeseries"
)

// Cold-read path. The store lock (s.mu) is a leaf lock held only to
// resolve which segments a read needs — never across a disk read or a
// decode. Every read loads what it decodes, and keeps nothing after it
// returns: a sealed segment with one open, one ReadAt and one close into
// a single buffer whose blocks it scans in place (loadSealed), the active
// segment from the frames the store mirrors in memory. No segment is
// cached; the OS page cache is the only cache. A read then decodes,
// outside every lock, only the one quantity and the chunks it returns: a
// decoder seeded from the segment header advances through the chunks
// before the window, applying their base-signal updates, and reconstructs
// one row of each chunk inside it into the caller's buffer (decodeRow).
// Range reads spanning several segments fan the per-segment work out over
// a bounded worker pool (fanout.Run), each segment decoding into its own
// part of the buffer.

// segRef is a decodable reference to one segment, resolved under s.mu and
// then safe to act on without it. For the active segment it captures the
// header and the current frame slice header — appends only ever grow that
// slice (never mutate delivered elements), so a captured prefix stays
// immutable. For sealed segments it carries the sensor's directory and
// the segment's metadata; the file is immutable until retention unlinks
// it.
type segRef struct {
	firstChunk int
	lastChunk  int
	sealed     bool
	dir        string  // sealed only: the sensor's directory
	meta       segMeta // sealed only
	scan       segScan // active only: captured in-memory scan
}

// resolveRef locates the segment holding chunk. The caller holds s.mu and
// has bounds-checked chunk against [ss.purged, ss.nextChunk()).
func resolveRef(sensor string, ss *sensorSegs, chunk int) (segRef, error) {
	if a := ss.active; a != nil && chunk >= a.header.FirstChunk {
		return segRef{
			firstChunk: a.header.FirstChunk,
			lastChunk:  a.lastChunk(),
			scan:       segScan{Header: a.header, Frames: a.frames},
		}, nil
	}
	i := sort.Search(len(ss.sealed), func(i int) bool {
		return ss.sealed[i].LastChunk >= chunk
	})
	if i >= len(ss.sealed) || ss.sealed[i].FirstChunk > chunk {
		return segRef{}, fmt.Errorf("segstore: sensor %q chunk %d not covered by any segment", sensor, chunk)
	}
	sm := ss.sealed[i]
	return segRef{
		firstChunk: sm.FirstChunk,
		lastChunk:  sm.LastChunk,
		sealed:     true,
		dir:        ss.dir,
		meta:       sm,
	}, nil
}

// load returns the segment ref points at: a sealed segment read from its
// file, or the frames the active segment mirrors in memory. No store lock
// held: this is the disk I/O the read path keeps off every lock.
func (ref segRef) load(sensor string) (segScan, error) {
	if !ref.sealed {
		return ref.scan, nil
	}
	return loadSealed(sensor, ref.dir, ref.meta)
}

// reclassify re-checks a failed cold fetch against the retention
// watermark: a sealed segment unlinked between ref resolution and the
// disk read surfaces as a read error, but the truthful answer — the same
// one a later query would get — is ErrPurged.
func (s *Store) reclassify(sensor string, chunk int, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ss := s.sensors[sensor]; ss != nil && chunk < ss.purged {
		return fmt.Errorf("%w: sensor %q chunk %d (archive starts at %d)",
			ErrPurged, sensor, chunk, ss.purged)
	}
	return err
}

// ChunkRow serves a cold point read: it reconstructs quantity row of one
// archived chunk into dst, which holds the chunk's samples, bit-identical
// to what the live station computed when the transmission arrived. It is
// ChunkRangeRow over the one chunk.
func (s *Store) ChunkRow(sensor string, chunk, row int, dst timeseries.Series, sp *trace.Span) error {
	return s.ChunkRangeRow(sensor, chunk, chunk+1, row, dst, sp)
}

// DefaultFetchWorkers bounds the parallel segment reads of one range read
// when Options leaves FetchWorkers zero.
const DefaultFetchWorkers = 4

// ChunkRangeRow reconstructs quantity row of one sensor's archived chunks
// [from, to) into dst, which holds M samples per chunk, M the sensor's
// samples per chunk: chunk from+i's row lands at dst[i·M : (i+1)·M]. Only
// the segments the range overlaps are loaded, and from each only the
// chunks up to the range's end are parsed: the chunks before the range
// advance a decoder seeded from the segment header, and one row of each
// chunk inside it is reconstructed. The segments are resolved under one
// lock acquisition and, when there are several, loaded and decoded in
// parallel across a bounded worker pool, each into its own part of dst.
// The work is recorded as one segstore.cold_fetch child of sp (nil:
// untraced).
func (s *Store) ChunkRangeRow(sensor string, from, to, row int, dst timeseries.Series, sp *trace.Span) error {
	if from >= to {
		return nil
	}
	if len(dst) == 0 || len(dst)%(to-from) != 0 {
		return fmt.Errorf("segstore: %d samples of room for %d chunks", len(dst), to-from)
	}
	m := len(dst) / (to - from)
	csp := sp.Child("segstore.cold_fetch")
	defer csp.End()
	csp.AnnotateInt("from", int64(from))
	csp.AnnotateInt("chunks", int64(to-from))
	s.mu.Lock()
	ss := s.sensors[sensor]
	if ss == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownSensor, sensor)
	}
	if from < ss.purged {
		s.mu.Unlock()
		return fmt.Errorf("%w: sensor %q chunk %d (archive starts at %d)",
			ErrPurged, sensor, from, ss.purged)
	}
	if to > ss.nextChunk() {
		s.mu.Unlock()
		return fmt.Errorf("segstore: sensor %q chunk %d not yet archived", sensor, to-1)
	}
	var parts []windowPart
	for c := from; c < to; {
		ref, err := resolveRef(sensor, ss, c)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		parts = append(parts, windowPart{ref: ref})
		c = ref.lastChunk + 1
	}
	s.mu.Unlock()

	// Each segment's part of the window, loaded and decoded by one task.
	read := func(p *windowPart) {
		scan, err := p.ref.load(sensor)
		if err != nil {
			p.err = s.reclassify(sensor, p.ref.firstChunk, err)
			return
		}
		lo, hi := p.bounds(from, to)
		off := (p.ref.firstChunk + lo - from) * m
		p.err = decodeRow(s.opts.Config, scan.Header, scan.Frames, row, lo, hi, dst[off:off+(hi-lo)*m])
	}
	workers := s.opts.FetchWorkers
	if workers <= 0 {
		workers = DefaultFetchWorkers
	}
	fanout.Run(len(parts), workers, func(_, i int) { read(&parts[i]) })

	var advanced int
	for _, p := range parts {
		if p.err != nil {
			return p.err
		}
		lo, _ := p.bounds(from, to)
		advanced += lo
	}
	s.met.coldReads.Add(uint64(len(parts)))
	s.met.coldAdvanced.Add(uint64(advanced))
	s.met.coldDecoded.Add(uint64(to - from))
	csp.AnnotateInt("advanced", int64(advanced))
	csp.AnnotateInt("decoded", int64(to-from))
	return nil
}

// windowPart is one segment's share of a range read and how it ended.
type windowPart struct {
	ref segRef
	err error
}

// bounds returns the segment-relative records [lo, hi) of the part that
// the window [from, to) covers: lo is also the count of records advanced
// before the window.
func (p *windowPart) bounds(from, to int) (lo, hi int) {
	return max(from, p.ref.firstChunk) - p.ref.firstChunk, min(to, p.ref.lastChunk+1) - p.ref.firstChunk
}

// loadSealed loads one sealed segment of the sensor from its directory:
// one open, one ReadAt and one close read the whole file into a single
// buffer, which scanSealed scans in place.
func loadSealed(sensor, dir string, sm segMeta) (segScan, error) {
	path := filepath.Join(dir, segName(sm.FirstChunk))
	b, err := readFile(path, sm.Bytes)
	if err != nil {
		return segScan{}, fmt.Errorf("segstore: sealed segment %s: %w", path, err)
	}
	scan, err := scanSealed(b, sensor, sm)
	if err != nil {
		return segScan{}, fmt.Errorf("segstore: sealed segment %s: %w", path, err)
	}
	return scan, nil
}

// scanSealed finds the header and records of the sealed segment sm of the
// sensor, held whole in b, verifying every block checksum; the header must
// name the sensor and first chunk the file's place does, and the records
// must be as many as sm holds. The trailer at the end of b names where the
// records end, and the scan stops there: the footer is not parsed. Only a
// damaged trailer sends the scan on to the footer, where it stops.
func scanSealed(b []byte, sensor string, sm segMeta) (segScan, error) {
	end := sm.Bytes
	if off, err := footerOffset(b[max(0, len(b)-trailerLen):], sm.Bytes); err == nil {
		end = off
	}
	records := sm.LastChunk - sm.FirstChunk + 1
	scan, err := scanSegment(b[:end], records)
	if err == nil {
		err = checkPlace(scan.Header, sensor, sm.FirstChunk)
	}
	if err == nil && len(scan.Recs) != records {
		err = fmt.Errorf("holds %d whole records, want %d", len(scan.Recs), records)
	}
	return scan, err
}

// readFile reads the first size bytes of the file at path into one buffer
// with one open, one ReadAt and one close.
func readFile(path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, err
	}
	return b, nil
}

// ReplayFrom streams the archived raw frames of one sensor with chunk
// index >= from, in order, to fn. It is the restart's replay: the station
// calls it with the first chunk of the sensor's newest file
// (SensorRecovery.Start) and feeds each frame back through its receive
// path. Frames are read outside the store lock, so fn may re-enter the
// station.
func (s *Store) ReplayFrom(sensor string, from int, fn func(chunk int, frame []byte) error) error {
	s.mu.Lock()
	ss := s.sensors[sensor]
	if ss == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownSensor, sensor)
	}
	if from < ss.purged {
		s.mu.Unlock()
		return fmt.Errorf("%w: sensor %q replay from %d (archive starts at %d)",
			ErrPurged, sensor, from, ss.purged)
	}
	dir := ss.dir
	sealed := make([]segMeta, 0, len(ss.sealed))
	for _, sm := range ss.sealed {
		if sm.LastChunk >= from {
			sealed = append(sealed, sm)
		}
	}
	var activeFirst int
	var activeFrames [][]byte
	if a := ss.active; a != nil {
		activeFirst = a.header.FirstChunk
		activeFrames = a.frames
	}
	s.mu.Unlock()

	for _, sm := range sealed {
		scan, err := loadSealed(sensor, dir, sm)
		if err != nil {
			return err
		}
		for i, frame := range scan.Frames {
			chunk := scan.Header.FirstChunk + i
			if chunk < from {
				continue
			}
			if err := fn(chunk, frame); err != nil {
				return err
			}
		}
	}
	for i, frame := range activeFrames {
		chunk := activeFirst + i
		if chunk < from {
			continue
		}
		if err := fn(chunk, frame); err != nil {
			return err
		}
	}
	return nil
}
