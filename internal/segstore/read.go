package segstore

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sbr/internal/obs/trace"
	"sbr/internal/timeseries"
)

// Cold-read path. The store lock (s.mu) is a leaf lock held only for
// index resolution and cache bookkeeping — never across a disk read or a
// decode. A cold fetch resolves the segment reference under the lock,
// then scans the segment outside it, with concurrent misses on the same
// segment deduplicated by a singleflight table: the first reader scans,
// everyone else joins its result. A read then decodes, outside every
// lock, only the one quantity and the chunks it returns: a decoder seeded
// from the segment header advances through the chunks before the window,
// applying their base-signal updates, and reconstructs one row of each
// chunk inside it (decodeRow). Range reads spanning several segments fan
// the per-segment work out over a bounded worker pool and are merged back
// in chunk order.

// segCache is a small LRU of scanned segments: each entry holds what the
// segment file holds — the header that seeds a cold decoder and the raw
// frames of its records, about 14 KB for a 64-chunk fleet segment — and
// every read decodes from it only the window it returns. Cold queries
// cluster — a range query touches consecutive chunks of one segment, a
// dashboard refreshes the same window — so caching scanned segments turns
// a burst of cold reads into one disk read each. Keys carry the record
// count, so a growing active segment never serves stale entries. The
// recency list is a doubly-linked list: get, put and eviction are all
// O(1) regardless of capacity.
type segCache struct {
	cap     int
	entries map[string]*list.Element // value: *cacheItem
	ll      *list.List               // LRU order, oldest at the front
}

type cacheItem struct {
	key string
	e   *segCacheEntry
}

// segCacheEntry is one scanned segment: its header and the raw frames of
// its records, in order. Both are immutable once published.
type segCacheEntry struct {
	header segHeader
	frames [][]byte
}

func newSegCache(capacity int) *segCache {
	return &segCache{cap: capacity, entries: make(map[string]*list.Element), ll: list.New()}
}

func cacheKey(sensor string, firstChunk, records int) string {
	return fmt.Sprintf("%s\x00%d:%d", sensor, firstChunk, records)
}

func (c *segCache) get(key string) *segCacheEntry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToBack(el)
	return el.Value.(*cacheItem).e
}

func (c *segCache) put(key string, e *segCacheEntry) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheItem).e = e
		c.ll.MoveToBack(el)
		return
	}
	c.entries[key] = c.ll.PushBack(&cacheItem{key: key, e: e})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Front()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheItem).key)
	}
}

// dropSensor evicts every cached segment of one sensor (retention purged
// some of them; precision is not worth the bookkeeping). O(cached
// segments), which the cache capacity bounds.
func (c *segCache) dropSensor(sensor string) {
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		it := el.Value.(*cacheItem)
		if len(it.key) > len(sensor) && it.key[:len(sensor)] == sensor && it.key[len(sensor)] == 0 {
			c.ll.Remove(el)
			delete(c.entries, it.key)
		}
		el = next
	}
}

// segRef is a decodable reference to one segment, resolved under s.mu and
// then safe to act on without it. For the active segment it captures the
// header and the current rec/frame slice headers — appends only ever grow
// those slices (never mutate delivered elements), so a captured prefix
// stays immutable; the record count is baked into the key, so the decode
// covers exactly the captured prefix. For sealed segments it carries the
// file and its metadata; the file is immutable until retention unlinks it.
type segRef struct {
	key        string
	firstChunk int
	lastChunk  int
	sealed     bool
	sensor     string  // sealed only
	dir        string  // sealed only: the sensor's directory
	meta       segMeta // sealed only
	scan       segScan // active only: captured in-memory scan
}

// flight is one in-progress segment scan; joiners block on done.
type flight struct {
	done chan struct{}
	e    *segCacheEntry
	err  error
}

// resolveRef locates the segment holding chunk. The caller holds s.mu and
// has bounds-checked chunk against [ss.purged, ss.nextChunk()).
func resolveRef(sensor string, ss *sensorSegs, chunk int) (segRef, error) {
	if a := ss.active; a != nil && chunk >= a.header.FirstChunk {
		return segRef{
			key:        cacheKey(sensor, a.header.FirstChunk, len(a.frames)),
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
		key:        cacheKey(sensor, sm.FirstChunk, sm.LastChunk-sm.FirstChunk+1),
		firstChunk: sm.FirstChunk,
		lastChunk:  sm.LastChunk,
		sealed:     true,
		sensor:     sensor,
		dir:        ss.dir,
		meta:       sm,
	}, nil
}

// fetchSegment returns the scanned segment ref points at: from the cache
// when warm, by joining an in-flight scan of the same segment when one
// exists, otherwise by scanning it here — outside the store lock — and
// publishing the result to cache and joiners. hit reports a cache hit.
func (s *Store) fetchSegment(ref segRef) (e *segCacheEntry, hit bool, err error) {
	s.mu.Lock()
	if e := s.cache.get(ref.key); e != nil {
		s.mu.Unlock()
		return e, true, nil
	}
	if f, ok := s.flights[ref.key]; ok {
		s.mu.Unlock()
		s.met.sfHits.Inc()
		select {
		case <-f.done:
		default:
			s.met.sfWaits.Inc()
			<-f.done
		}
		return f.e, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[ref.key] = f
	s.mu.Unlock()

	s.met.fetchParallel.Add(1)
	e, err = s.loadRef(ref)
	s.met.fetchParallel.Add(-1)

	s.mu.Lock()
	delete(s.flights, ref.key)
	if err == nil {
		s.met.coldReads.Inc()
		s.cache.put(ref.key, e)
	}
	s.mu.Unlock()
	f.e, f.err = e, err
	close(f.done)
	return e, false, err
}

// loadRef loads one segment: the file scan of a sealed segment, or the
// frames the active segment mirrors in memory. No store lock held: this
// is the disk I/O the read path keeps off every lock.
func (s *Store) loadRef(ref segRef) (*segCacheEntry, error) {
	scan := ref.scan
	if ref.sealed {
		var err error
		scan, err = scanSealed(ref.sensor, ref.dir, ref.meta)
		if err != nil {
			return nil, err
		}
	}
	return &segCacheEntry{header: scan.Header, frames: scan.Frames}, nil
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

// ChunkRow serves a cold point read: quantity row of one archived chunk
// and the chunk's error bound, bit-identical to what the live station
// computed when the transmission arrived. It is ChunkRangeRow over the
// one chunk.
func (s *Store) ChunkRow(sensor string, chunk, row int, sp *trace.Span) (timeseries.Series, float64, error) {
	var values timeseries.Series
	var bound float64
	err := s.ChunkRangeRow(sensor, chunk, chunk+1, row, sp, func(_ int, v timeseries.Series, b float64) error {
		values, bound = v, b
		return nil
	})
	return values, bound, err
}

// DefaultFetchWorkers bounds the parallel segment reads of one range read
// when Options leaves FetchWorkers zero.
const DefaultFetchWorkers = 4

// ChunkRangeRow streams quantity row of the archived chunks [from, to) of
// one sensor, with each chunk's error bound, in chunk order, to fn. Only
// the segments the range overlaps are loaded, and from each only the
// chunks up to the range's end are parsed: the chunks before the range
// advance a decoder seeded from the segment header, and one row of each
// chunk inside it is reconstructed. The segments are resolved under one
// lock acquisition and, when there are several, fetched and decoded in
// parallel across a bounded worker pool; fn then runs sequentially in
// order, so callers need no locking of their own. A non-nil error from fn
// stops the stream and is returned. The work is recorded as one
// segstore.cold_fetch child of sp (nil: untraced).
func (s *Store) ChunkRangeRow(sensor string, from, to, row int, sp *trace.Span, fn func(chunk int, values timeseries.Series, bound float64) error) error {
	if from >= to {
		return nil
	}
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
	var refs []segRef
	var cached []*segCacheEntry
	for c := from; c < to; {
		ref, err := resolveRef(sensor, ss, c)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		// Warm segments are grabbed under the same acquisition that
		// resolved them: a fully cached range costs one lock round trip.
		refs, cached = append(refs, ref), append(cached, s.cache.get(ref.key))
		c = ref.lastChunk + 1
	}
	s.mu.Unlock()

	// Each segment's part of the window, decoded by one task.
	parts := make([]windowPart, len(refs))
	read := func(i int) {
		ref, p := refs[i], &parts[i]
		e := cached[i]
		p.hit = e != nil
		if e == nil {
			var err error
			if e, p.hit, err = s.fetchSegment(ref); err != nil {
				p.err = s.reclassify(sensor, ref.firstChunk, err)
				return
			}
		}
		p.lo = max(from, ref.firstChunk) - ref.firstChunk
		hi := min(to, ref.lastChunk+1) - ref.firstChunk
		p.values, p.bounds, p.err = decodeRow(s.opts.Config, e.header, e.frames, row, p.lo, hi)
	}
	workers := s.opts.FetchWorkers
	if workers <= 0 {
		workers = DefaultFetchWorkers
	}
	if workers = min(workers, len(refs)); workers <= 1 {
		for i := range refs {
			read(i)
		}
	} else {
		idx := make(chan int, len(refs))
		for i := range refs {
			idx <- i
		}
		close(idx)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					read(i)
				}
			}()
		}
		wg.Wait()
	}

	var advanced, decoded, hits int
	for _, p := range parts {
		if p.err != nil {
			return p.err
		}
		advanced += p.lo
		decoded += len(p.values)
		if p.hit {
			hits++
		}
	}
	s.met.coldAdvanced.Add(uint64(advanced))
	s.met.coldDecoded.Add(uint64(decoded))
	s.met.scanHits.Add(uint64(hits))
	csp.AnnotateInt("advanced", int64(advanced))
	csp.AnnotateInt("decoded", int64(decoded))
	csp.AnnotateInt("scan_cache_hits", int64(hits))

	c := from
	for _, p := range parts {
		for i, v := range p.values {
			if err := fn(c, v, p.bounds[i]); err != nil {
				return err
			}
			c++
		}
	}
	return nil
}

// windowPart is one segment's share of a range read: the row of each of
// its chunks in the window, their bounds, and what reading them cost.
type windowPart struct {
	lo     int  // chunks advanced before the window
	hit    bool // the scan cache served the segment
	values []timeseries.Series
	bounds []float64
	err    error
}

// scanSealed loads the header and records of one sealed segment of the
// sensor from its directory, verifying every checksum and that the header
// names the sensor and first chunk the file's place does. The trailer
// names where the records end, and the read stops there: the footer is
// neither read nor parsed. Only a damaged trailer sends the scan on to the
// footer, where it stops.
func scanSealed(sensor, dir string, sm segMeta) (segScan, error) {
	path := filepath.Join(dir, segName(sm.FirstChunk))
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, fmt.Errorf("segstore: opening sealed segment: %w", err)
	}
	defer f.Close()
	end, err := footerOffset(f, sm.Bytes)
	if err != nil {
		end = sm.Bytes
	}
	scan, err := scanSegment(io.NewSectionReader(f, 0, end), end)
	if err == nil {
		err = checkPlace(scan.Header, sensor, sm.FirstChunk)
	}
	if err != nil {
		return segScan{}, fmt.Errorf("segstore: sealed segment %s: %w", path, err)
	}
	if got := len(scan.Recs); got != sm.LastChunk-sm.FirstChunk+1 {
		return segScan{}, fmt.Errorf("segstore: sealed segment %s holds %d whole records, want %d",
			path, got, sm.LastChunk-sm.FirstChunk+1)
	}
	return scan, nil
}

// ReplayFrom streams the archived raw frames of one sensor with chunk
// index >= from, in order, to fn. It is the recovery tail replay: the
// station calls it with the chunk count its checkpoint covers and feeds
// each frame back through its receive path. Frames are read outside the
// store lock, so fn may re-enter the station.
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
		scan, err := scanSealed(sensor, dir, sm)
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
