package segstore

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sbr/internal/core"
	"sbr/internal/timeseries"
)

// Cold-read path. The store lock (s.mu) is a leaf lock held only for
// index resolution and cache bookkeeping — never across a disk read or a
// segment decode. A cold fetch resolves the segment reference under the
// lock, then decodes outside it, with concurrent misses on the same
// segment deduplicated by a singleflight table: the first reader decodes,
// everyone else joins its result. Range reads spanning several segments
// fan the misses out over a bounded worker pool and are merged back in
// chunk order.

// segCache is a small LRU of decoded segments. Cold queries cluster — a
// range query touches consecutive chunks of one segment, a dashboard
// refreshes the same window — so caching whole decoded segments turns a
// burst of cold reads into one segment decode. Keys carry the record
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

type segCacheEntry struct {
	firstChunk int
	chunks     []decodedChunk // per record
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
// manifest entry; the file is immutable until retention unlinks it.
type segRef struct {
	key        string
	firstChunk int
	lastChunk  int
	sealed     bool
	meta       segMeta // sealed only
	scan       segScan // active only: captured in-memory scan
}

// flight is one in-progress segment decode; joiners block on done.
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
		meta:       sm,
	}, nil
}

// fetchSegment returns the decoded segment ref points at: from the cache
// when warm, by joining an in-flight decode of the same segment when one
// exists, otherwise by decoding it here — outside the store lock — and
// publishing the result to cache and joiners.
func (s *Store) fetchSegment(ref segRef) (*segCacheEntry, error) {
	s.mu.Lock()
	return s.fetchLocked(ref)
}

// fetchLocked is fetchSegment entered with s.mu already held — callers
// that just resolved ref under the lock reach the warm cache without a
// second acquisition. The lock is released on every path before any
// waiting, disk read or decode.
func (s *Store) fetchLocked(ref segRef) (*segCacheEntry, error) {
	if e := s.cache.get(ref.key); e != nil {
		s.mu.Unlock()
		return e, nil
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
		return f.e, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[ref.key] = f
	s.mu.Unlock()

	s.met.fetchParallel.Add(1)
	e, err := s.decodeRef(ref)
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
	return e, err
}

// decodeRef runs the actual segment load + decode. No store lock held:
// this is the disk I/O and CPU work the read path keeps off every lock.
func (s *Store) decodeRef(ref segRef) (*segCacheEntry, error) {
	scan := ref.scan
	if ref.sealed {
		var err error
		scan, err = s.scanSealed(ref.meta)
		if err != nil {
			return nil, err
		}
	}
	return decodeScan(s.opts.Config, scan)
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

// resolveChunk bounds-checks chunk and resolves its segment under s.mu.
func (s *Store) resolveChunk(sensor string, chunk int) (segRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveLocked(sensor, chunk)
}

// resolveLocked is resolveChunk with s.mu already held.
func (s *Store) resolveLocked(sensor string, chunk int) (segRef, error) {
	ss := s.sensors[sensor]
	if ss == nil {
		return segRef{}, fmt.Errorf("%w: %q", ErrUnknownSensor, sensor)
	}
	if chunk < ss.purged {
		return segRef{}, fmt.Errorf("%w: sensor %q chunk %d (archive starts at %d)",
			ErrPurged, sensor, chunk, ss.purged)
	}
	if chunk >= ss.nextChunk() {
		return segRef{}, fmt.Errorf("segstore: sensor %q chunk %d not yet archived", sensor, chunk)
	}
	return resolveRef(sensor, ss, chunk)
}

// ChunkRows serves a cold read: the reconstructed rows and error bound of
// one archived chunk, byte-identical to what the live station computed
// when the transmission arrived. Only the segment holding the chunk is
// loaded and decoded (and cached for the next neighbouring read);
// concurrent misses on the same segment share one decode.
func (s *Store) ChunkRows(sensor string, chunk int) ([]timeseries.Series, float64, error) {
	s.mu.Lock()
	ref, err := s.resolveLocked(sensor, chunk)
	if err != nil {
		s.mu.Unlock()
		return nil, 0, err
	}
	e, err := s.fetchLocked(ref) // releases s.mu
	if err != nil {
		return nil, 0, s.reclassify(sensor, chunk, err)
	}
	i := chunk - e.firstChunk
	if i < 0 || i >= len(e.chunks) {
		return nil, 0, fmt.Errorf("segstore: sensor %q chunk %d missing from its segment", sensor, chunk)
	}
	return e.chunks[i].rows, e.chunks[i].bound, nil
}

// DefaultFetchWorkers bounds the parallel segment decodes of one range
// read when Options leaves FetchWorkers zero.
const DefaultFetchWorkers = 4

// ChunkRangeRows streams the reconstructed rows and error bounds of the
// archived chunks [from, to) of one sensor, in chunk order, to fn. The
// segments the range spans are resolved under one lock acquisition and
// their misses decoded in parallel across a bounded worker pool (cache
// hits and singleflight joins cost no worker); fn then runs sequentially
// in order, so callers need no locking of their own. A non-nil error from
// fn stops the stream and is returned.
func (s *Store) ChunkRangeRows(sensor string, from, to int, fn func(chunk int, rows []timeseries.Series, bound float64) error) error {
	if from >= to {
		return nil
	}
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
	var entries []*segCacheEntry
	for c := from; c < to; {
		ref, err := resolveRef(sensor, ss, c)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		refs = append(refs, ref)
		// Warm segments are grabbed under the same acquisition that
		// resolved them: a fully cached range costs one lock round trip.
		entries = append(entries, s.cache.get(ref.key))
		c = ref.lastChunk + 1
	}
	s.mu.Unlock()

	errs := make([]error, len(refs))
	var miss []int
	for i, e := range entries {
		if e == nil {
			miss = append(miss, i)
		}
	}
	workers := s.opts.FetchWorkers
	if workers <= 0 {
		workers = DefaultFetchWorkers
	}
	if workers > len(miss) {
		workers = len(miss)
	}
	if workers <= 1 {
		for _, i := range miss {
			entries[i], errs[i] = s.fetchSegment(refs[i])
		}
	} else {
		idx := make(chan int, len(miss))
		for _, i := range miss {
			idx <- i
		}
		close(idx)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					entries[i], errs[i] = s.fetchSegment(refs[i])
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return s.reclassify(sensor, refs[i].firstChunk, err)
		}
	}

	ri := 0
	for c := from; c < to; c++ {
		for c > refs[ri].lastChunk {
			ri++
		}
		e := entries[ri]
		i := c - e.firstChunk
		if i < 0 || i >= len(e.chunks) {
			return fmt.Errorf("segstore: sensor %q chunk %d missing from its segment", sensor, c)
		}
		if err := fn(c, e.chunks[i].rows, e.chunks[i].bound); err != nil {
			return err
		}
	}
	return nil
}

// scanSealed loads the header and records of one sealed segment from
// disk, verifying every checksum. The trailer names where the records
// end, and the read stops there: the footer is neither read nor parsed.
// Only a damaged trailer sends the scan on to the footer, where it stops.
func (s *Store) scanSealed(sm segMeta) (segScan, error) {
	path := filepath.Join(s.dir, filepath.FromSlash(sm.File))
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
	if err != nil {
		return segScan{}, fmt.Errorf("segstore: sealed segment %s: %w", sm.File, err)
	}
	if got := len(scan.Recs); got != sm.LastChunk-sm.FirstChunk+1 {
		return segScan{}, fmt.Errorf("segstore: sealed segment %s holds %d whole records, manifest says %d",
			sm.File, got, sm.LastChunk-sm.FirstChunk+1)
	}
	return scan, nil
}

// decodeScan runs the cold decode of one scanned segment and packages it
// as a cache entry.
func decodeScan(cfg core.Config, scan segScan) (*segCacheEntry, error) {
	chunks, err := decodeSegmentChunks(cfg, scan)
	if err != nil {
		return nil, err
	}
	return &segCacheEntry{firstChunk: scan.Header.FirstChunk, chunks: chunks}, nil
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
		scan, err := s.scanSealed(sm)
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
