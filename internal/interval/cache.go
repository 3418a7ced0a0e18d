package interval

import (
	"sync"
	"sync/atomic"
)

// SearchCache memoises BestMap scan state across the probes of the
// Algorithm 6/7 insert-count search. Every probe pos approximates the same
// batch against the signal X₀‖candidates[:pos] — all sharing the stored
// pool prefix X₀ — and probes never mutate X₀ or the candidate list, they
// only change how much of the candidate tail is visible. A fit evaluated
// at shift s therefore depends only on X values below s+Length, which are
// identical for every probe that can see the shift at all: scan work done
// once is valid forever within the search.
//
// The cache keys state by (Start, Length) and keeps, per interval, the
// ramp fall-back fit plus the running-minima improvements of the shift
// scan. A probe that revisits an interval answers "best shift in my
// visible range" from the improvements list and only scans the shifts
// beyond the furthest previously covered one — the candidate tail.
//
// All methods are safe for concurrent use (GetIntervals' helper maps one
// sibling interval while the caller maps the other); entries are locked
// individually.
type SearchCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*scanEntry

	hits       atomic.Int64 // BestMap calls served from an existing entry
	misses     atomic.Int64 // BestMap calls that created their entry
	tailShifts atomic.Int64 // shifts scanned beyond an entry's prior coverage
}

type cacheKey struct{ start, length int }

// scanEntry is the memoised scan state of one (Start, Length) interval.
type scanEntry struct {
	mu        sync.Mutex
	rampKnown bool
	ramp      shiftFit
	scanned   int        // shifts [0, scanned) are covered by mins
	mins      []shiftFit // running minima of the scan, ascending shift
}

// NewSearchCache creates an empty cache for one insert-count search.
func NewSearchCache() *SearchCache {
	return &SearchCache{entries: make(map[cacheKey]*scanEntry)}
}

// entry returns the scan state for (start, length), creating it if absent
// and counting the hit or miss.
func (c *SearchCache) entry(start, length int) *scanEntry {
	key := cacheKey{start, length}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &scanEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e
}

// Stats returns the accumulated counters: entry hits and misses, and the
// total number of tail shifts scanned incrementally on top of cached
// coverage. Safe on a nil cache (all zeros).
func (c *SearchCache) Stats() (hits, misses, tailShifts int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.tailShifts.Load()
}
