package segstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// EnforceRetention applies the configured age and byte budgets, removing
// the oldest sealed segments first. Three rules keep it safe:
//
//   - only a contiguous prefix of a sensor's sealed segments is ever
//     removed, so the surviving archive has no holes (PurgedThrough is a
//     single watermark);
//   - a sensor's newest file is never removed: its header is the
//     sensor's restart point, and its records are what a restart replays;
//   - each sensor's victims are unlinked oldest first, each unlink made
//     durable before the next, so a crash mid-pass leaves files that
//     still tile: the victims not yet unlinked come back as history, and
//     the next pass drops them.
//
// It returns the number of segments removed.
func (s *Store) EnforceRetention(now time.Time) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("segstore: store is closed")
	}
	r := s.opts.Retention
	if r.MaxAge <= 0 && r.MaxBytes <= 0 {
		return 0, nil
	}

	drop := make(map[string]int) // sensor → sealed-prefix length to remove

	// Age: expire sealed prefixes whose newest record is out of window.
	if r.MaxAge > 0 {
		cutoff := now.Add(-r.MaxAge).Unix()
		for id, ss := range s.sensors {
			n := 0
			for _, sm := range ss.sealed[:ss.removable()] {
				if sm.MaxUnix >= cutoff {
					break
				}
				n++
			}
			drop[id] = n
		}
	}

	// Bytes: while over budget, drop the globally oldest still-removable
	// prefix head across sensors.
	if r.MaxBytes > 0 {
		total := int64(0)
		for _, ss := range s.sensors {
			for _, sm := range ss.sealed {
				total += sm.Bytes
			}
			if ss.active != nil {
				total += ss.active.size
			}
		}
		for id := range s.sensors {
			for _, sm := range s.sensors[id].sealed[:drop[id]] {
				total -= sm.Bytes
			}
		}
		for total > r.MaxBytes {
			oldest := ""
			var oldestUnix int64
			for id, ss := range s.sensors {
				n := drop[id]
				if n >= ss.removable() {
					continue
				}
				sm := ss.sealed[n]
				if oldest == "" || sm.MaxUnix < oldestUnix {
					oldest, oldestUnix = id, sm.MaxUnix
				}
			}
			if oldest == "" {
				break // nothing left that is safe to remove
			}
			total -= s.sensors[oldest].sealed[drop[oldest]].Bytes
			drop[oldest]++
		}
	}

	var removed int
	var err error
	for id, n := range drop {
		ss := s.sensors[id]
		for ; n > 0 && err == nil; n-- {
			sm := ss.sealed[0]
			err = os.Remove(filepath.Join(ss.dir, segName(sm.FirstChunk)))
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				err = fmt.Errorf("segstore: removing expired segment: %w", err)
				continue
			}
			ss.purged, ss.sealed = sm.LastChunk+1, ss.sealed[1:]
			removed++
			err = s.syncDir(ss.dir)
		}
	}
	if removed > 0 {
		s.publishWatermarksLocked()
		s.met.compactions.Inc()
		s.updateGauges()
	}
	return removed, err
}
