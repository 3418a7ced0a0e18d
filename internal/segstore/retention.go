package segstore

import (
	"fmt"
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
//   - segments holding chunks at or beyond the latest checkpoint's
//     coverage are never removed — recovery's tail replay needs them;
//   - the manifest forgetting a segment is made durable before the file
//     is deleted, so a crash in between leaves only a sweepable leftover.
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
			for _, sm := range ss.sealed {
				if sm.MaxUnix >= cutoff || !s.removableLocked(id, sm) {
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
				if n >= len(ss.sealed) {
					continue
				}
				sm := ss.sealed[n]
				if !s.removableLocked(id, sm) {
					continue
				}
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

	var victims []segMeta
	for id, n := range drop {
		if n == 0 {
			continue
		}
		ss := s.sensors[id]
		victims = append(victims, ss.sealed[:n]...)
		ss.purged = ss.sealed[n-1].LastChunk + 1
		ss.sealed = append([]segMeta(nil), ss.sealed[n:]...)
		s.cache.dropSensor(id)
	}
	if len(victims) == 0 {
		return 0, nil
	}
	s.publishWatermarksLocked()
	// Durable forget first, then delete; leftovers from a crash in between
	// are swept at the next Open.
	if err := s.writeManifest(); err != nil {
		return 0, err
	}
	for _, sm := range victims {
		if err := os.Remove(filepath.Join(s.dir, filepath.FromSlash(sm.File))); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("segstore: removing expired segment: %w", err)
		}
	}
	s.met.compactions.Inc()
	s.updateGauges()
	return len(victims), nil
}

// removableLocked reports whether retention may drop sm: it must hold
// nothing the latest checkpoint's tail replay still needs. A sensor with
// no checkpoint coverage keeps everything.
func (s *Store) removableLocked(sensor string, sm segMeta) bool {
	cover, ok := s.ckptCover[sensor]
	if !ok {
		return false
	}
	return sm.LastChunk < cover
}
