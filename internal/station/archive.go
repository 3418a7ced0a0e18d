package station

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sbr/internal/core"
	"sbr/internal/fanout"
	"sbr/internal/query"
	"sbr/internal/segstore"
	"sbr/internal/wire"
)

// This file attaches the persistent segment store to the station: every
// accepted transmission is archived synchronously (receive does the
// append, before it acknowledges anything), the in-memory history becomes
// a bounded window with cold reads falling through to the archive, and a
// restart resumes each sensor from its newest segment file's header and
// replays only that file's records.

// SetArchive attaches store as the station's durable archive and bounds
// the per-sensor in-memory window to memChunks chunks (0: unbounded, no
// eviction). Attach before traffic arrives and before Recover.
func (s *Station) SetArchive(store *segstore.Store, memChunks int) {
	s.arch.Store(&archiveRef{store: store, memChunks: memChunks})
	s.forEachLog(func(_ string, l *sensorLog) {
		l.mu.Lock()
		l.view.Store(nil) // cached views bake the archive binding
		l.mu.Unlock()
	})
}

// Archive returns the attached segment store (nil when none is).
func (s *Station) Archive() *segstore.Store {
	store, _ := s.archiveBinding()
	return store
}

// Checkpoint makes every sensor's newest segment file its restart point
// as it stands now: under each sensor's own lock, the archive seals the
// sensor's active segment when that holds records and starts the next file
// with only a header, holding the sensor's decoder replica and receive
// bookkeeping, durable before the sensor's lock is released (segstore's
// Roll). A restart after it replays nothing. A sensor whose newest file
// holds only a header is skipped, and so is one whose archive append
// failed: it refuses frames until the station restarts, and its newest
// file is where that restart resumes it. A sensor whose roll fails turns
// degraded as a failed append would. No station lock is held across
// sensors; the store's lock is held across each roll's writes and fsyncs,
// as across an append's.
func (s *Station) Checkpoint() error {
	store, _ := s.archiveBinding()
	if store == nil {
		return errors.New("station: no archive attached")
	}
	var errs []error
	s.forEachLog(func(id string, log *sensorLog) {
		log.mu.Lock()
		defer log.mu.Unlock()
		if log.frames == 0 || log.archDown {
			return
		}
		if err := store.Roll(id, log.n, log.m, log.state(log.decoder)); err != nil {
			s.degrade(log)
			errs = append(errs, fmt.Errorf("station: rolling sensor %q: %w", id, err))
		}
	})
	return errors.Join(errs...)
}

// RecoverStats summarises a recovery pass over the archive.
type RecoverStats struct {
	Sensors  int // sensors recovered
	Replayed int // frames of the newest segment files replayed through the receive path
	// Duration is how long Recover took, and Workers how many goroutines
	// restored and replayed the sensors (GOMAXPROCS when Recover ran).
	Duration time.Duration
	Workers  int
}

// Recover rebuilds the station from the attached archive. It takes each
// sensor's restart point as the archive's Open read it back — the state
// the sensor's newest segment file's header records, and the facts of
// every chunk before that file, decoded from the older files' footers
// into the columns a sensor keeps — and restores the sensor from it
// without decoding a frame: decoder replica and receive bookkeeping from
// the header, error bounds, insert counts and the aggregate index from the
// facts, starting at the purge watermark. It then replays the newest
// file's records through the normal receive path: none after a
// Checkpoint, at most a segment's worth after a crash. Sensors are
// independent, so each one's restore and replay is one task on a pool as
// wide as GOMAXPROCS; the first failure in sensor ID order is returned, a
// restore's before any replay's. Call once, before serving traffic, with
// the archive already attached. The torn segment tails the archive
// truncated when it was opened are counted here, with the replayed frames,
// in the station's crash-recovery telemetry.
func (s *Station) Recover() (RecoverStats, error) {
	start := time.Now()
	st := RecoverStats{Workers: runtime.GOMAXPROCS(0)}
	store, _ := s.archiveBinding()
	if store == nil {
		return st, errors.New("station: no archive attached")
	}
	rec := store.TakeRecovery()
	ids := make([]string, 0, len(rec.Sensors))
	for id := range rec.Sensors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	tasks := make([]recoverTask, len(ids))
	fanout.Run(len(ids), st.Workers, func(_, i int) {
		tasks[i] = s.recoverSensor(store, ids[i], rec.Sensors[ids[i]])
	})
	for _, t := range tasks {
		if t.restoreErr != nil {
			return st, t.restoreErr
		}
	}
	for _, t := range tasks {
		if t.replayErr != nil {
			return st, t.replayErr
		}
		st.Replayed += t.replayed
	}
	st.Sensors = int(s.nsensors.Load())
	st.Duration = time.Since(start)
	met := s.metrics()
	// Set here, not per sensor: concurrent tasks would race to publish
	// the count each saw.
	met.sensors.Set(float64(st.Sensors))
	met.replayed.Add(uint64(st.Replayed))
	met.tornTails.Add(uint64(store.StoreStats().TornTails))
	met.recoverSeconds.Set(st.Duration.Seconds())
	return st, nil
}

// recoverTask is how one sensor's recovery ended.
type recoverTask struct {
	restoreErr error
	replayErr  error
	replayed   int
}

// recoverSensor recovers one sensor: it restores it from its restart
// point, then replays its newest file's records through the receive path.
func (s *Station) recoverSensor(store *segstore.Store, id string, sr *segstore.SensorRecovery) (t recoverTask) {
	log, err := s.restoreSensor(sr)
	if err != nil {
		t.restoreErr = fmt.Errorf("station: restoring sensor %q: %w", id, err)
		return t
	}
	s.installLog(id, log)
	t.replayErr = store.ReplayFrom(id, sr.Start(), func(chunk int, frame []byte) error {
		tr, err := wire.DecodeBytes(frame)
		if err == nil {
			err = s.receive(id, tr, frame, len(frame), 0, fingerprint(frame), true, nil)
		}
		if err != nil {
			return fmt.Errorf("station: replaying sensor %q chunk %d: %w", id, chunk, err)
		}
		t.replayed++
		return nil
	})
	return t
}

// installLog publishes a restored sensor log in the directory and counts
// it among the sensors heard from; Recover sets the sensors gauge once
// every sensor is in.
func (s *Station) installLog(id string, l *sensorLog) {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.sensors[id]; !ok {
		s.nsensors.Add(1)
	}
	sh.sensors[id] = l
	sh.mu.Unlock()
}

// restoreSensor rebuilds one sensor's log from its restart point, adopting
// the fact columns as the log's bounds, insert counts and index leaves
// without copying them. The chunks below the purge watermark are gone from
// every structure: bounds, insert counts and the index start at sr.First,
// which every read checks before it looks.
func (s *Station) restoreSensor(sr *segstore.SensorRecovery) (*sensorLog, error) {
	dec, err := core.NewDecoderAt(s.cfg, sr.State.Decoder)
	if err != nil {
		return nil, err
	}
	ix, err := query.NewIndexFromLeaves(sr.N, sr.M, sr.Leaves)
	if err != nil {
		return nil, err
	}
	met := s.metrics()
	ix.Instrument(met.queryQueries, met.queryNodes)
	return &sensorLog{
		decoder:  dec,
		n:        sr.N,
		m:        sr.M,
		base:     sr.First,
		first:    sr.Start(),
		bounds:   sr.Bounds,
		index:    ix,
		inserts:  sr.Inserts,
		frames:   sr.State.Frames,
		bytes:    sr.State.Bytes,
		values:   sr.State.Values,
		restarts: sr.State.Restarts,
		nextSeq:  sr.State.NextSeq,
		srcNonce: sr.State.SrcNonce,
		zeroSum:  sr.State.ZeroSum,
	}, nil
}
