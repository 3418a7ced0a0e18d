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
// append), the in-memory history becomes a bounded window with cold reads
// falling through to the archive, and recovery becomes checkpoint-load
// plus a bounded tail replay of the records archived since.

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

// Checkpoint snapshots the station — per sensor: decoder replica state and
// receive bookkeeping, nothing per chunk — and durably installs it in the
// archive. Each sensor's slice is captured under that sensor's own lock
// (so per-sensor state is internally consistent); no lock is held across
// sensors or during the write, which keeps the checkpoint fsync entirely
// off the receive and query paths. A sensor absorbing frames mid-walk is
// simply captured at whichever chunk count the lock observed — recovery
// replays anything past it.
func (s *Station) Checkpoint() error {
	store, _ := s.archiveBinding()
	if store == nil {
		return errors.New("station: no archive attached")
	}
	ck := &segstore.Checkpoint{Sensors: make(map[string]*segstore.SensorCheckpoint)}
	s.forEachLog(func(id string, log *sensorLog) {
		log.mu.Lock()
		defer log.mu.Unlock()
		if log.frames == 0 || log.index == nil {
			return
		}
		ck.Sensors[id] = &segstore.SensorCheckpoint{
			Chunks:   log.totalChunks(),
			N:        log.n,
			M:        log.m,
			Decoder:  log.decoder.State(),
			Frames:   log.frames,
			Bytes:    log.bytes,
			Values:   log.values,
			Restarts: log.restarts,
			NextSeq:  log.nextSeq,
			SrcNonce: log.srcNonce,
			ZeroSum:  log.zeroSum,
		}
	})
	return store.WriteCheckpoint(ck)
}

// RecoverStats summarises a recovery pass over the archive.
type RecoverStats struct {
	FromCheckpoint bool // a checkpoint was loaded (false: full archive replay)
	Sensors        int  // sensors recovered
	Replayed       int  // tail frames replayed through the receive path
	// Duration is how long Recover took, and Workers how many goroutines
	// restored and replayed the sensors (GOMAXPROCS when Recover ran).
	Duration time.Duration
	Workers  int
}

// Recover rebuilds the station from the attached archive. It takes what
// the archive's Open read back — the newest checkpoint and the facts of
// every chunk it covers, decoded from the segment footers into the columns
// a sensor keeps — and restores each checkpointed sensor from them without
// decoding a frame: decoder replica and receive bookkeeping from the
// checkpoint, error bounds, insert counts and the aggregate index from the
// facts, starting at the purge watermark. It then replays only the
// archived records past each sensor's checkpoint coverage through the
// normal receive path. Without a checkpoint it degrades to replaying the
// whole archive. Sensors are independent, so each one's restore and
// replay is one task on a pool as wide as GOMAXPROCS; the first failure
// in sensor ID order is returned, a restore's before any replay's. Call
// once, before serving traffic, with the archive already attached. The
// torn segment tails the archive truncated when it was opened are counted
// here, with the replayed frames, in the station's crash-recovery
// telemetry.
func (s *Station) Recover() (RecoverStats, error) {
	start := time.Now()
	st := RecoverStats{Workers: runtime.GOMAXPROCS(0)}
	store, _ := s.archiveBinding()
	if store == nil {
		return st, errors.New("station: no archive attached")
	}
	rec := store.TakeRecovery()
	var ckpts map[string]*segstore.SensorCheckpoint
	if rec.Checkpoint != nil {
		st.FromCheckpoint = true
		ckpts = rec.Checkpoint.Sensors
	}
	ids := store.Sensors()
	archived := make(map[string]bool, len(ids))
	for _, id := range ids {
		archived[id] = true
	}
	for id := range ckpts {
		if !archived[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	tasks := make([]recoverTask, len(ids))
	fanout.Run(len(ids), st.Workers, func(_, i int) {
		id := ids[i]
		tasks[i] = s.recoverSensor(store, id, ckpts[id], rec.Facts[id], archived[id])
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

// recoverSensor recovers one sensor: it restores it from its checkpoint
// slice sc (nil: none) and facts, then, when the archive holds it,
// replays the archived records past the checkpoint's coverage through the
// receive path.
func (s *Station) recoverSensor(store *segstore.Store, id string, sc *segstore.SensorCheckpoint, facts *segstore.SensorFacts, archived bool) (t recoverTask) {
	cover := 0
	if sc != nil {
		log, err := s.restoreSensor(sc, facts)
		if err != nil {
			t.restoreErr = fmt.Errorf("station: restoring sensor %q: %w", id, err)
			return t
		}
		s.installLog(id, log)
		cover = sc.Chunks
	}
	if !archived {
		return t
	}
	t.replayErr = store.ReplayFrom(id, cover, func(chunk int, frame []byte) error {
		tr, derr := wire.DecodeBytes(frame)
		if derr != nil {
			return fmt.Errorf("station: replaying sensor %q chunk %d: %w", id, chunk, derr)
		}
		rerr := s.receive(id, tr, frame, len(frame), 0, fingerprint(frame), true, nil)
		if rerr != nil {
			if errors.Is(rerr, ErrDuplicate) {
				return nil
			}
			return fmt.Errorf("station: replaying sensor %q chunk %d: %w", id, chunk, rerr)
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

// restoreSensor rebuilds one sensor's log from its checkpoint slice and
// the facts of its archived chunks, adopting the facts' columns as the
// log's bounds, insert counts and index leaves without copying them. The
// chunks below the purge watermark are gone from every structure: bounds,
// insert counts and the index start at facts.First, which every read
// checks before it looks.
//
// A sensor checkpointed while degraded covers chunks its archive never
// took; they lived in memory only and died with the process. It comes
// back degraded, as it left, with its decoder replica where the
// checkpoint put it — so the sensor's next frame still decodes — and
// those chunks lost: chunks [archived, first), whose bounds, insert
// counts and index leaves are zero padding that no read reaches.
func (s *Station) restoreSensor(sc *segstore.SensorCheckpoint, facts *segstore.SensorFacts) (*sensorLog, error) {
	dec, err := core.NewDecoderAt(s.cfg, sc.Decoder)
	if err != nil {
		return nil, err
	}
	if sc.Chunks < facts.First {
		return nil, fmt.Errorf("checkpoint covers chunks [0,%d), below the purge watermark %d",
			sc.Chunks, facts.First)
	}
	log := &sensorLog{
		decoder:  dec,
		n:        sc.N,
		m:        sc.M,
		base:     facts.First,
		first:    sc.Chunks,
		archived: facts.Archived,
		archDown: facts.Archived < sc.Chunks,
		bounds:   facts.Bounds,
		inserts:  facts.Inserts,
		frames:   sc.Frames,
		bytes:    sc.Bytes,
		values:   sc.Values,
		restarts: sc.Restarts,
		nextSeq:  sc.NextSeq,
		srcNonce: sc.SrcNonce,
		zeroSum:  sc.ZeroSum,
	}
	if sc.Chunks == 0 {
		return log, nil
	}
	ix, err := query.NewIndexFromLeaves(sc.N, sc.M, facts.Leaves)
	if err != nil {
		return nil, err
	}
	met := s.metrics()
	ix.Instrument(met.queryQueries, met.queryNodes)
	log.index = ix
	if log.archDown {
		s.degraded.Add(1)
		met.degradedSensors.Add(1)
	}
	return log, nil
}
