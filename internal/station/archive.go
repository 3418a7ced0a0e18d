package station

import (
	"errors"
	"fmt"

	"sbr/internal/core"
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

// Checkpoint snapshots the station — per sensor: decoder replica state,
// aggregate-index leaves, error bounds and receive bookkeeping — and
// durably installs it in the archive. Each sensor's slice is captured
// under that sensor's own lock (so per-sensor state is internally
// consistent); no lock is held across sensors or during the write, which
// keeps the checkpoint fsync entirely off the receive and query paths. A
// sensor absorbing frames mid-walk is simply captured at whichever chunk
// count the lock observed — recovery replays anything past it.
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
		sc := &segstore.SensorCheckpoint{
			Chunks:   log.totalChunks(),
			N:        log.n,
			M:        log.m,
			Decoder:  log.decoder.State(),
			Bounds:   append([]float64(nil), log.bounds...),
			Frames:   log.frames,
			Bytes:    log.bytes,
			Values:   log.values,
			Inserts:  append([]int(nil), log.inserts...),
			Restarts: log.restarts,
			NextSeq:  log.nextSeq,
			SrcNonce: log.srcNonce,
			ZeroSum:  log.zeroSum,
		}
		sc.IndexLeaves = make([][]query.Summary, log.n)
		for row := 0; row < log.n; row++ {
			sc.IndexLeaves[row] = log.index.RowLeaves(row)
		}
		ck.Sensors[id] = sc
	})
	return store.WriteCheckpoint(ck)
}

// RecoverStats summarises a recovery pass over the archive.
type RecoverStats struct {
	FromCheckpoint bool // a checkpoint was loaded (false: full archive replay)
	Sensors        int  // sensors recovered
	Replayed       int  // tail frames replayed through the receive path
}

// Recover rebuilds the station from the attached archive: load the newest
// checkpoint (decoder replicas and aggregate indexes come back without
// decoding anything), then replay only the archived records past each
// sensor's checkpoint coverage through the normal receive path. Without a
// checkpoint it degrades to replaying the whole archive. Call once, before
// serving traffic, with the archive already attached. The torn segment
// tails the archive truncated when it was opened are counted here, with
// the replayed frames, in the station's crash-recovery telemetry.
func (s *Station) Recover() (RecoverStats, error) {
	var st RecoverStats
	store, _ := s.archiveBinding()
	if store == nil {
		return st, errors.New("station: no archive attached")
	}
	ck, err := store.LoadCheckpoint()
	if err != nil && !errors.Is(err, segstore.ErrNoCheckpoint) {
		return st, err
	}
	cover := make(map[string]int)
	if ck != nil {
		st.FromCheckpoint = true
		for id, sc := range ck.Sensors {
			log, rerr := s.restoreSensor(sc)
			if rerr != nil {
				return st, fmt.Errorf("station: restoring sensor %q: %w", id, rerr)
			}
			s.installLog(id, log)
			cover[id] = sc.Chunks
		}
	}

	for _, id := range store.Sensors() {
		id := id
		err := store.ReplayFrom(id, cover[id], func(chunk int, frame []byte) error {
			t, derr := wire.DecodeBytes(frame)
			if derr != nil {
				return fmt.Errorf("station: replaying sensor %q chunk %d: %w", id, chunk, derr)
			}
			rerr := s.receive(id, t, frame, len(frame), 0, fingerprint(frame), true, nil)
			if rerr != nil {
				if errors.Is(rerr, ErrDuplicate) {
					return nil
				}
				return fmt.Errorf("station: replaying sensor %q chunk %d: %w", id, chunk, rerr)
			}
			st.Replayed++
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	st.Sensors = int(s.nsensors.Load())
	met := s.metrics()
	met.replayed.Add(uint64(st.Replayed))
	met.tornTails.Add(uint64(store.StoreStats().TornTails))
	return st, nil
}

// installLog publishes a restored sensor log in the directory.
func (s *Station) installLog(id string, l *sensorLog) {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.sensors[id]; !ok {
		s.nsensors.Add(1)
	}
	sh.sensors[id] = l
	sh.mu.Unlock()
}

// restoreSensor rebuilds one sensor's log from its checkpoint slice.
func (s *Station) restoreSensor(sc *segstore.SensorCheckpoint) (*sensorLog, error) {
	dec, err := core.NewDecoderAt(s.cfg, sc.Decoder)
	if err != nil {
		return nil, err
	}
	log := &sensorLog{
		decoder:  dec,
		n:        sc.N,
		m:        sc.M,
		first:    sc.Chunks,
		archived: sc.Chunks,
		bounds:   append([]float64(nil), sc.Bounds...),
		frames:   sc.Frames,
		bytes:    sc.Bytes,
		values:   sc.Values,
		inserts:  append([]int(nil), sc.Inserts...),
		restarts: sc.Restarts,
		nextSeq:  sc.NextSeq,
		srcNonce: sc.SrcNonce,
		zeroSum:  sc.ZeroSum,
	}
	if sc.Chunks > 0 {
		ix, err := query.NewIndexFromLeaves(sc.N, sc.M, sc.IndexLeaves)
		if err != nil {
			return nil, err
		}
		met := s.metrics()
		ix.Instrument(met.queryQueries, met.queryNodes)
		log.index = ix
	}
	return log, nil
}
