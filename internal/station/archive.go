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
}

// Recover rebuilds the station from the attached archive. It takes what
// the archive's Open read back — the newest checkpoint and every archived
// chunk's facts from the segment footers — and restores each checkpointed
// sensor from them without decoding a frame: decoder replica and receive
// bookkeeping from the checkpoint, error bounds, insert counts and the
// aggregate index from the facts, starting at the purge watermark. It then
// replays only the archived records past each sensor's checkpoint coverage
// through the normal receive path. Without a checkpoint it degrades to
// replaying the whole archive. Call once, before serving traffic, with the
// archive already attached. The torn segment tails the archive truncated
// when it was opened are counted here, with the replayed frames, in the
// station's crash-recovery telemetry.
func (s *Station) Recover() (RecoverStats, error) {
	var st RecoverStats
	store, _ := s.archiveBinding()
	if store == nil {
		return st, errors.New("station: no archive attached")
	}
	rec := store.TakeRecovery()
	cover := make(map[string]int)
	if ck := rec.Checkpoint; ck != nil {
		st.FromCheckpoint = true
		for id, sc := range ck.Sensors {
			log, rerr := s.restoreSensor(sc, rec.Facts[id])
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

// installLog publishes a restored sensor log in the directory and counts
// it in the sensors gauge, as an accepted transmission would.
func (s *Station) installLog(id string, l *sensorLog) {
	sh := s.shard(id)
	sh.mu.Lock()
	if _, ok := sh.sensors[id]; !ok {
		s.nsensors.Add(1)
	}
	sh.sensors[id] = l
	sh.mu.Unlock()
	s.metrics().sensors.Set(float64(s.nsensors.Load()))
}

// restoreSensor rebuilds one sensor's log from its checkpoint slice and
// the facts of its archived chunks. The chunks below the purge watermark
// are gone from every structure: bounds, insert counts and the index
// start at facts.First, which every read checks before it looks.
//
// A sensor checkpointed while degraded covers chunks its archive never
// took; they lived in memory only and died with the process. It comes
// back degraded, as it left, with its decoder replica where the
// checkpoint put it — so the sensor's next frame still decodes — and
// those chunks lost: chunks [archived, first), whose bounds, insert
// counts and index leaves are zero padding that no read reaches.
func (s *Station) restoreSensor(sc *segstore.SensorCheckpoint, facts segstore.SensorFacts) (*sensorLog, error) {
	dec, err := core.NewDecoderAt(s.cfg, sc.Decoder)
	if err != nil {
		return nil, err
	}
	held := sc.Chunks - facts.First
	if held < 0 {
		return nil, fmt.Errorf("checkpoint covers chunks [0,%d), below the purge watermark %d",
			sc.Chunks, facts.First)
	}
	archived := min(sc.Chunks, facts.First+len(facts.Chunks))
	log := &sensorLog{
		decoder:  dec,
		n:        sc.N,
		m:        sc.M,
		base:     facts.First,
		first:    sc.Chunks,
		archived: archived,
		archDown: archived < sc.Chunks,
		bounds:   make([]float64, held),
		inserts:  make([]int, held),
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
	leaves := make([][]query.Summary, sc.N)
	for row := range leaves {
		leaves[row] = make([]query.Summary, held)
	}
	for i, f := range facts.Chunks[:archived-facts.First] {
		if len(f.Rows) != sc.N {
			return nil, fmt.Errorf("chunk %d has %d row summaries, want %d", facts.First+i, len(f.Rows), sc.N)
		}
		log.bounds[i] = f.Bound
		log.inserts[i] = f.Inserts
		for row, rs := range f.Rows {
			leaves[row][i] = query.Leaf(sc.M, rs.Sum, rs.Min, rs.Max, f.Bound)
		}
	}
	ix, err := query.NewIndexFromLeaves(sc.N, sc.M, leaves)
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
