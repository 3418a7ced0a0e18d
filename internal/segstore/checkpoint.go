package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/core"
	"sbr/internal/query"
)

// SensorCheckpoint is one sensor's slice of a station checkpoint: the
// decoder replica state after the last covered chunk, the aggregate-index
// leaves, and the receive-path bookkeeping a restart must resume with.
type SensorCheckpoint struct {
	// Chunks is the coverage: the checkpoint reflects chunks [0, Chunks).
	// Recovery replays archived records from this index on.
	Chunks int `json:"chunks"`
	// N and M are the chunk shape (quantities × samples per chunk).
	N int `json:"n"`
	M int `json:"m"`
	// Decoder resumes the live replica (W, next seq, pool slots).
	Decoder core.DecoderState `json:"decoder"`
	// IndexLeaves[i] is quantity i's per-chunk summaries in chunk order;
	// the aggregate index is rebuilt from them without decoding anything.
	IndexLeaves [][]query.Summary `json:"index_leaves"`
	// Bounds is the per-chunk §4.5 error bound, aligned with chunk index.
	Bounds []float64 `json:"bounds"`
	// Receive-path counters and duplicate-detection state.
	Frames   int    `json:"frames"`
	Bytes    int    `json:"bytes"`
	Values   int    `json:"values"`
	Inserts  []int  `json:"inserts"`
	Restarts int    `json:"restarts"`
	NextSeq  int    `json:"next_seq"`
	SrcNonce uint64 `json:"src_nonce,omitempty"`
	ZeroSum  uint64 `json:"zero_sum,omitempty"`
}

// Checkpoint is a durable snapshot of station state. Loading one and
// replaying the archived tail (chunks >= each sensor's Chunks) reproduces
// the station exactly; without one, recovery falls back to replaying the
// whole archive.
type Checkpoint struct {
	Version int                          `json:"version"`
	Unix    int64                        `json:"unix"`
	Sensors map[string]*SensorCheckpoint `json:"sensors"`
}

const checkpointVersion = 1
const checkpointPrefix = "ckpt-"
const checkpointKeep = 2

// ErrNoCheckpoint reports that the store holds no loadable checkpoint.
var ErrNoCheckpoint = errors.New("segstore: no checkpoint")

func checkpointName(seq int64) string {
	return fmt.Sprintf("%s%016d.json", checkpointPrefix, seq)
}

// WriteCheckpoint durably installs ck as the newest checkpoint (atomic
// rename, like the manifest) and prunes all but the newest checkpointKeep
// files — the previous one survives as the fallback if the newest is
// destroyed mid-write by a crash.
func (s *Store) WriteCheckpoint(ck *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	ck.Version = checkpointVersion
	if ck.Unix == 0 {
		ck.Unix = time.Now().Unix()
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("segstore: encoding checkpoint: %w", err)
	}
	seq := s.ckptSeq + 1
	if err := blocklog.Install(filepath.Join(s.dir, checkpointName(seq)), data, !s.opts.NoSync); err != nil {
		return fmt.Errorf("segstore: checkpoint: %w", err)
	}
	s.ckptSeq = seq
	s.ckptUnix = ck.Unix
	s.ckptCover = make(map[string]int, len(ck.Sensors))
	for id, sc := range ck.Sensors {
		s.ckptCover[id] = sc.Chunks
	}
	s.pruneCheckpoints(seq)
	s.updateCheckpointAgeLocked()
	return nil
}

// pruneCheckpoints removes checkpoint files older than the newest
// checkpointKeep. Failures are ignored: a leftover file costs bytes, not
// correctness.
func (s *Store) pruneCheckpoints(newest int64) {
	for seq, name := range s.checkpointFiles() {
		if seq <= newest-checkpointKeep {
			os.Remove(filepath.Join(s.dir, name)) //nolint:errcheck
		}
	}
}

// checkpointFiles lists the on-disk checkpoints as seq → filename.
func (s *Store) checkpointFiles() map[int64]string {
	out := make(map[int64]string)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, ".json") {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), ".json")
		seq, err := strconv.ParseInt(seqStr, 10, 64)
		if err != nil {
			continue
		}
		out[seq] = name
	}
	return out
}

// LoadCheckpoint returns the newest loadable checkpoint, falling back to
// older ones when the newest is unparsable (a crash mid-rename cannot
// produce that, but a corrupt disk can), or ErrNoCheckpoint.
func (s *Store) LoadCheckpoint() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, seq, err := s.loadLatestCheckpoint()
	if err != nil {
		return nil, err
	}
	if ck == nil {
		return nil, ErrNoCheckpoint
	}
	if seq > s.ckptSeq {
		s.ckptSeq = seq
		s.ckptUnix = ck.Unix
		s.ckptCover = make(map[string]int, len(ck.Sensors))
		for id, sc := range ck.Sensors {
			s.ckptCover[id] = sc.Chunks
		}
	}
	return ck, nil
}

// loadLatestCheckpoint scans checkpoint files newest-first and returns the
// first that parses. (nil, 0, nil) means none exist; unreadable files are
// skipped, not fatal. Caller holds s.mu.
func (s *Store) loadLatestCheckpoint() (*Checkpoint, int64, error) {
	files := s.checkpointFiles()
	seqs := make([]int64, 0, len(files))
	for seq := range files {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(s.dir, files[seq]))
		if err != nil {
			continue
		}
		var ck Checkpoint
		if err := json.Unmarshal(data, &ck); err != nil || ck.Version != checkpointVersion {
			continue
		}
		return &ck, seq, nil
	}
	return nil, 0, nil
}

// CheckpointCoverage reports the chunk count the latest checkpoint covers
// for one sensor (zero when none does).
func (s *Store) CheckpointCoverage(sensor string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptCover[sensor]
}
