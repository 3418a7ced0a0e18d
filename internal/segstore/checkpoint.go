package segstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/core"
)

// SensorCheckpoint is one sensor's slice of a station checkpoint: the
// decoder replica state after the last covered chunk and the receive-path
// bookkeeping a restart must resume with. It holds nothing per chunk, so
// a checkpoint's size depends on the sensor count, not on history length;
// the per-chunk facts come back from the segment footers (Recovery).
type SensorCheckpoint struct {
	// Chunks is the coverage: the checkpoint reflects chunks [0, Chunks).
	// Recovery replays archived records from this index on.
	Chunks int
	// N and M are the chunk shape (quantities × samples per chunk).
	N int
	M int
	// Decoder resumes the live replica (W, next seq, pool slots).
	Decoder core.DecoderState
	// Receive-path counters and duplicate-detection state.
	Frames   int
	Bytes    int
	Values   int
	Restarts int
	NextSeq  int
	SrcNonce uint64
	ZeroSum  uint64
}

// Checkpoint is a durable snapshot of station state. Loading one, with the
// per-chunk facts of the archived chunks it covers, and replaying the
// archived tail (chunks >= each sensor's Chunks) reproduces the station
// exactly; without one, recovery falls back to replaying the whole archive.
type Checkpoint struct {
	Unix    int64
	Sensors map[string]*SensorCheckpoint
}

// A checkpoint file is a magic preamble and one CRC32C-framed block:
//
//	file    := magic₈ block
//	payload := unix₈ sensors₄ sensor*
//	sensor  := id-len₂ id chunks₈ n₄ m₄ frames₈ bytes₈ values₈ restarts₈
//	           next-seq₈ nonce₈ zero-sum₈ decoder-state
//
// with the segment header's decoder-state encoding, sensors in id order.
var ckptMagic = [8]byte{'S', 'B', 'R', 'C', 'K', 'P', '1', 0}

// ckptSensorMin is the smallest encoding of one sensor: an empty id and a
// decoder state with no slots.
const ckptSensorMin = 2 + 8 + 4 + 4 + 7*8 + 4 + 8 + 4

const checkpointPrefix = "ckpt-"
const checkpointExt = ".bin"
const checkpointKeep = 2

func checkpointName(seq int64) string {
	return fmt.Sprintf("%s%016d%s", checkpointPrefix, seq, checkpointExt)
}

// encodeCheckpoint serialises ck as a whole checkpoint file.
func encodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	ids := make([]string, 0, len(ck.Sensors))
	for id := range ck.Sensors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	p := le.AppendUint64(nil, uint64(ck.Unix))
	p = le.AppendUint32(p, uint32(len(ids)))
	for _, id := range ids {
		sc := ck.Sensors[id]
		var err error
		if p, err = appendID(p, id); err != nil {
			return nil, err
		}
		p = le.AppendUint64(p, uint64(sc.Chunks))
		p = le.AppendUint32(p, uint32(sc.N))
		p = le.AppendUint32(p, uint32(sc.M))
		for _, v := range []int{sc.Frames, sc.Bytes, sc.Values, sc.Restarts, sc.NextSeq} {
			p = le.AppendUint64(p, uint64(v))
		}
		p = le.AppendUint64(p, sc.SrcNonce)
		p = le.AppendUint64(p, sc.ZeroSum)
		p = appendDecoderState(p, sc.Decoder)
	}
	return blocklog.Append(append([]byte(nil), ckptMagic[:]...), p), nil
}

// decodeCheckpoint parses a whole checkpoint file: magic, then exactly one
// block whose checksum holds.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(data, ckptMagic[:]) {
		return nil, fmt.Errorf("segstore: bad checkpoint magic")
	}
	body := bytes.NewReader(data[len(ckptMagic):])
	payload, err := blocklog.Read(body, body.Size())
	if err != nil || body.Len() != 0 {
		return nil, fmt.Errorf("segstore: checkpoint block torn or trailed")
	}
	return parseCheckpoint(payload)
}

// parseCheckpoint decodes a checkpoint block payload. The sensor count is
// checked against the bytes that remain before the map is allocated.
func parseCheckpoint(payload []byte) (*Checkpoint, error) {
	r := fields{b: payload}
	ck := &Checkpoint{Unix: int64(r.u64())}
	n := r.u32()
	if r.err == nil && n > len(r.b)/ckptSensorMin {
		return nil, fmt.Errorf("segstore: checkpoint of %d sensors holds %d bytes", n, len(r.b))
	}
	ck.Sensors = make(map[string]*SensorCheckpoint, n)
	for i := 0; i < n && r.err == nil; i++ {
		id := r.id()
		sc := &SensorCheckpoint{Chunks: r.int(), N: r.u32(), M: r.u32(),
			Frames: r.int(), Bytes: r.int(), Values: r.int(), Restarts: r.int(), NextSeq: r.int(),
			SrcNonce: r.u64(), ZeroSum: r.u64()}
		sc.Decoder = r.decoderState()
		if _, dup := ck.Sensors[id]; dup && r.err == nil {
			return nil, fmt.Errorf("segstore: checkpoint names sensor %q twice", id)
		}
		ck.Sensors[id] = sc
	}
	if err := r.done("checkpoint"); err != nil {
		return nil, err
	}
	return ck, nil
}

// WriteCheckpoint durably installs ck as the newest checkpoint (atomic
// rename) and prunes all but the newest checkpointKeep files — the
// previous one survives as the fallback if the newest is destroyed
// mid-write by a crash.
func (s *Store) WriteCheckpoint(ck *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segstore: store is closed")
	}
	if ck.Unix == 0 {
		ck.Unix = time.Now().Unix()
	}
	data, err := encodeCheckpoint(ck)
	if err != nil {
		return fmt.Errorf("segstore: encoding checkpoint: %w", err)
	}
	seq := s.ckptSeq + 1
	if err := blocklog.Install(filepath.Join(s.dir, checkpointName(seq)), data, !s.opts.NoSync); err != nil {
		return fmt.Errorf("segstore: checkpoint: %w", err)
	}
	s.noteCheckpointLocked(ck, seq)
	s.pruneCheckpoints(seq)
	s.updateCheckpointAgeLocked()
	return nil
}

// noteCheckpointLocked makes ck, installed as seq, the checkpoint that
// retention's coverage rule and the age gauge follow. Caller holds s.mu.
func (s *Store) noteCheckpointLocked(ck *Checkpoint, seq int64) {
	s.ckptSeq = seq
	s.ckptUnix = ck.Unix
	s.ckptCover = make(map[string]int, len(ck.Sensors))
	for id, sc := range ck.Sensors {
		s.ckptCover[id] = sc.Chunks
	}
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
		if e.IsDir() || !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointExt) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointExt)
		seq, err := strconv.ParseInt(seqStr, 10, 64)
		if err != nil {
			continue
		}
		out[seq] = name
	}
	return out
}

// refuseOldCheckpoints fails when dir holds checkpoints of the earlier
// JSON format. The segments beside them do not scan either, and failing
// before anything is read leaves the directory exactly as it was.
func refuseOldCheckpoints(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segstore: reading data dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, checkpointPrefix) && strings.HasSuffix(name, ".json") {
			return fmt.Errorf("segstore: checkpoint %s: %w", name, errOldFormat)
		}
	}
	return nil
}

// loadLatestCheckpoint scans checkpoint files newest-first and returns the
// first that decodes — a newest one that fails its checksum (a crash
// mid-rename cannot produce that, but a corrupt disk can) falls back to
// the one before — or nil when none does. Open calls it once.
func (s *Store) loadLatestCheckpoint() (*Checkpoint, int64) {
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
		if ck, err := decodeCheckpoint(data); err == nil {
			return ck, seq
		}
	}
	return nil, 0
}

// CheckpointCoverage reports the chunk count the latest checkpoint covers
// for one sensor (zero when none does).
func (s *Store) CheckpointCoverage(sensor string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptCover[sensor]
}
