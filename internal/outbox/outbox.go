// Package outbox is the sensor-side write-ahead spill of the survivable
// uplink: every frame a reliable client intends to transmit is made
// durable here first, and acknowledged frames are retired, so a sensor
// process can die at any instant — mid-send, mid-ack, mid-compaction —
// and its successor replays exactly the frames the station has not
// acknowledged. Combined with the station's duplicate detection
// (retransmitted already-accepted frames are re-acked OK and never
// re-logged), the pair delivers every frame exactly once across sensor
// crashes, not just link faults.
//
// The on-disk format is the internal/blocklog framing segstore uses too:
// a magic preamble, then CRC32C-framed blocks
//
//	file   := magic₈ header-block record-block*
//
// where the first payload byte tags the kind — 'H' header (JSON: sensor
// identity), 'F' frame (uvarint sequence + raw wire frame), 'A' ack
// (uvarint sequence of the retired head frame). Frame appends are
// fsynced before Append returns: the durability point is *before* the
// first transmission. Ack records are appended without fsync — losing
// one to a crash only widens the replay set, and the station's dedup
// absorbs replayed frames for free.
//
// A crash mid-append leaves a torn tail; Open detects it by the framing
// and truncates back to the last whole block. Retired frames accumulate
// as dead weight at the front of the log; once enough have been acked
// the file is compacted — the pending suffix is rewritten to a temporary
// file, fsynced and atomically renamed over the log, so a crash during
// compaction leaves either the old file or the new one, never a mix.
package outbox

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"sbr/internal/blocklog"
	"sbr/internal/obs"
)

// obMagic opens every outbox file.
var obMagic = [8]byte{'S', 'B', 'R', 'O', 'B', 'X', '1', 0}

// Block kind tags (first payload byte).
const (
	blockHeader = 'H'
	blockFrame  = 'F'
	blockAck    = 'A'
	blockNonce  = 'N'
)

// DefaultCompactEvery is the retired-frame count that triggers a
// compaction when Options leaves it zero.
const DefaultCompactEvery = 64

// ErrClosed is returned by operations on a closed outbox.
var ErrClosed = errors.New("outbox: closed")

// ErrAckOrder reports an acknowledgement for a sequence that is not the
// head of the pending queue — the transport acks strictly in order, so
// anything else is a protocol violation worth surfacing.
var ErrAckOrder = errors.New("outbox: acknowledgement out of order")

// header is the header block payload (JSON after the kind tag).
type header struct {
	Sensor      string `json:"sensor"`
	CreatedUnix int64  `json:"created_unix"`

	// Nonce is the transport incarnation nonce of the client that owns
	// this outbox (0: not yet stamped). Persisting it means a restarted
	// sensor replays its pending frames as the SAME transport incarnation
	// — which is what lets the station classify a replayed seq-0 frame as
	// a retransmission rather than a reboot.
	Nonce uint64 `json:"nonce,omitempty"`
}

// Frame is one pending (unacknowledged) frame: the wire bytes and the
// sequence the transport acks it by.
type Frame struct {
	Seq   int
	Bytes []byte
}

// Metrics is the outbox telemetry. Build one with NewMetrics; every
// field is a nil-safe obs metric, so the zero value instruments nothing.
type Metrics struct {
	Appended    *obs.Counter // frames made durable
	Acked       *obs.Counter // frames retired by acknowledgement
	Replayed    *obs.Counter // pending frames recovered at open
	Compactions *obs.Counter // prefix compactions performed
	TornTails   *obs.Counter // torn or corrupt tails truncated at open
	Pending     *obs.Gauge   // frames currently pending
	Bytes       *obs.Gauge   // outbox file size
}

// NewMetrics registers the outbox metrics on reg (nil: no-op metrics).
// A process with several outboxes (one per simulated node) shares one
// Metrics: the counters aggregate and the gauges track the fleet total.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Appended:    reg.Counter("sbr_outbox_frames_appended_total", "Frames made durable in the sensor outbox before first transmit."),
		Acked:       reg.Counter("sbr_outbox_frames_acked_total", "Outbox frames retired by a station acknowledgement."),
		Replayed:    reg.Counter("sbr_outbox_frames_replayed_total", "Pending frames recovered from the outbox at open."),
		Compactions: reg.Counter("sbr_outbox_compactions_total", "Outbox prefix compactions performed."),
		TornTails:   reg.Counter("sbr_outbox_torn_tails_total", "Torn or corrupt outbox tails truncated at open."),
		Pending:     reg.Gauge("sbr_outbox_frames_pending", "Frames currently pending in sensor outboxes."),
		Bytes:       reg.Gauge("sbr_outbox_bytes", "Total bytes held by sensor outbox files."),
	}
}

// met returns m or an all-no-op Metrics so call sites skip nil checks.
func (m *Metrics) met() *Metrics {
	if m == nil {
		return &Metrics{}
	}
	return m
}

// Options configures Open. The zero value (plus a path) is usable.
type Options struct {
	// Sensor is the identity recorded in the header of a fresh outbox and
	// verified against an existing one: replaying another sensor's frames
	// would poison that sensor's history at the station.
	Sensor string

	// CompactEvery triggers a prefix compaction once this many frames have
	// been retired since the last one (0: DefaultCompactEvery, negative:
	// never compact automatically).
	CompactEvery int

	// Metrics receives the outbox telemetry (nil: uninstrumented).
	Metrics *Metrics
}

// Outbox is the durable pending-frame queue. Not safe for concurrent
// use: it lives under a ReliableClient, which owns a single radio.
type Outbox struct {
	path    string
	opt     Options
	met     *Metrics
	f       *os.File
	size    int64
	pending []Frame
	nonce   uint64 // persisted transport incarnation nonce (0: unstamped)
	retired int    // frames acked since the last compaction
	closed  bool

	// TornBytes reports how many tail bytes Open truncated (0: clean).
	TornBytes int64
}

// Open opens (creating if needed) the outbox file at path and recovers
// its pending queue: frames appended but not retired by a later ack
// record, in append order, with any torn tail truncated first.
func Open(path string, opt Options) (*Outbox, error) {
	if opt.CompactEvery == 0 {
		opt.CompactEvery = DefaultCompactEvery
	}
	o := &Outbox{path: path, opt: opt, met: opt.Metrics.met()}
	// A temporary file at the compaction name is a crash leftover: the
	// rename never happened, so the original is still the truth.
	os.Remove(path + ".tmp") //nolint:errcheck — best-effort sweep

	fi, err := os.Stat(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := o.create(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("outbox: %w", err)
	default:
		if err := o.recover(fi.Size()); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("outbox: reopening: %w", err)
	}
	if _, err := f.Seek(o.size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("outbox: seeking append point: %w", err)
	}
	o.f = f
	o.met.Replayed.Add(uint64(len(o.pending)))
	o.met.Pending.Add(float64(len(o.pending)))
	o.met.Bytes.Add(float64(o.size))
	return o, nil
}

// create installs a fresh outbox — magic plus header block — atomically
// and durably, directory entry included.
func (o *Outbox) create() error {
	buf, err := encodeHeader(o.opt.Sensor, 0)
	if err != nil {
		return err
	}
	if err := blocklog.Install(o.path, buf, true); err != nil {
		return fmt.Errorf("outbox: %w", err)
	}
	o.size = int64(len(buf))
	return nil
}

// encodeHeader frames the preamble of an outbox file: magic + header.
func encodeHeader(sensor string, nonce uint64) ([]byte, error) {
	body, err := json.Marshal(header{Sensor: sensor, CreatedUnix: time.Now().Unix(), Nonce: nonce})
	if err != nil {
		return nil, fmt.Errorf("outbox: encoding header: %w", err)
	}
	buf := append([]byte(nil), obMagic[:]...)
	return blocklog.Append(buf, append([]byte{blockHeader}, body...)), nil
}

// recover scans an existing outbox, truncates any torn tail, and
// rebuilds the pending queue.
func (o *Outbox) recover(size int64) error {
	f, err := os.Open(o.path)
	if err != nil {
		return fmt.Errorf("outbox: %w", err)
	}
	defer f.Close()

	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != obMagic {
		return fmt.Errorf("outbox: %s is not an outbox file", o.path)
	}
	off := int64(len(obMagic))
	payload, err := blocklog.Read(f, size-off)
	if err != nil || len(payload) == 0 || payload[0] != blockHeader {
		return fmt.Errorf("outbox: unreadable header in %s", o.path)
	}
	var h header
	if err := json.Unmarshal(payload[1:], &h); err != nil {
		return fmt.Errorf("outbox: decoding header: %w", err)
	}
	if o.opt.Sensor != "" && h.Sensor != "" && h.Sensor != o.opt.Sensor {
		return fmt.Errorf("outbox: %s belongs to sensor %q, not %q", o.path, h.Sensor, o.opt.Sensor)
	}
	o.nonce = h.Nonce
	off += int64(8 + len(payload))
	good := off

	for {
		payload, err := blocklog.Read(f, size-off)
		if err != nil { // io.EOF (clean end) or a torn tail: stop either way
			break
		}
		if len(payload) == 0 {
			break
		}
		switch payload[0] {
		case blockFrame:
			seq, frame, err := decodeFrame(payload)
			if err != nil {
				goto done
			}
			o.pending = append(o.pending, Frame{Seq: seq, Bytes: frame})
		case blockAck:
			seq, err := binary.Uvarint(payload[1:])
			if err <= 0 || len(o.pending) == 0 || o.pending[0].Seq != int(seq) {
				// An ack that retires nothing is indistinguishable from
				// corruption with a lucky CRC: cut the tail here.
				goto done
			}
			o.pending = o.pending[1:]
			o.retired++
		case blockNonce:
			if len(payload) != 9 {
				goto done
			}
			o.nonce = binary.LittleEndian.Uint64(payload[1:])
		default:
			goto done
		}
		off += int64(8 + len(payload))
		good = off
	}
done:
	if good < size {
		o.TornBytes = size - good
		if err := blocklog.TruncateSync(o.path, good); err != nil {
			return fmt.Errorf("outbox: %w", err)
		}
		o.met.TornTails.Inc()
	}
	o.size = good
	return nil
}

// decodeFrame parses a frame block payload (after the kind tag).
func decodeFrame(payload []byte) (seq int, frame []byte, err error) {
	s, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, nil, errors.New("outbox: bad frame sequence")
	}
	frame = append([]byte(nil), payload[1+n:]...)
	if len(frame) == 0 {
		return 0, nil, errors.New("outbox: empty frame record")
	}
	return int(s), frame, nil
}

// Nonce returns the persisted transport incarnation nonce (0: none yet).
// A reliable client reuses it so a post-crash replay speaks as the same
// incarnation the station already knows.
func (o *Outbox) Nonce() uint64 { return o.nonce }

// SetNonce stamps the outbox with the owning client's incarnation nonce,
// durably. Called once, when a fresh outbox meets its first client.
func (o *Outbox) SetNonce(nonce uint64) error {
	if o.closed {
		return ErrClosed
	}
	payload := make([]byte, 9)
	payload[0] = blockNonce
	binary.LittleEndian.PutUint64(payload[1:], nonce)
	block := blocklog.Append(nil, payload)
	if _, err := o.f.Write(block); err != nil {
		return fmt.Errorf("outbox: nonce: %w", err)
	}
	if err := o.f.Sync(); err != nil {
		return fmt.Errorf("outbox: fsync: %w", err)
	}
	o.size += int64(len(block))
	o.nonce = nonce
	o.met.Bytes.Add(float64(len(block)))
	return nil
}

// Append makes one frame durable under its transport sequence. It
// returns only after the bytes and their framing are fsynced — the
// caller may then transmit knowing a crash cannot lose the frame.
func (o *Outbox) Append(seq int, frame []byte) error {
	if o.closed {
		return ErrClosed
	}
	payload := make([]byte, 0, 1+binary.MaxVarintLen64+len(frame))
	payload = append(payload, blockFrame)
	payload = binary.AppendUvarint(payload, uint64(seq))
	payload = append(payload, frame...)
	block := blocklog.Append(nil, payload)
	if _, err := o.f.Write(block); err != nil {
		return fmt.Errorf("outbox: append: %w", err)
	}
	if err := o.f.Sync(); err != nil {
		return fmt.Errorf("outbox: fsync: %w", err)
	}
	o.size += int64(len(block))
	o.pending = append(o.pending, Frame{Seq: seq, Bytes: append([]byte(nil), frame...)})
	o.met.Appended.Inc()
	o.met.Pending.Add(1)
	o.met.Bytes.Add(float64(len(block)))
	return nil
}

// Ack retires the head pending frame. The transport acknowledges
// strictly in order, so seq must match the head. The ack record is not
// fsynced: losing it to a crash merely re-replays a frame the station
// deduplicates. Once enough frames have been retired the log compacts.
func (o *Outbox) Ack(seq int) error {
	if o.closed {
		return ErrClosed
	}
	if len(o.pending) == 0 || o.pending[0].Seq != seq {
		return fmt.Errorf("%w: seq %d", ErrAckOrder, seq)
	}
	payload := make([]byte, 0, 1+binary.MaxVarintLen64)
	payload = append(payload, blockAck)
	payload = binary.AppendUvarint(payload, uint64(seq))
	block := blocklog.Append(nil, payload)
	if _, err := o.f.Write(block); err != nil {
		return fmt.Errorf("outbox: ack: %w", err)
	}
	o.size += int64(len(block))
	o.pending[0].Bytes = nil
	o.pending = o.pending[1:]
	o.retired++
	o.met.Acked.Inc()
	o.met.Pending.Add(-1)
	o.met.Bytes.Add(float64(len(block)))
	if o.opt.CompactEvery > 0 && o.retired >= o.opt.CompactEvery {
		return o.Compact()
	}
	return nil
}

// Compact rewrites the log to just its header and pending frames,
// dropping the retired prefix and its ack records. The replacement is
// installed atomically (blocklog.Install), so a crash at any point
// leaves a complete log.
func (o *Outbox) Compact() error {
	if o.closed {
		return ErrClosed
	}
	buf, err := encodeHeader(o.opt.Sensor, o.nonce)
	if err != nil {
		return err
	}
	for _, p := range o.pending {
		payload := make([]byte, 0, 1+binary.MaxVarintLen64+len(p.Bytes))
		payload = append(payload, blockFrame)
		payload = binary.AppendUvarint(payload, uint64(p.Seq))
		payload = append(payload, p.Bytes...)
		buf = blocklog.Append(buf, payload)
	}
	if err := blocklog.Install(o.path, buf, true); err != nil {
		return fmt.Errorf("outbox: compacting: %w", err)
	}
	f, err := os.OpenFile(o.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("outbox: reopening compacted log: %w", err)
	}
	if _, err := f.Seek(int64(len(buf)), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("outbox: seeking compacted log: %w", err)
	}
	o.f.Close()
	o.f = f
	o.met.Bytes.Add(float64(int64(len(buf)) - o.size))
	o.size = int64(len(buf))
	o.retired = 0
	o.met.Compactions.Inc()
	return nil
}

// Pending returns the frames awaiting acknowledgement, oldest first.
// The slices alias the outbox's copies; callers must not mutate them.
func (o *Outbox) Pending() []Frame {
	out := make([]Frame, len(o.pending))
	copy(out, o.pending)
	return out
}

// PendingCount reports how many frames await acknowledgement.
func (o *Outbox) PendingCount() int { return len(o.pending) }

// Size reports the current log file size in bytes.
func (o *Outbox) Size() int64 { return o.size }

// Close closes the file handle. Pending frames stay durable on disk for
// the next incarnation; Close never discards anything.
func (o *Outbox) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	o.met.Pending.Add(-float64(len(o.pending)))
	o.met.Bytes.Add(-float64(o.size))
	return o.f.Close()
}
