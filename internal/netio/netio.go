// Package netio carries SBR transmissions over TCP: a base-station server
// that accepts many concurrent sensor connections and feeds every decoded
// frame into a station.Station, and two sensor-side clients — a minimal
// Client for clean links, and a ReliableClient that retries, reconnects
// and retransmits over lossy ones. The protocol is deliberately small:
//
//	handshake:  "SBRS" magic, uvarint ID length, sensor ID,
//	            8-byte little-endian incarnation nonce
//	reply:      a hello ack, or a busy ack when the server sheds the peer
//	frames:     the framed transmissions internal/wire defines, with or
//	            without their optional trace header
//	acks:       1 status byte (OK / error / busy / hello) + uvarint field
//
// The reliable client waits for the handshake reply before it writes a
// frame, so a shed costs no frame attempt; the plain client reads the
// reply in its first Send, just before that frame's ack, so dialling adds
// no round trip.
//
// The acknowledgement carries the sequence number it refers to so a
// pipelined sender can match acks to outstanding frames even after
// duplication or loss, and the handshake nonce identifies one transport
// incarnation of a sensor: a reconnecting client reuses its nonce, so the
// station can re-acknowledge a retransmitted already-accepted frame
// (idempotent delivery) while still treating a fresh nonce with sequence
// zero as a sensor reboot.
package netio

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/station"
	"sbr/internal/wire"
)

// handshakeMagic opens every sensor connection.
var handshakeMagic = [4]byte{'S', 'B', 'R', 'S'}

const (
	ackOK    byte = 0x06 // frame decoded and logged (or re-acked duplicate)
	ackError byte = 0x15 // frame rejected; the connection closes after this
	ackBusy  byte = 0x07 // server at capacity; reconnect after a backoff
	ackHello byte = 0x05 // handshake accepted: the field carries wire.VersionTraced
	maxIDLen      = 256
)

// Default timeouts; Options and ReliableOptions override them.
const (
	defaultDialTimeout      = 10 * time.Second
	defaultHandshakeTimeout = 10 * time.Second
	defaultIdleTimeout      = 2 * time.Minute
	defaultAckTimeout       = 10 * time.Second
	keepalivePeriod         = 30 * time.Second
)

// ErrRejected is returned by Client.Send when the station refused the
// frame (decode failure, out-of-order sequence, shape change…). The
// server closes the connection after an error acknowledgement, so the
// client is terminal afterwards.
var ErrRejected = errors.New("netio: station rejected the frame")

// ErrBusy is returned when the server shed the connection — at its
// max-connections cap, over its ingest watermark, or with a degraded
// archive; the sensor should back off and reconnect.
var ErrBusy = errors.New("netio: server at capacity")

// busyError is a busy shed carrying the server's optional retry-after
// hint (the uvarint field of the busy ack, in milliseconds; 0: none).
// It matches ErrBusy under errors.Is, so existing callers keep working,
// and the reliable client extracts the hint to floor its next backoff.
type busyError struct{ after time.Duration }

func (e *busyError) Error() string {
	if e.after > 0 {
		return fmt.Sprintf("netio: server at capacity (retry after %s)", e.after)
	}
	return ErrBusy.Error()
}

func (e *busyError) Is(target error) bool { return target == ErrBusy }

// ErrClientClosed is returned by sends on a client that reached a
// terminal state: explicitly closed, rejected by the station, or out of
// retransmission attempts.
var ErrClientClosed = errors.New("netio: client closed")

// FrameObserver sees the raw bytes of every frame a station accepted, in
// arrival order per sensor. Observers must be safe for concurrent calls
// (one per connection). Re-acknowledged duplicates are not observed, so an
// observer sees every frame exactly once.
type FrameObserver func(id string, frame []byte)

// Metrics is the transport-layer telemetry. Build one with NewMetrics;
// every field is a nil-safe obs metric, so the zero value (or a Metrics
// built against a nil registry) instruments nothing at almost no cost.
// Server and client sides share the struct: a process embedding both
// (tests, simulators) feeds one registry.
type Metrics struct {
	ConnsOpen       *obs.Gauge     // sensor connections currently open
	ConnsTotal      *obs.Counter   // connections accepted since start
	ConnsShed       *obs.Counter   // connections shed at the max-connections cap
	FramesAccepted  *obs.Counter   // frames decoded, logged and acked OK
	DupFrames       *obs.Counter   // retransmitted duplicates re-acked OK
	BytesIn         *obs.Counter   // raw bytes of accepted frames
	FrameSeconds    *obs.Histogram // per-frame station handle latency
	RejectHandshake *obs.Counter   // connections dropped at the handshake
	RejectDecode    *obs.Counter   // frames dropped by wire decoding
	RejectReceive   *obs.Counter   // frames the station refused
	AckErrors       *obs.Counter   // acknowledgement writes that failed
	Retries         *obs.Counter   // client frame retransmissions
	Reconnects      *obs.Counter   // client reconnections after a lost link

	ShedCap      *obs.Counter // sheds at the max-connections cap
	ShedQueue    *obs.Counter // sheds over the ingest inflight watermark
	ShedDegraded *obs.Counter // sheds while the archive was degraded
	Inflight     *obs.Gauge   // frames currently inside the station handle
	ConnPanics   *obs.Counter // frame-handler panics isolated to their connection

	BreakerState  *obs.Gauge   // client circuit breaker: 0 closed, 1 open
	BreakerTrips  *obs.Counter // breaker transitions to open
	BreakerProbes *obs.Counter // half-open probe dials
}

// NewMetrics registers the transport metrics on reg (nil: no-op metrics).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		ConnsOpen:       reg.Gauge("sbr_netio_connections_open", "Sensor connections currently open."),
		ConnsTotal:      reg.Counter("sbr_netio_connections_total", "Sensor connections accepted since start."),
		ConnsShed:       reg.Counter("sbr_netio_connections_shed_total", "Connections shed at the max-connections cap."),
		FramesAccepted:  reg.Counter("sbr_netio_frames_accepted_total", "Frames decoded, logged and acknowledged."),
		DupFrames:       reg.Counter("sbr_netio_frames_duplicate_total", "Retransmitted already-accepted frames re-acknowledged."),
		BytesIn:         reg.Counter("sbr_netio_bytes_in_total", "Raw bytes of accepted frames."),
		FrameSeconds:    reg.Histogram("sbr_netio_frame_seconds", "Station handle latency per frame.", obs.LatencyBuckets),
		RejectHandshake: reg.Counter("sbr_netio_frames_rejected_total", "Frames or connections rejected, by reason.", obs.L("reason", "handshake")),
		RejectDecode:    reg.Counter("sbr_netio_frames_rejected_total", "Frames or connections rejected, by reason.", obs.L("reason", "decode")),
		RejectReceive:   reg.Counter("sbr_netio_frames_rejected_total", "Frames or connections rejected, by reason.", obs.L("reason", "receive")),
		AckErrors:       reg.Counter("sbr_netio_ack_errors_total", "Acknowledgement writes that failed."),
		Retries:         reg.Counter("sbr_netio_retries_total", "Frame retransmissions by reliable clients."),
		Reconnects:      reg.Counter("sbr_netio_reconnects_total", "Reconnections by reliable clients after a lost link."),

		ShedCap:      reg.Counter("sbr_netio_shed_total", "Connections shed by admission control, by reason.", obs.L("reason", "cap")),
		ShedQueue:    reg.Counter("sbr_netio_shed_total", "Connections shed by admission control, by reason.", obs.L("reason", "queue")),
		ShedDegraded: reg.Counter("sbr_netio_shed_total", "Connections shed by admission control, by reason.", obs.L("reason", "degraded")),
		Inflight:     reg.Gauge("sbr_netio_inflight_frames", "Frames currently inside the station handle."),
		ConnPanics:   reg.Counter("sbr_netio_conn_panics_total", "Frame-handler panics isolated to their connection."),

		BreakerState:  reg.Gauge("sbr_netio_breaker_state", "Client circuit breaker state: 0 closed, 1 open."),
		BreakerTrips:  reg.Counter("sbr_netio_breaker_trips_total", "Circuit breaker transitions to open."),
		BreakerProbes: reg.Counter("sbr_netio_breaker_probes_total", "Circuit breaker half-open probe dials."),
	}
}

// Options configures ServeWith beyond the required station and address.
type Options struct {
	Observer FrameObserver // raw accepted frames (nil: none)
	Metrics  *Metrics      // transport telemetry (nil: uninstrumented)
	Logger   *slog.Logger  // structured events (nil: discard)

	// Tracer records per-frame receive spans for sampled traced frames
	// (nil: traced frames are still accepted, but no spans are recorded).
	Tracer *trace.Recorder

	// MaxConns caps concurrent sensor connections. Arrivals beyond the
	// cap are shed gracefully: one busy acknowledgement, then close, so
	// the sensor backs off instead of hanging. 0 means unlimited.
	MaxConns int

	// ShedQueueDepth is the ingest watermark: when this many frames are
	// already inside the station handle, new arrivals are shed busy until
	// the queue drains. 0 means unlimited. Unlike MaxConns (a static cap
	// on peers) this tracks actual processing pressure, so a burst of
	// slow-to-decode frames sheds load even from few connections.
	ShedQueueDepth int

	// ArchiveDegraded, when set, is probed per arrival: true means an
	// archive append has failed, and the station refuses that sensor's
	// frames until it restarts — shed busy instead and let the sensors'
	// durable outboxes hold the frames.
	ArchiveDegraded func() bool

	// RetryAfter, when positive, rides in every busy acknowledgement as a
	// retry-after hint (milliseconds on the wire); reliable clients floor
	// their backoff by it, so the operator controls the retry storm.
	RetryAfter time.Duration

	// HandshakeTimeout bounds how long a fresh connection may take to
	// complete its handshake (0: 10s default, negative: no limit) — a
	// stalled or port-scanning peer cannot pin a goroutine.
	HandshakeTimeout time.Duration

	// IdleTimeout bounds the silence between frames on an established
	// connection (0: 2m default, negative: no limit).
	IdleTimeout time.Duration

	// AckTimeout bounds acknowledgement writes (0: 10s default,
	// negative: no limit).
	AckTimeout time.Duration
}

// timeout resolves an Options duration: zero takes the default, negative
// disables the deadline.
func timeout(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// Server accepts sensor connections and routes their transmissions into a
// Station.
type Server struct {
	st        *station.Station
	ln        net.Listener
	obs       FrameObserver
	met       *Metrics
	log       *slog.Logger
	tracer    *trace.Recorder
	maxConns  int
	shedDepth int
	degraded  func() bool
	retryHint time.Duration

	hsTimeout time.Duration
	idle      time.Duration
	ackWait   time.Duration

	wg       sync.WaitGroup
	draining atomic.Bool
	inflight atomic.Int64
	lnOnce   sync.Once
	lnErr    error

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and serving
// connections in the background. Close shuts it down.
func Serve(st *station.Station, addr string) (*Server, error) {
	return ServeWith(st, addr, Options{})
}

// ServeObserved is Serve with a frame observer: every frame the station
// accepts is also handed, raw, to obs.
func ServeObserved(st *station.Station, addr string, obs FrameObserver) (*Server, error) {
	return ServeWith(st, addr, Options{Observer: obs})
}

// ServeWith is the fully configured constructor: observer, transport
// metrics, structured logging, connection caps and deadlines in one
// Options bundle.
func ServeWith(st *station.Station, addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netio: listen: %w", err)
	}
	met := opt.Metrics
	if met == nil {
		met = &Metrics{}
	}
	s := &Server{
		st:        st,
		ln:        ln,
		obs:       opt.Observer,
		met:       met,
		log:       obs.Component(opt.Logger, "netio"),
		tracer:    opt.Tracer,
		maxConns:  opt.MaxConns,
		shedDepth: opt.ShedQueueDepth,
		degraded:  opt.ArchiveDegraded,
		retryHint: opt.RetryAfter,
		hsTimeout: timeout(opt.HandshakeTimeout, defaultHandshakeTimeout),
		idle:      timeout(opt.IdleTimeout, defaultIdleTimeout),
		ackWait:   timeout(opt.AckTimeout, defaultAckTimeout),
		conns:     make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// closeListener stops accepting exactly once.
func (s *Server) closeListener() error {
	s.lnOnce.Do(func() { s.lnErr = s.ln.Close() })
	return s.lnErr
}

// Close stops accepting, force-closes active connections, and waits for
// their handlers to finish. Shutdown is the graceful alternative.
func (s *Server) Close() error {
	s.draining.Store(true)
	err := s.closeListener()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown stops accepting and drains gracefully: every connection
// finishes the frame it is handling — including its acknowledgement —
// before closing, so no sensor loses an ack for work the station already
// did. Connections idle in a read are woken immediately. When ctx expires
// first, the stragglers are force-closed and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.closeListener()
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now()) //nolint:errcheck — best-effort wake
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		return ctx.Err()
	}
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) numConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Draining reports whether the server has begun shutting down — the
// readiness probe's first question.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight reports how many frames are currently inside the station
// handle across all connections.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Conns reports the number of tracked sensor connections.
func (s *Server) Conns() int { return s.numConns() }

// OverWatermark reports whether admission control would shed a new
// arrival right now, and why ("" when admitting). The readiness probe
// shares this logic so /readyz flips 503 exactly when sensors start
// seeing busy acks.
func (s *Server) OverWatermark() (reason string) {
	switch {
	case s.degraded != nil && s.degraded():
		return "degraded"
	case s.shedDepth > 0 && s.Inflight() >= s.shedDepth:
		return "queue"
	case s.maxConns > 0 && s.numConns() >= s.maxConns:
		return "cap"
	}
	return ""
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if reason := s.OverWatermark(); reason != "" {
			s.shed(conn, reason)
			continue
		}
		s.wg.Add(1)
		s.track(conn)
		go func() {
			defer func() {
				// Panic isolation: one poisoned frame handler kills its own
				// connection, never the listener. The panicking frame is NOT
				// acked, so the sensor retransmits it; a frame that panics
				// deterministically exhausts the client's per-frame attempts
				// and turns that one client terminal, which is the blast
				// radius we want. This recover is declared after the close
				// and untrack defers, so it runs before them and they still
				// clean up.
				if r := recover(); r != nil {
					s.met.ConnPanics.Inc()
					s.log.Error("frame handler panicked; connection dropped",
						"remote", conn.RemoteAddr().String(), "panic", fmt.Sprint(r))
				}
			}()
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// shed turns an arrival away gracefully: one busy acknowledgement —
// carrying the configured retry-after hint in its sequence field — so
// the sensor backs off knowingly. The farewell runs in its own bounded
// goroutine so a dead peer cannot stall the accept loop, and it
// half-closes then drains instead of closing outright — an immediate
// close could reset the connection and destroy the unread busy ack in
// the peer's receive buffer. Shed connections are tracked, so they
// count against the cap until gone and Close/Shutdown reach them.
func (s *Server) shed(conn net.Conn, reason string) {
	s.met.ConnsShed.Inc()
	switch reason {
	case "queue":
		s.met.ShedQueue.Inc()
	case "degraded":
		s.met.ShedDegraded.Inc()
	default:
		s.met.ShedCap.Inc()
	}
	s.log.Warn("connection shed", "reason", reason,
		"remote", conn.RemoteAddr().String(), "max_conns", s.maxConns,
		"inflight", s.Inflight())
	s.wg.Add(1)
	s.track(conn)
	go func() {
		defer s.wg.Done()
		defer s.untrack(conn)
		defer conn.Close()
		if s.ackWait > 0 {
			conn.SetDeadline(time.Now().Add(s.ackWait)) //nolint:errcheck
		}
		var buf [1 + binary.MaxVarintLen64]byte
		buf[0] = ackBusy
		n := binary.PutUvarint(buf[1:], uint64(s.retryHint.Milliseconds()))
		if _, err := conn.Write(buf[:1+n]); err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite() //nolint:errcheck
		}
		io.Copy(io.Discard, conn) //nolint:errcheck — drain until the peer closes
	}()
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveConn handles one sensor: handshake, then frames until EOF or
// error. Every failure is counted under its rejection reason and logged
// with the sensor and remote address — a misbehaving sensor in a large
// deployment must be findable from telemetry, not from a silent return.
func (s *Server) serveConn(conn net.Conn) {
	remote := conn.RemoteAddr().String()
	s.met.ConnsTotal.Inc()
	s.met.ConnsOpen.Add(1)
	defer s.met.ConnsOpen.Add(-1)

	if s.draining.Load() {
		return
	}
	if s.hsTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.hsTimeout)) //nolint:errcheck
	}
	br := bufio.NewReader(conn)
	id, src, err := readHandshake(br)
	if err != nil {
		if err != io.EOF { // bare connect-and-close (port probe) is not a protocol error
			s.met.RejectHandshake.Inc()
			s.log.Warn("handshake failed", "remote", remote, "err", err)
		}
		return
	}
	if !s.writeAck(conn, ackHello, wire.VersionTraced, id, remote) {
		return
	}
	s.log.Debug("sensor connected", "sensor", id, "remote", remote)
	for {
		if s.draining.Load() {
			s.log.Debug("connection drained", "sensor", id, "remote", remote)
			return
		}
		if s.idle > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idle)) //nolint:errcheck
		} else {
			conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		if s.draining.Load() { // re-check: Shutdown may have raced the deadline reset
			s.log.Debug("connection drained", "sensor", id, "remote", remote)
			return
		}
		frame, err := wire.ReadFrame(br)
		if err == io.EOF {
			s.log.Debug("sensor disconnected", "sensor", id, "remote", remote)
			return
		}
		if err != nil {
			if s.draining.Load() {
				s.log.Debug("connection drained", "sensor", id, "remote", remote)
				return
			}
			if isTimeout(err) {
				s.log.Warn("idle connection closed", "sensor", id, "remote", remote)
				return
			}
			s.met.RejectDecode.Inc()
			s.log.Warn("frame decode failed", "sensor", id, "remote", remote, "err", err)
			s.writeAck(conn, ackError, 0, id, remote)
			return
		}
		seq, err := wire.FrameSeq(frame)
		if err != nil {
			s.met.RejectDecode.Inc()
			s.log.Warn("frame header invalid", "sensor", id, "remote", remote, "err", err)
			s.writeAck(conn, ackError, 0, id, remote)
			return
		}
		// One receive span per sampled traced frame, covering the station
		// handle and the acknowledgement write. FrameTrace is only peeked
		// when a tracer is installed, so the untraced path pays one nil
		// check here.
		var rsp *trace.Span
		if s.tracer != nil {
			if tc := wire.FrameTrace(frame); tc.Sampled {
				tr := s.tracer.Continue(trace.ID(tc.ID), id)
				rsp = tr.StartSpan("netio.recv")
				rsp.AnnotateInt("seq", int64(seq))
				rsp.AnnotateInt("bytes", int64(len(frame)))
			}
		}
		start := time.Now()
		switch err := s.handle(id, src, frame); {
		case err == nil:
		case errors.Is(err, station.ErrDuplicate):
			// Retransmission of a frame the station already holds: the ack
			// was lost, not the frame. Re-ack OK so delivery is idempotent;
			// skip the observer so it sees every frame exactly once.
			s.met.DupFrames.Inc()
			s.log.Debug("duplicate frame re-acked", "sensor", id, "remote", remote, "seq", seq)
			rsp.Annotate("duplicate", "true")
			ok := s.writeAck(conn, ackOK, seq, id, remote)
			rsp.End()
			rsp.Trace().Finish()
			if !ok {
				return
			}
			continue
		default:
			s.met.RejectReceive.Inc()
			s.log.Warn("station rejected frame", "sensor", id, "remote", remote, "err", err)
			rsp.Annotate("rejected", err.Error())
			s.writeAck(conn, ackError, seq, id, remote)
			rsp.End()
			rsp.Trace().Finish()
			return
		}
		s.met.FramesAccepted.Inc()
		s.met.BytesIn.Add(uint64(len(frame)))
		s.met.FrameSeconds.Observe(time.Since(start).Seconds())
		if s.obs != nil {
			s.obs(id, frame)
		}
		ok := s.writeAck(conn, ackOK, seq, id, remote)
		rsp.End()
		rsp.Trace().Finish()
		if !ok {
			return
		}
	}
}

// handle runs one frame through the station under inflight accounting —
// the depth ShedQueueDepth watches. The deferred decrement keeps the
// count truthful even when the station handler panics (the connection's
// recover then isolates the blast).
func (s *Server) handle(id string, src uint64, frame []byte) error {
	s.inflight.Add(1)
	s.met.Inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.met.Inflight.Add(-1)
	}()
	return s.st.ReceiveFrameFrom(id, src, frame)
}

// writeAck ships one acknowledgement record — status byte plus the
// uvarint sequence it refers to — under the ack write deadline. A failed
// write is counted and logged, and the connection closes: the reliable
// client treats the missing ack as a lost link, reconnects, and
// retransmits; the station then recognises the duplicate and this ack is
// retried, so the contract survives an ack loss in either direction.
func (s *Server) writeAck(conn net.Conn, status byte, seq int, id, remote string) bool {
	var buf [1 + binary.MaxVarintLen64]byte
	buf[0] = status
	n := binary.PutUvarint(buf[1:], uint64(seq))
	if s.ackWait > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.ackWait)) //nolint:errcheck
	}
	if _, err := conn.Write(buf[:1+n]); err != nil {
		s.met.AckErrors.Inc()
		s.log.Warn("ack write failed", "sensor", id, "remote", remote, "err", err)
		return false
	}
	return true
}

// readHandshake validates the magic and reads the sensor ID and the
// transport incarnation nonce.
func readHandshake(r *bufio.Reader) (id string, nonce uint64, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return "", 0, err
	}
	if magic != handshakeMagic {
		return "", 0, errors.New("netio: bad handshake magic")
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", 0, err
	}
	if n == 0 || n > maxIDLen {
		return "", 0, fmt.Errorf("netio: sensor ID length %d out of range", n)
	}
	idb := make([]byte, n)
	if _, err := io.ReadFull(r, idb); err != nil {
		return "", 0, err
	}
	var nb [8]byte
	if _, err := io.ReadFull(r, nb[:]); err != nil {
		return "", 0, fmt.Errorf("netio: reading incarnation nonce: %w", err)
	}
	return string(idb), binary.LittleEndian.Uint64(nb[:]), nil
}

// writeHandshake ships the magic, ID and incarnation nonce; errors
// surface at Flush.
func writeHandshake(bw *bufio.Writer, sensorID string, nonce uint64) {
	bw.Write(handshakeMagic[:]) //nolint:errcheck — surfaced by Flush
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(sensorID)))
	bw.Write(buf[:n])        //nolint:errcheck
	bw.WriteString(sensorID) //nolint:errcheck
	var nb [8]byte
	binary.LittleEndian.PutUint64(nb[:], nonce)
	bw.Write(nb[:]) //nolint:errcheck
}

// newNonce draws a non-zero incarnation nonce (zero means "unknown" on
// the wire).
func newNonce() uint64 {
	for {
		if n := rand.Uint64(); n != 0 {
			return n
		}
	}
}

// readAck reads one acknowledgement record from the stream.
func readAck(br *bufio.Reader) (status byte, seq int, err error) {
	status, err = br.ReadByte()
	if err != nil {
		return 0, 0, fmt.Errorf("netio: reading ack: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, fmt.Errorf("netio: reading ack sequence: %w", err)
	}
	return status, int(n), nil
}

// readHello consumes the server's reply to the handshake: a hello means
// the connection is accepted, a busy ack means the server shed it — its
// field carries the retry-after hint in milliseconds (0: none), which the
// reliable client floors its next backoff on.
func readHello(br *bufio.Reader) error {
	status, field, err := readAck(br)
	switch {
	case err != nil:
		return fmt.Errorf("netio: awaiting hello: %w", err)
	case status == ackBusy:
		return &busyError{after: time.Duration(field) * time.Millisecond}
	case status != ackHello:
		return fmt.Errorf("netio: expected hello, got ack status 0x%02x", status)
	}
	return nil
}

// dialAndShake opens one connection with keepalives and writes the
// handshake; the server's reply is left for the caller to read.
func dialAndShake(dial func(addr string) (net.Conn, error), addr, sensorID string, nonce uint64) (net.Conn, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("netio: dial: %w", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)                  //nolint:errcheck — advisory
		tc.SetKeepAlivePeriod(keepalivePeriod) //nolint:errcheck
	}
	bw := bufio.NewWriter(conn)
	writeHandshake(bw, sensorID, nonce)
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netio: handshake: %w", err)
	}
	return conn, nil
}

// Client is the minimal sensor-side transport: synchronous sends, no
// retries, terminal on the first failure. Use ReliableClient over links
// that actually lose packets. Not safe for concurrent use: a sensor has
// one radio.
type Client struct {
	conn  net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	hello bool  // the server's handshake reply has been read
	err   error // sticky terminal state
}

// Dial connects to a station server and identifies as sensorID, with the
// default connect timeout and TCP keepalives enabled.
func Dial(addr, sensorID string) (*Client, error) {
	return DialTimeout(addr, sensorID, defaultDialTimeout)
}

// DialTimeout is Dial with an explicit connect timeout.
func DialTimeout(addr, sensorID string, d time.Duration) (*Client, error) {
	if sensorID == "" || len(sensorID) > maxIDLen {
		return nil, fmt.Errorf("netio: sensor ID length %d out of range", len(sensorID))
	}
	conn, err := dialAndShake(func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, d)
	}, addr, sensorID, newNonce())
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}, nil
}

// Send ships one wire frame and waits for the acknowledgement — on the
// first Send, after the server's handshake reply, so a shed surfaces here
// as ErrBusy. Any failure — including a station rejection, after which the
// server closes the connection — is terminal: the client closes its side and every
// later Send reports ErrClientClosed joined with the original cause,
// instead of scribbling on a dead connection.
func (c *Client) Send(frame []byte) error {
	if c.err != nil {
		return c.err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return c.fail(fmt.Errorf("netio: send: %w", err))
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(fmt.Errorf("netio: send: %w", err))
	}
	if !c.hello {
		if err := readHello(c.br); err != nil {
			return c.fail(err)
		}
		c.hello = true
	}
	status, _, err := readAck(c.br)
	if err != nil {
		return c.fail(err)
	}
	switch status {
	case ackOK:
		return nil
	case ackBusy:
		return c.fail(ErrBusy)
	case ackError:
		return c.fail(ErrRejected)
	default:
		return c.fail(fmt.Errorf("netio: unknown ack status 0x%02x", status))
	}
}

// fail closes the connection and records the terminal state, returning
// the original error for this call.
func (c *Client) fail(err error) error {
	c.err = errors.Join(ErrClientClosed, err)
	c.conn.Close()
	return err
}

// Close closes the connection; later sends report ErrClientClosed.
func (c *Client) Close() error {
	if c.err == nil {
		c.err = ErrClientClosed
	}
	return c.conn.Close()
}
