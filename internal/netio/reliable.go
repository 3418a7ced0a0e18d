package netio

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/outbox"
	"sbr/internal/wire"
)

// ErrBreakerOpen reports that the circuit breaker has the link open: the
// station has failed too many consecutive times, so the client is not
// even dialling. Sends with a durable outbox attached absorb this
// silently — the frame is safe on disk and a half-open probe will move
// it later; Flush and Close surface it so callers know delivery is
// deferred, not done.
var ErrBreakerOpen = errors.New("netio: circuit breaker open")

// PendingError is returned by ReliableClient.Close when the flush
// deadline expired (or the link was terminal) with frames still
// unacknowledged. Durable tells the caller whether those frames survive
// in an on-disk outbox for the next incarnation or died with the
// process.
type PendingError struct {
	Pending int   // frames still unacknowledged
	Durable bool  // true: the frames persist in the outbox on disk
	Err     error // the flush failure, if any
}

func (e *PendingError) Error() string {
	fate := "LOST"
	if e.Durable {
		fate = "durable in the outbox"
	}
	if e.Err != nil {
		return fmt.Sprintf("netio: closed with %d frames pending (%s): %v", e.Pending, fate, e.Err)
	}
	return fmt.Sprintf("netio: closed with %d frames pending (%s)", e.Pending, fate)
}

func (e *PendingError) Unwrap() error { return e.Err }

// ReliableOptions tunes a ReliableClient. The zero value is usable:
// every field has a sensible default.
type ReliableOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration

	// AckTimeout bounds each frame write and each acknowledgement wait
	// (default 10s). A silent link — bytes swallowed without an error —
	// is detected here and answered with a reconnect.
	AckTimeout time.Duration

	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between reconnection attempts (defaults 50ms and 5s). Each sleep is
	// jittered to half–full of the nominal delay so a fleet of sensors
	// does not reconnect in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// MaxAttempts bounds both the transmissions of a single frame and the
	// consecutive failed connects before the client turns terminal
	// (default 16).
	MaxAttempts int

	// Window bounds the outbox: how many unacknowledged frames may be in
	// flight before Send blocks waiting for acks (default 32).
	Window int

	// Dial overrides the connection factory — the fault-injection and
	// testing hook. The default dials TCP with DialTimeout.
	Dial func(addr string) (net.Conn, error)

	// Rand supplies backoff jitter; tests pass a seeded source for
	// determinism. Defaults to the global source.
	Rand *rand.Rand

	// Outbox, when set, makes the client crash-safe: every frame is
	// appended (and fsynced) to this durable spill before its first
	// transmission and retired only on acknowledgement, and any frames the
	// outbox already holds — the unacknowledged residue of a previous
	// process incarnation — are enqueued for redelivery ahead of new
	// sends. The client does not close the outbox; its owner does.
	Outbox *outbox.Outbox

	// BreakerThreshold arms the circuit breaker: after this many
	// consecutive transport failures the client stops dialling and fails
	// fast with ErrBreakerOpen until a half-open probe succeeds
	// (0: breaker disabled). While armed, consecutive connection failures
	// never turn the client terminal — the breaker replaces that give-up
	// with back-pressure, which is the survivable-uplink behaviour: new
	// sends drain straight to the outbox.
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker rejects before allowing
	// one half-open probe dial (default 1s).
	BreakerCooldown time.Duration

	// CloseTimeout bounds the best-effort final flush inside Close
	// (default 5s). On expiry Close returns a *PendingError carrying the
	// count of frames still unacknowledged.
	CloseTimeout time.Duration

	// Metrics receives retry/reconnect telemetry (nil: uninstrumented).
	Metrics *Metrics

	// Logger receives structured transport events (nil: discard).
	Logger *slog.Logger

	// Tracer records send/retry/reconnect spans for frames that carry a
	// sampled trace header (nil: untraced).
	Tracer *trace.Recorder
}

// pending is one enqueued frame awaiting acknowledgement.
type pending struct {
	frame    []byte
	seq      int
	attempts int         // transmissions so far, counting the first
	sp       *trace.Span // netio.send span for sampled traced frames (else nil)
}

// ReliableClient is the fault-tolerant sensor transport: connect
// timeouts, per-send deadlines, capped exponential backoff with jitter,
// automatic reconnection, and a bounded outbox of unacknowledged frames
// retransmitted in order after every reconnect. Combined with the
// station's duplicate detection (a re-delivered accepted frame is
// re-acked OK), it delivers every frame exactly once over a link that
// drops, delays, duplicates, truncates or corrupts traffic.
//
// The client keeps one incarnation nonce for its whole life, so the
// station can tell its retransmissions from a sensor reboot (a fresh
// client, fresh nonce, sequence restarting at zero).
//
// Not safe for concurrent use: a sensor has one radio.
type ReliableClient struct {
	addr, id string
	opt      ReliableOptions
	met      *Metrics
	log      *slog.Logger
	nonce    uint64

	conn      net.Conn
	bw        *bufio.Writer
	br        *bufio.Reader
	connected bool // a connection has succeeded before (for the reconnect metric)

	outbox []pending
	sent   int   // prefix of outbox already written to the current conn
	streak int   // consecutive failures, drives the backoff exponent
	term   error // terminal state; sticky

	ob         *outbox.Outbox // durable spill (nil: memory-only)
	retryAfter time.Duration  // server's busy retry-after hint, floors the next backoff
	flushBy    time.Time      // Close's flush deadline (zero: unbounded)

	brkOpen  bool      // circuit breaker state
	brkUntil time.Time // when open: earliest half-open probe
}

// NewReliable creates a reliable client for the station at addr,
// identifying as sensorID. The connection is established lazily on the
// first Send, through the same retry machinery as any reconnect.
func NewReliable(addr, sensorID string, opt ReliableOptions) (*ReliableClient, error) {
	if sensorID == "" || len(sensorID) > maxIDLen {
		return nil, fmt.Errorf("netio: sensor ID length %d out of range", len(sensorID))
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 5 * time.Second
	}
	if opt.AckTimeout <= 0 {
		opt.AckTimeout = defaultAckTimeout
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 50 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 16
	}
	if opt.Window <= 0 {
		opt.Window = 32
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = time.Second
	}
	if opt.CloseTimeout <= 0 {
		opt.CloseTimeout = 5 * time.Second
	}
	if opt.Dial == nil {
		d := opt.DialTimeout
		opt.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, d)
		}
	}
	met := opt.Metrics
	if met == nil {
		met = &Metrics{}
	}
	c := &ReliableClient{
		addr:  addr,
		id:    sensorID,
		opt:   opt,
		met:   met,
		log:   obs.Component(opt.Logger, "netio"),
		nonce: newNonce(),
		ob:    opt.Outbox,
	}
	// Replay the durable residue of a previous incarnation: frames it
	// appended but never saw acknowledged, redelivered ahead of any new
	// send. The incarnation nonce rides in the outbox too — a replaying
	// restart reuses it and so speaks as the SAME transport incarnation,
	// which is what lets the station classify a replayed seq-0 frame as a
	// retransmission (re-acked duplicate) instead of a sensor reboot. A
	// fresh outbox is stamped with this client's new nonce instead.
	if c.ob != nil {
		if n := c.ob.Nonce(); n != 0 {
			c.nonce = n
		} else if err := c.ob.SetNonce(c.nonce); err != nil {
			return nil, fmt.Errorf("netio: stamping outbox nonce: %w", err)
		}
		for _, f := range c.ob.Pending() {
			c.outbox = append(c.outbox, pending{frame: f.Bytes, seq: f.Seq})
		}
		if n := len(c.outbox); n > 0 {
			c.log.Info("outbox replay queued", "sensor", sensorID, "frames", n)
		}
	}
	return c, nil
}

// Send enqueues one wire frame for delivery and drives the link. It
// returns once the frame is written and the outbox holds at most Window
// unacknowledged frames — so sends pipeline — or with a terminal error
// once a frame or the connection exhausts MaxAttempts. A nil return
// means the frame is on the wire and will be retransmitted until acked;
// call Flush for the delivered-for-sure barrier.
func (c *ReliableClient) Send(frame []byte) error {
	if c.term != nil {
		return c.term
	}
	seq, err := wire.FrameSeq(frame)
	if err != nil {
		return fmt.Errorf("netio: unsendable frame: %w", err)
	}
	p := pending{frame: append([]byte(nil), frame...), seq: seq}
	if c.opt.Tracer != nil {
		if tc := wire.FrameTrace(frame); tc.Sampled {
			tr := c.opt.Tracer.Continue(trace.ID(tc.ID), c.id)
			p.sp = tr.StartSpan("netio.send")
			p.sp.AnnotateInt("seq", int64(seq))
		}
	}
	// Durability point: the frame is fsynced in the spill before the first
	// transmission, so from here on a process crash cannot lose it.
	if c.ob != nil {
		if err := c.ob.Append(seq, frame); err != nil {
			return fmt.Errorf("netio: outbox spill: %w", err)
		}
	}
	c.outbox = append(c.outbox, p)
	err = c.pump(c.opt.Window)
	if errors.Is(err, ErrBreakerOpen) && c.ob != nil {
		// The breaker has the link open but the frame is durable: accept
		// the send and let a later probe (or the next incarnation) move it.
		return nil
	}
	return err
}

// Flush blocks until every enqueued frame has been acknowledged. With
// the breaker open it returns ErrBreakerOpen instead of waiting out the
// cooldown — delivery is deferred, not failed.
func (c *ReliableClient) Flush() error {
	if c.term != nil {
		return c.term
	}
	return c.pump(0)
}

// Unacked reports how many sent frames still await acknowledgement.
func (c *ReliableClient) Unacked() int { return len(c.outbox) }

// Close flushes the outbox best-effort under CloseTimeout, closes the
// connection and turns the client terminal. If frames are still
// unacknowledged when the deadline (or a terminal link error) cuts the
// flush short, Close returns a *PendingError carrying the count and
// whether the frames survive in a durable outbox — silent discard was a
// bug this interface no longer permits.
func (c *ReliableClient) Close() error {
	var err error
	if c.term == nil {
		c.flushBy = time.Now().Add(c.opt.CloseTimeout)
		err = c.pump(0)
		c.flushBy = time.Time{}
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if c.term == nil {
		c.term = ErrClientClosed
	}
	if n := len(c.outbox); n > 0 {
		return &PendingError{Pending: n, Durable: c.ob != nil, Err: err}
	}
	return err
}

// pump drives the protocol until everything enqueued has been written to
// a live connection and at most maxUnacked frames remain outstanding.
// Every failure path funnels through dropConn + ensureConn, which
// retransmit the outbox on a fresh connection under backoff.
func (c *ReliableClient) pump(maxUnacked int) error {
	for {
		if len(c.outbox) <= maxUnacked && c.sent == len(c.outbox) {
			return nil
		}
		if !c.flushBy.IsZero() && !time.Now().Before(c.flushBy) {
			return fmt.Errorf("netio: flush deadline expired with %d frames pending", len(c.outbox))
		}
		if err := c.ensureConn(); err != nil {
			return err
		}
		if err := c.writeUnsent(); err != nil {
			if c.term != nil {
				return c.term
			}
			c.dropConn(err)
			continue
		}
		if len(c.outbox) > maxUnacked {
			if err := c.awaitAck(); err != nil {
				c.dropConn(err)
			}
		}
	}
}

// ensureConn returns with a live, handshaken connection, dialling under
// backoff as needed. Without a breaker, MaxAttempts consecutive failures
// turn terminal; with one armed, they trip it open instead and the
// client fails fast until a half-open probe restores flow.
func (c *ReliableClient) ensureConn() error {
	for c.conn == nil {
		if err := c.breakerGate(); err != nil {
			return err
		}
		if c.opt.BreakerThreshold <= 0 && c.streak >= c.opt.MaxAttempts {
			c.term = fmt.Errorf("%w: %d consecutive connection failures to %s",
				ErrClientClosed, c.streak, c.addr)
			return c.term
		}
		if c.streak > 0 && !c.brkOpen {
			c.sleepBackoff()
		}
		conn, br, err := c.dial()
		if err != nil {
			c.streak++
			c.noteBusy(err)
			c.log.Warn("connect failed", "sensor", c.id, "addr", c.addr,
				"attempt", c.streak, "err", err)
			if c.brkOpen {
				// The half-open probe failed: re-trip for another cooldown.
				c.brkUntil = time.Now().Add(c.opt.BreakerCooldown)
				return ErrBreakerOpen
			}
			continue
		}
		if c.brkOpen {
			// Half-open probe succeeded: close the breaker, restore flow.
			c.brkOpen = false
			c.met.BreakerState.Set(0)
			c.log.Info("circuit breaker closed", "sensor", c.id, "addr", c.addr)
		}
		if c.connected {
			c.met.Reconnects.Inc()
			c.log.Info("reconnected", "sensor", c.id, "addr", c.addr,
				"unacked", len(c.outbox))
			// The head-of-line frame wears the reconnect event: it is the
			// one whose latency the lost link actually extended.
			if len(c.outbox) > 0 {
				sp := c.outbox[0].sp.Child("netio.reconnect")
				sp.AnnotateInt("streak", int64(c.streak))
				sp.End()
			}
		}
		c.connected = true
		c.conn = conn
		c.bw = bufio.NewWriter(conn)
		c.br = br
		c.sent = 0 // the whole outbox is retransmitted on a fresh conn
	}
	return nil
}

// dial opens one connection and waits, under AckTimeout, for the server's
// handshake reply before any frame is written: a busy shed then fails the
// connect — feeding the backoff and the breaker — without spending an
// attempt of the frames it would have carried.
func (c *ReliableClient) dial() (net.Conn, *bufio.Reader, error) {
	conn, err := dialAndShake(c.opt.Dial, c.addr, c.id, c.nonce)
	if err != nil {
		return nil, nil, err
	}
	conn.SetReadDeadline(time.Now().Add(c.opt.AckTimeout)) //nolint:errcheck
	br := bufio.NewReader(conn)
	if err := readHello(br); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, br, nil
}

// breakerGate enforces the circuit breaker before any dial: open and
// cooling → fail fast; open and cooled → admit exactly one half-open
// probe; closed with the failure streak at threshold → trip.
func (c *ReliableClient) breakerGate() error {
	if c.opt.BreakerThreshold <= 0 {
		return nil
	}
	if c.brkOpen {
		if time.Now().Before(c.brkUntil) {
			return ErrBreakerOpen
		}
		c.met.BreakerProbes.Inc()
		c.log.Info("circuit breaker half-open probe", "sensor", c.id, "addr", c.addr)
		return nil
	}
	if c.streak >= c.opt.BreakerThreshold {
		c.brkOpen = true
		c.brkUntil = time.Now().Add(c.opt.BreakerCooldown)
		c.met.BreakerTrips.Inc()
		c.met.BreakerState.Set(1)
		c.log.Warn("circuit breaker tripped", "sensor", c.id, "addr", c.addr,
			"streak", c.streak, "cooldown", c.opt.BreakerCooldown.String())
		return ErrBreakerOpen
	}
	return nil
}

// noteBusy records a busy shed's retry-after hint, if err carries one,
// so the next backoff honours the server's own estimate of relief.
func (c *ReliableClient) noteBusy(err error) {
	var be *busyError
	if errors.As(err, &be) && be.after > 0 {
		c.retryAfter = be.after
	}
}

// writeUnsent transmits every not-yet-written outbox frame in order and
// flushes. A frame that has exhausted MaxAttempts turns the client
// terminal via c.term; other failures are retryable link errors.
func (c *ReliableClient) writeUnsent() error {
	if c.sent == len(c.outbox) {
		return nil
	}
	if c.opt.AckTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.opt.AckTimeout)) //nolint:errcheck
	}
	for c.sent < len(c.outbox) {
		p := &c.outbox[c.sent]
		if p.attempts >= c.opt.MaxAttempts {
			c.term = fmt.Errorf("%w: frame seq %d abandoned after %d attempts",
				ErrClientClosed, p.seq, p.attempts)
			c.conn.Close()
			c.conn = nil
			return c.term
		}
		p.attempts++
		if p.attempts > 1 {
			c.met.Retries.Inc()
			sp := p.sp.Child("netio.retry")
			sp.AnnotateInt("attempt", int64(p.attempts))
			sp.End()
		}
		if _, err := c.bw.Write(p.frame); err != nil {
			return fmt.Errorf("netio: send: %w", err)
		}
		c.sent++
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("netio: send: %w", err)
	}
	return nil
}

// awaitAck consumes acknowledgements until the head-of-line frame is
// acked (popping it) or the link proves broken. Acknowledgements whose
// sequence matches no outstanding frame are stale re-acks of duplicates
// the server deduplicated — ignored, never fatal.
func (c *ReliableClient) awaitAck() error {
	for {
		if c.opt.AckTimeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.opt.AckTimeout)) //nolint:errcheck
		}
		status, seq, err := readAck(c.br)
		if err != nil {
			return err
		}
		switch status {
		case ackOK:
			if len(c.outbox) > 0 && seq == c.outbox[0].seq {
				p := c.outbox[0]
				c.outbox = c.outbox[1:]
				c.sent--
				c.streak = 0
				if c.ob != nil {
					// Retire the durable copy; a failure here only means the
					// frame replays after the next restart, and the station
					// re-acks replayed duplicates, so log rather than fail.
					if err := c.ob.Ack(p.seq); err != nil {
						c.log.Warn("outbox retire failed", "sensor", c.id, "seq", p.seq, "err", err)
					}
				}
				if p.sp != nil {
					p.sp.AnnotateInt("attempts", int64(p.attempts))
					p.sp.End()
					p.sp.Trace().Finish()
				}
				return nil
			}
			if c.seqOutstanding(seq) {
				// An ack for a non-head frame would mean the server skipped
				// one: a protocol violation, treat the link as poisoned.
				return fmt.Errorf("netio: ack for seq %d out of order", seq)
			}
			continue // stale re-ack of an already-popped frame
		case ackBusy:
			return &busyError{after: time.Duration(seq) * time.Millisecond}
		case ackError:
			// The server closes after an error ack; reconnect and
			// retransmit. A frame that is truly unacceptable (not just
			// corrupted in flight) exhausts its attempts and turns
			// terminal in writeUnsent.
			return fmt.Errorf("netio: server rejected frame seq %d", seq)
		default:
			return fmt.Errorf("netio: unknown ack status 0x%02x", status)
		}
	}
}

// seqOutstanding reports whether seq matches any outbox entry.
func (c *ReliableClient) seqOutstanding(seq int) bool {
	for i := range c.outbox {
		if c.outbox[i].seq == seq {
			return true
		}
	}
	return false
}

// dropConn discards the connection after a link failure; the next
// ensureConn redials under backoff and the outbox is retransmitted.
func (c *ReliableClient) dropConn(err error) {
	c.noteBusy(err)
	c.log.Warn("link failed", "sensor", c.id, "addr", c.addr,
		"unacked", len(c.outbox), "err", err)
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.sent = 0
	c.streak++
}

// backoffDelay computes the next reconnect delay: capped exponential in
// the failure streak, jittered to [d/2, d] so a fleet of sensors does
// not reconnect in lockstep, and clamped to [BackoffBase, BackoffMax].
// A pending busy retry-after hint from the server floors the delay and
// is consumed.
func (c *ReliableClient) backoffDelay() time.Duration {
	d := c.opt.BackoffBase
	for i := 1; i < c.streak && d < c.opt.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opt.BackoffMax {
		d = c.opt.BackoffMax
	}
	half := d / 2
	var j time.Duration
	if c.opt.Rand != nil {
		j = time.Duration(c.opt.Rand.Int63n(int64(half) + 1))
	} else {
		j = time.Duration(rand.Int63n(int64(half) + 1))
	}
	d = half + j
	if d < c.opt.BackoffBase {
		d = c.opt.BackoffBase
	}
	if d > c.opt.BackoffMax {
		d = c.opt.BackoffMax
	}
	if c.retryAfter > 0 {
		if d < c.retryAfter {
			d = c.retryAfter
		}
		c.retryAfter = 0
	}
	return d
}

// sleepBackoff sleeps the backoffDelay, cut short by Close's flush
// deadline when one is armed.
func (c *ReliableClient) sleepBackoff() {
	d := c.backoffDelay()
	if !c.flushBy.IsZero() {
		if left := time.Until(c.flushBy); left < d {
			d = left
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
}
