package daemon

// The controller half of the persistent control-plane session: a
// supervised connection to one machine's daemon that carries many
// concurrent requests (frame.go has the framing, mux.go the daemon
// half). A supervisor goroutine owns the connection and walks the
// session through connecting → up → suspect → down: heartbeat pings
// probe an idle link, a missed pong marks it suspect, and reconnects
// back off exponentially with jitter behind a circuit breaker.
// Requests still in flight when a connection dies are re-issued
// transparently on the next one — safe because every daemon request
// is idempotent (creates carry CreateReq.Token for exactly this).

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
)

// SessionState is where a session's supervisor is in its lifecycle.
type SessionState int

// Explicit values keep the session.state gauge readable.
const (
	// StateConnecting: no connection; a dial is imminent or underway.
	StateConnecting SessionState = 0
	// StateUp: handshake done, requests flow.
	StateUp SessionState = 1
	// StateSuspect: the connection died or missed a heartbeat;
	// in-flight requests are held for re-issue on the next connection.
	StateSuspect SessionState = 2
	// StateDown: repeated dial failures; calls fail with a retryable
	// error until a dial succeeds.
	StateDown SessionState = 3
)

func (s SessionState) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// SessionConfig tunes a session's liveness machinery. The zero value
// selects the defaults; docs/controlplane.md discusses the trade-offs.
type SessionConfig struct {
	HeartbeatInterval time.Duration // idle gap before a ping; default 250ms
	HeartbeatTimeout  time.Duration // missed-pong deadline → suspect; default 500ms
	HelloTimeout      time.Duration // handshake reply deadline; default 1s
	Backoff           RetryPolicy   // reconnect pacing: BaseDelay, MaxDelay, Rand
	DownAfter         int           // consecutive failed dials → down; default 3
	CircuitAfter      int           // consecutive failed dials → breaker opens; default 6
	CircuitHold       time.Duration // breaker hold-off between background dials (demand probes cut it short); default 2s
	Port              uint16        // daemon port; default Port
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 500 * time.Millisecond
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = time.Second
	}
	c.Backoff = c.Backoff.withDefaults()
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.CircuitAfter <= 0 {
		c.CircuitAfter = 6
	}
	if c.CircuitHold <= 0 {
		c.CircuitHold = 2 * time.Second
	}
	if c.Port == 0 {
		c.Port = Port
	}
	return c
}

var (
	// ErrSessionDown fails a call fast while the circuit breaker holds
	// the session off, and fails held in-flights when the session goes
	// down. It is transient: ExchangeRetry/SessionExchange retry it.
	ErrSessionDown = errors.New("daemon: session down")
	// ErrSessionClosed fails calls on a session after Close.
	ErrSessionClosed = errors.New("daemon: session closed")

	// errHandshake fails a dial whose peer closed on our hello or
	// answered it with something else: a failed dial like any other.
	errHandshake = errors.New("daemon: peer did not answer the session hello")
	// errHeartbeatMissed tears a connection down from the inside.
	errHeartbeatMissed = errors.New("daemon: heartbeat missed")
)

type callResult struct {
	rep *Reply
	err error
}

// call is one in-flight request: its encoded frame (kept for re-issue
// on reconnect) and the channel its reply lands on.
type call struct {
	frame []byte
	done  chan callResult // buffered 1; sender removes the call from inflight first
}

// Session is a supervised persistent connection to one machine's
// daemon. Safe for concurrent use; Call pipelines freely.
type Session struct {
	p    *kernel.Process
	host string
	cfg  SessionConfig

	reg        *obs.Registry
	reconnects *obs.Counter   // session.reconnects
	hbRTT      *obs.Histogram // session.heartbeat_rtt
	inflightHW *obs.Gauge     // session.inflight (high-water)
	stateGauge *obs.Gauge     // session.state (current, by value)

	mu       sync.Mutex
	state    SessionState
	history  []SessionState // every transition, for tests and postmortems
	nextID   uint64         // request and ping ids share one sequence
	inflight map[uint64]*call
	fd       int // current connection, -1 when none
	closed   bool
	everUp   bool

	stopCh chan struct{} // closed by Close
	wake   chan struct{} // demand probe: cuts a supervisor sleep short
}

// DialSession starts a session to host's daemon and returns
// immediately; the supervisor goroutine dials, handshakes, and keeps
// the session alive until Close (or the owning process dies). Calls
// made before the first connection is up are queued and sent once it
// is.
func DialSession(p *kernel.Process, host string, cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	reg := p.Machine().Obs()
	s := &Session{
		p:          p,
		host:       host,
		cfg:        cfg,
		reg:        reg,
		reconnects: reg.Counter("session.reconnects"),
		hbRTT:      reg.Histogram("session.heartbeat_rtt"),
		inflightHW: reg.Gauge("session.inflight"),
		stateGauge: reg.Gauge("session.state"),
		state:      StateConnecting,
		history:    []SessionState{StateConnecting},
		inflight:   make(map[uint64]*call),
		fd:         -1,
		stopCh:     make(chan struct{}),
		wake:       make(chan struct{}, 1),
	}
	s.stateGauge.Set(int64(StateConnecting))
	reg.Counter("session.state.connecting").Inc()
	p.Go(s.run)
	return s
}

// Host returns the machine this session serves.
func (s *Session) Host() string { return s.host }

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// History returns every state transition so far, oldest first.
func (s *Session) History() []SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionState, len(s.history))
	copy(out, s.history)
	return out
}

// Close shuts the session down: the connection is closed, the
// supervisor exits, and pending calls fail with ErrSessionClosed.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	fd := s.fd
	s.fd = -1
	close(s.stopCh)
	s.mu.Unlock()
	if fd >= 0 {
		_ = s.p.Close(fd)
	}
	s.failPending(ErrSessionClosed)
}

// Call sends one request over the session and waits for its reply up
// to timeout (zero picks the default reply deadline). If the
// connection dies first, the request stays in flight and is re-issued
// on the next connection. A call made while the session is not up
// wakes the supervisor to dial immediately: against a dead machine
// the dial fails at once and the call gets the retryable
// ErrSessionDown, so callers never wait out the deadline just to
// learn the machine is gone.
func (s *Session) Call(req *WireMsg, timeout time.Duration) (*Reply, error) {
	if timeout <= 0 {
		timeout = DefaultRetryPolicy().ReplyTimeout
	}
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	s.nextID++
	id := s.nextID
	c := &call{frame: wireFrame(FrameReq, id, req), done: make(chan callResult, 1)}
	s.inflight[id] = c
	s.inflightHW.SetMax(int64(len(s.inflight)))
	fd := -1
	if s.state == StateUp {
		fd = s.fd
	}
	s.mu.Unlock()

	if fd >= 0 {
		// A send failure means the connection just died under us; the
		// supervisor notices, reconnects, and re-issues this call.
		_, _ = s.p.Send(fd, c.frame)
	} else {
		// Demand probe: wake the supervisor out of its backoff or
		// breaker hold so the dial happens now. Against a machine that
		// is really down the dial fails immediately and this call gets
		// its retryable error; against one that just healed the session
		// comes up and the call goes out.
		s.poke()
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-c.done:
		if res.err == nil {
			s.reg.Histogram(rttHistName(req.Type)).Since(start)
		}
		return res.rep, res.err
	case <-timer.C:
		s.forget(id)
		select { // the reply may have raced the deadline
		case res := <-c.done:
			return res.rep, res.err
		default:
		}
		return nil, fmt.Errorf("session to %s: %w", s.host, kernel.ErrTimedOut)
	case <-s.p.KillChan():
		s.forget(id)
		return nil, kernel.ErrKilled
	}
}

// SessionExchange is ExchangeRetry over a session: each attempt runs
// under the policy's reply deadline and transient failures — a
// session down, a timed-out reply — back off and retry.
func SessionExchange(s *Session, req *WireMsg, rp RetryPolicy) (*Reply, error) {
	rp = rp.withDefaults()
	delay := rp.BaseDelay
	var lastErr error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.reg.Counter("daemon.retries").Inc()
			time.Sleep(delay + rp.jitter(delay))
			if delay *= 2; delay > rp.MaxDelay {
				delay = rp.MaxDelay
			}
		}
		rep, err := s.Call(req, rp.ReplyTimeout)
		if err == nil {
			return rep, nil
		}
		lastErr = err
		if !transientExchangeErr(err) {
			return nil, err
		}
	}
	s.reg.Counter("daemon.exhausted").Inc()
	return nil, fmt.Errorf("%w: %v to %s failed after %d attempts: %w",
		ErrExhausted, req.Type, s.host, rp.MaxAttempts, lastErr)
}

// --- supervisor ---

// run is the supervisor: dial, pump, reconnect, forever. It exits on
// Close or process death.
func (s *Session) run() {
	fails := 0
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		s.mu.Lock()
		// Down persists across reconnect attempts — down means "dials
		// keep failing", not "between dials"; anything milder becomes
		// connecting.
		if s.state != StateDown {
			s.setStateLocked(StateConnecting)
		}
		s.mu.Unlock()

		fd, leftover, err := s.dialSession()
		if err != nil {
			if errors.Is(err, kernel.ErrKilled) {
				return
			}
			fails++
			if fails >= s.cfg.DownAfter {
				s.transitionDown()
			}
			var wait time.Duration
			if fails >= s.cfg.CircuitAfter {
				s.openCircuit()
				wait = s.cfg.CircuitHold
			} else {
				wait = s.backoff(fails)
			}
			if !s.sleep(wait) {
				return
			}
			continue
		}
		fails = 0
		if !s.attach(fd) {
			return // closed while dialing
		}
		err = s.readLoop(fd, leftover)
		s.detach(fd)
		if errors.Is(err, kernel.ErrKilled) || s.isClosed() {
			return
		}
		s.setState(StateSuspect)
	}
}

// dialSession connects, sends the magic preamble plus hello, and waits
// for the daemon's hello back. It returns the connection and any bytes
// read past the handshake. errHandshake means the peer either closed
// on our magic or answered with something other than a session hello.
func (s *Session) dialSession() (int, []byte, error) {
	hostID, _, err := s.p.Machine().Cluster().ResolveFrom(s.p.Machine(), s.host)
	if err != nil {
		return -1, nil, err
	}
	fd, err := s.p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return -1, nil, err
	}
	fail := func(err error) (int, []byte, error) {
		_ = s.p.Close(fd)
		return -1, nil, err
	}
	if err := s.p.Connect(fd, meter.InetName(hostID, s.cfg.Port)); err != nil {
		return fail(fmt.Errorf("session to %s: %w", s.host, err))
	}
	if _, err := s.p.Send(fd, appendHello(nil)); err != nil {
		return fail(err)
	}
	deadline := time.Now().Add(s.cfg.HelloTimeout)
	var buf []byte
	sawMagic := false
	for {
		if !sawMagic && len(buf) >= 4 {
			if !isFrameMagic(buf) {
				return fail(errHandshake)
			}
			buf = buf[4:]
			sawMagic = true
		}
		if sawMagic {
			f, n, perr := ParseFrame(buf)
			if perr == nil {
				if f.Kind != FrameHello || !helloOK(f.Payload) {
					return fail(errHandshake)
				}
				return fd, buf[n:], nil
			}
			if !errors.Is(perr, ErrWireShort) {
				return fail(errHandshake)
			}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fail(kernel.ErrTimedOut)
		}
		data, _, rerr := s.p.RecvTimeout(fd, 8192, remaining)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				// Whatever listens there is not a daemon.
				return fail(errHandshake)
			}
			return fail(rerr)
		}
		buf = append(buf, data...)
	}
}

// attach installs a fresh connection, flips the session up, and
// re-issues every request still in flight from the previous one.
// Reports false if the session was closed while dialing.
func (s *Session) attach(fd int) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = s.p.Close(fd)
		return false
	}
	s.fd = fd
	wasUp := s.everUp
	s.everUp = true
	frames := make([][]byte, 0, len(s.inflight))
	for _, c := range s.inflight {
		frames = append(frames, c.frame)
	}
	s.setStateLocked(StateUp)
	s.mu.Unlock()
	if wasUp {
		s.reconnects.Inc()
	}
	for _, fr := range frames {
		if _, err := s.p.Send(fd, fr); err != nil {
			break // the read loop will notice and reconnect again
		}
	}
	return true
}

// detach retires a connection if the session still owns it (Close may
// have taken it already — and its descriptor may since have been
// recycled, so closing unconditionally would hit a stranger's socket).
func (s *Session) detach(fd int) {
	s.mu.Lock()
	owned := s.fd == fd
	if owned {
		s.fd = -1
	}
	s.mu.Unlock()
	if owned {
		_ = s.p.Close(fd)
	}
}

// readLoop pumps one connection: it matches reply frames to in-flight
// calls and runs the heartbeat — after HeartbeatInterval of silence a
// ping goes out, and a pong missing for HeartbeatTimeout kills the
// connection from our side (the peer is wedged or the path is gone).
func (s *Session) readLoop(fd int, leftover []byte) error {
	fr := frameReader{pending: leftover}
	idle := time.Now()
	var pingID uint64
	var pingSent time.Time
	pingOut := false
	for {
		now := time.Now()
		var wait time.Duration
		if pingOut {
			pongBy := pingSent.Add(s.cfg.HeartbeatTimeout)
			if !now.Before(pongBy) {
				return errHeartbeatMissed
			}
			wait = pongBy.Sub(now)
		} else if next := idle.Add(s.cfg.HeartbeatInterval); !now.Before(next) {
			s.mu.Lock()
			s.nextID++
			pingID = s.nextID
			s.mu.Unlock()
			pingSent, pingOut = now, true
			if _, err := s.p.Send(fd, AppendFrame(nil, FramePing, pingID, nil)); err != nil {
				return err
			}
			wait = s.cfg.HeartbeatTimeout
		} else {
			wait = next.Sub(now)
		}
		f, err := fr.next(func(max int) ([]byte, error) {
			data, _, err := s.p.RecvTimeout(fd, max, wait)
			return data, err
		})
		if err != nil {
			if errors.Is(err, kernel.ErrTimedOut) {
				continue // just the heartbeat timer firing; fr keeps a partial frame
			}
			return err // the connection died, or corrupt framing: tear it down
		}
		idle = time.Now()
		switch f.Kind {
		case FrameRep:
			s.deliver(f)
		case FramePong:
			if pingOut && f.ID == pingID {
				pingOut = false
				s.hbRTT.Since(pingSent)
			}
		default:
			// Unknown frame kinds are skipped, as in the daemon mux.
		}
	}
}

// deliver resolves a reply frame against the in-flight table. Replies
// with no matching call — a duplicate after re-issue, or one whose
// caller gave up — are dropped.
func (s *Session) deliver(f Frame) {
	s.mu.Lock()
	c := s.inflight[f.ID]
	delete(s.inflight, f.ID)
	s.mu.Unlock()
	if c == nil {
		return
	}
	w, _, err := DecodeWire(f.Payload)
	if err != nil {
		c.done <- callResult{err: err}
		return
	}
	c.done <- callResult{rep: ParseReply(w)}
}

func (s *Session) forget(id uint64) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
}

// failPending drains the in-flight table, failing every call with err.
func (s *Session) failPending(err error) {
	s.mu.Lock()
	calls := make([]*call, 0, len(s.inflight))
	for id, c := range s.inflight {
		delete(s.inflight, id)
		calls = append(calls, c)
	}
	s.mu.Unlock()
	for _, c := range calls {
		c.done <- callResult{err: err}
	}
}

// transitionDown marks the session down and fails held in-flights
// with the retryable ErrSessionDown — callers stop waiting for a
// reconnect that is not coming soon.
func (s *Session) transitionDown() {
	s.setState(StateDown)
	s.failPending(fmt.Errorf("session to %s: %w", s.host, ErrSessionDown))
}

// openCircuit starts a breaker hold-off: background redialing slows
// to CircuitHold so a dead machine is not hammered, and anything
// still queued is shed. Demand probes (Call's poke) cut the hold
// short, so a machine that comes back is noticed as soon as someone
// wants it.
func (s *Session) openCircuit() {
	s.failPending(fmt.Errorf("session to %s: %w", s.host, ErrSessionDown))
}

func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.setStateLocked(st)
	s.mu.Unlock()
}

func (s *Session) setStateLocked(st SessionState) {
	if s.state == st {
		return
	}
	s.state = st
	// Bound the transition record: a session flapping against a dead
	// machine for hours must not grow memory without limit.
	if len(s.history) >= 4096 {
		s.history = append([]SessionState(nil), s.history[2048:]...)
	}
	s.history = append(s.history, st)
	s.stateGauge.Set(int64(st))
	s.reg.Counter("session.state." + st.String()).Inc()
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// backoff is the reconnect delay after the fails-th consecutive dial
// failure: exponential from the policy's base, capped, plus jitter.
func (s *Session) backoff(fails int) time.Duration {
	rp := s.cfg.Backoff
	d := rp.BaseDelay
	for i := 1; i < fails && d < rp.MaxDelay; i++ {
		d *= 2
	}
	if d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	return d + rp.jitter(d)
}

// poke cuts the supervisor's current (or next) sleep short.
func (s *Session) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// sleep pauses the supervisor, waking early on a demand probe and
// aborting if the session closes or the owning process dies. Reports
// false if the supervisor should exit.
func (s *Session) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.wake:
		return true
	case <-s.stopCh:
		return false
	case <-s.p.KillChan():
		return false
	}
}
