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
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dpm/internal/kernel"
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
	// down. It is transient: SessionExchange retries it.
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
// on reconnect), the channel its reply lands on and the timer that
// bounds the wait for it. Calls are reused (calls), the next request
// written into the frame array of the last: one goes back only once its
// reply or failure has been taken off done, since a call abandoned at
// its deadline or at a kill may still be sent one.
type call struct {
	frame []byte
	done  chan callResult // buffered 1; sender removes the call from inflight first
	timer *time.Timer     // stopped and drained, or fired and taken, between waits
}

// calls holds Session.Call's calls between uses.
var calls = sync.Pool{New: func() any { return &call{done: make(chan callResult, 1)} }}

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
	mem        sessionMem

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
		mem:        sessionMem{frames: frameFree.Stats(reg), replies: replyFree.Stats(reg)},
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

// Close shuts the session down: the connection is shut down, the
// supervisor closes it and exits, and pending calls fail with
// ErrSessionClosed. Close does not close the descriptor itself: the
// supervisor's read loop may be about to receive on it again, and
// another session's connection could have taken its number by then.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	fd := s.fd
	close(s.stopCh)
	s.mu.Unlock()
	if fd >= 0 {
		_ = s.p.Shutdown(fd)
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
func (s *Session) Call(req Message, timeout time.Duration) (*Reply, error) {
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
	c := calls.Get().(*call)
	c.frame = appendMsgFrame(c.frame[:0], FrameReq, id, req)
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

	c.timer = resetTimer(c.timer, timeout)
	select {
	case res := <-c.done:
		stopTimer(c.timer)
		if res.err == nil {
			t, _, _ := openWire(c.frame[frameHeader:], false)
			s.reg.Histogram(rttHistName(t)).Since(start)
		}
		calls.Put(c)
		return res.rep, res.err
	case <-c.timer.C:
		s.forget(id)
		select { // the reply may have raced the deadline
		case res := <-c.done:
			return res.rep, res.err
		default:
		}
		return nil, fmt.Errorf("session to %s: %w", s.host, kernel.ErrTimedOut)
	case <-s.p.KillChan():
		stopTimer(c.timer)
		s.forget(id)
		return nil, kernel.ErrKilled
	}
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

		rc, fr, err := dialFramed(s.p, s.host, s.cfg.Port, nil, time.Now().Add(s.cfg.HelloTimeout))
		if err != nil {
			if errors.Is(err, kernel.ErrKilled) {
				return
			}
			fails++
			if fails >= s.cfg.DownAfter {
				s.transitionDown(err)
			}
			var wait time.Duration
			if fails >= s.cfg.CircuitAfter {
				s.openCircuit(err)
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
		if !s.attach(rc.fd) {
			return // closed while dialing
		}
		err = s.readLoop(rc, fr)
		fr.release()
		s.detach(rc.fd)
		if errors.Is(err, kernel.ErrKilled) || s.isClosed() {
			return
		}
		s.setState(StateSuspect)
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
	// Copied: a call that fails once the lock is let go reuses its frame.
	var frames []byte
	for _, c := range s.inflight {
		frames = append(frames, c.frame...)
	}
	s.setStateLocked(StateUp)
	s.mu.Unlock()
	if wasUp {
		s.reconnects.Inc()
	}
	if len(frames) > 0 {
		_, _ = s.p.Send(fd, frames) // a failure: the read loop notices and reconnects again
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
func (s *Session) readLoop(rc *receiver, fr *frameReader) error {
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
			if _, err := s.p.Send(rc.fd, AppendFrame(nil, FramePing, pingID, nil)); err != nil {
				return err
			}
			wait = s.cfg.HeartbeatTimeout
		} else {
			wait = next.Sub(now)
		}
		rc.deadline = now.Add(wait)
		f, err := fr.next(rc.recv)
		if err != nil {
			if errors.Is(err, kernel.ErrTimedOut) {
				continue // just the heartbeat timer firing; fr keeps a partial frame
			}
			return err // the connection died, or corrupt framing: tear it down
		}
		idle = time.Now()
		switch f.Kind {
		case FrameRep:
			s.deliver(f, fr)
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

// deliver resolves a reply frame, which fr last read, against the
// in-flight table. Replies with no matching call — a duplicate after
// re-issue, or one whose caller gave up — are dropped. A frame too large
// for fr's own buffer is lent to the caller: its fields are read in
// place from the frameFree array fr received it into, which the
// caller's Release gives back.
func (s *Session) deliver(f Frame, fr *frameReader) {
	s.mu.Lock()
	c := s.inflight[f.ID]
	delete(s.inflight, f.ID)
	s.mu.Unlock()
	if c == nil {
		return
	}
	lent := fr.lend(f)
	rep := replyFree.Take(replySize, s.mem.replies)
	if err := rep.read(f.Payload, lent == nil); err != nil {
		if lent != nil {
			freeFrameBuf(lent, fr.mem)
		}
		replyFree.Put(rep, s.mem.replies)
		c.done <- callResult{err: err}
		return
	}
	rep.mem = &s.mem
	if lent != nil {
		rep.lent = lent
		framesLent.Add(1)
	}
	c.done <- callResult{rep: rep}
}

// sessionMem counts a session's traffic with the free lists its replies
// go back to.
type sessionMem struct {
	frames, replies *obs.FreeStats
}

// replyFree holds the Replies sessions deliver between uses: a call
// whose caller releases its reply allocates none.
var replyFree = &obs.FreeList[*Reply]{Name: "replies", Count: 64, Bytes: 64 * replySize,
	Size: func(*Reply) int { return replySize },
	New:  func(int) *Reply { return new(Reply) },
	Poison: func(r *Reply) {
		*r = Reply{Status: releasedReply, Data: releasedReply, Aux: releasedReply, mem: &releasedMem}
	}}

// releasedReply fills, in a test binary, the fields of a reply given
// back, and releasedMem marks it, so that a use after Release reads no
// reply and a second Release panics.
const releasedReply = "reply used after Release"

var releasedMem sessionMem

const replySize = int(unsafe.Sizeof(Reply{}))

// framesLent counts the frames lent to callers and not yet released.
var framesLent atomic.Int64

// LentFrames reports how many reply frames sessions have lent to their
// callers that have not been released yet.
func LentFrames() int64 { return framesLent.Load() }

// Release gives back a reply a session delivered, and the frame a large
// reply was read from, so that the next reply is read into them, not
// into new ones. Once it returns, the reply must not be used, nor the
// strings of a large one, or any string or slice taken from them; a
// small reply's strings stay valid. A reply is released at most once:
// the list may already have handed it to another caller. Releasing a
// reply no session delivered or a nil reply does nothing; an unreleased
// reply stays valid, and its frame goes to the collector with it.
func (r *Reply) Release() {
	if r == nil || r.mem == nil {
		return
	}
	if r.mem == &releasedMem {
		panic("daemon: reply released twice")
	}
	mem, lent := r.mem, r.lent
	*r = Reply{}
	if lent != nil {
		framesLent.Add(-1)
		freeFrameBuf(lent, mem.frames)
	}
	replyFree.Put(r, mem.replies)
}

// DataBytes returns the bytes of the reply's Data without copying them.
// They must not be written to, nor read once the reply is released.
func (r *Reply) DataBytes() []byte {
	return unsafe.Slice(unsafe.StringData(r.Data), len(r.Data))
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
// with the retryable ErrSessionDown, wrapping the failure of the last
// dial — callers stop waiting for a reconnect that is not coming soon.
func (s *Session) transitionDown(dialErr error) {
	s.setState(StateDown)
	s.failPending(fmt.Errorf("session to %s: %w: %w", s.host, ErrSessionDown, dialErr))
}

// openCircuit starts a breaker hold-off: background redialing slows
// to CircuitHold so a dead machine is not hammered, and anything
// still queued is shed. Demand probes (Call's poke) cut the hold
// short, so a machine that comes back is noticed as soon as someone
// wants it.
func (s *Session) openCircuit(dialErr error) {
	s.failPending(fmt.Errorf("session to %s: %w: %w", s.host, ErrSessionDown, dialErr))
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
