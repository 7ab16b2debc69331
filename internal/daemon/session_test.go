package daemon

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// fastSession is a config tuned for test time scales: quick
// heartbeats, quick reconnects, no circuit breaker surprises.
func fastSession() SessionConfig {
	return SessionConfig{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		HelloTimeout:      250 * time.Millisecond,
		Backoff:           RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		DownAfter:         3,
		CircuitAfter:      1000, // effectively off unless a test wants it
		CircuitHold:       time.Second,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// hasStateSubsequence reports whether hist contains want as a
// (not necessarily contiguous) subsequence.
func hasStateSubsequence(hist []SessionState, want ...SessionState) bool {
	i := 0
	for _, st := range hist {
		if i < len(want) && st == want[i] {
			i++
		}
	}
	return i == len(want)
}

func TestSessionBasicCall(t *testing.T) {
	r := newRig(t)
	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()

	rep, err := s.Call(&WireMsg{Type: TListReq}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("list over session: %s", rep.Status)
	}
	if got := s.State(); got != StateUp {
		t.Fatalf("state after successful call = %v, want up", got)
	}

	rep, err = SessionExchange(s, &WireMsg{Type: TStatsReq}, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("stats over session: %s", rep.Status)
	}

	s.Close()
	if _, err := s.Call(&WireMsg{Type: TListReq}, time.Second); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("call after close: %v, want ErrSessionClosed", err)
	}
	s.Close() // idempotent
}

// TestSessionPipelinedCreates runs many concurrent creates over one
// session and checks each reply went back to the caller that asked
// for it: the daemon's token ledger must agree, request by request,
// with the pid the session call reported.
func TestSessionPipelinedCreates(t *testing.T) {
	r := newRig(t)
	r.pingOn(r.red)
	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()

	const n = 8
	pids := make([]int, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			req := &CreateReq{Filename: "/bin/ping", UID: testUID,
				Token: fmt.Sprintf("pipeline-%d", i)}
			rep, err := s.Call(req.Wire(), 2*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			if !rep.OK() {
				errs[i] = errors.New(rep.Status)
				return
			}
			pids[i] = rep.PID
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if got := pingCount(r.red); got != n {
		t.Fatalf("%d ping processes, want %d", got, n)
	}
	// Cross-check reply matching against the ledger via the legacy
	// one-shot path: the same token must report the same pid.
	for i := 0; i < n; i++ {
		req := &CreateReq{Filename: "/bin/ping", UID: testUID,
			Token: fmt.Sprintf("pipeline-%d", i)}
		rep, err := Exchange(r.ctl, "red", req.Wire())
		if err != nil {
			t.Fatal(err)
		}
		if rep.PID != pids[i] {
			t.Fatalf("call %d got pid %d but ledger says %d — replies crossed", i, pids[i], rep.PID)
		}
	}
	if hw := r.yellow.Obs().Gauge("session.inflight").Load(); hw < 1 {
		t.Fatalf("session.inflight high-water = %d, want >= 1", hw)
	}
}

// TestSessionStateMachineAcrossRestart pins the lifecycle: a session
// that was up goes suspect when its machine crashes, down after
// enough failed dials, and up again once the machine restarts and a
// daemon is listening.
func TestSessionStateMachineAcrossRestart(t *testing.T) {
	r := newRig(t)
	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()

	if rep, err := s.Call(&WireMsg{Type: TListReq}, time.Second); err != nil || !rep.OK() {
		t.Fatalf("list before crash: %v", err)
	}

	if err := r.c.CrashMachine("red"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "session down after crash", func() bool {
		return s.State() == StateDown
	})

	m2, err := r.c.RestartMachine("red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(r.c, m2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "session up after restart", func() bool {
		return s.State() == StateUp
	})

	if rep, err := s.Call(&WireMsg{Type: TListReq}, time.Second); err != nil || !rep.OK() {
		t.Fatalf("list after restart: %v", err)
	}
	if hist := s.History(); !hasStateSubsequence(hist, StateUp, StateSuspect, StateDown, StateUp) {
		t.Fatalf("history %v missing up → suspect → down → up", hist)
	}
}

// spawnMuteDaemon runs a fake daemon that completes the session
// handshake and then ignores everything — the wedged-peer case only a
// heartbeat can detect.
func spawnMuteDaemon(t *testing.T, m *kernel.Machine, port uint16) {
	t.Helper()
	_, err := m.Spawn(kernel.SpawnSpec{UID: 0, Name: "muted", Program: func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return 1
		}
		if err := p.BindPort(lfd, port); err != nil {
			return 1
		}
		if err := p.Listen(lfd, 8); err != nil {
			return 1
		}
		for {
			conn, _, err := p.Accept(lfd)
			if err != nil {
				return 0
			}
			p.Go(func() {
				var buf []byte
				for {
					if len(buf) >= 4 && isFrameMagic(buf) {
						if _, n, err := ParseFrame(buf[4:]); err == nil {
							buf = buf[4+n:]
							break
						}
					}
					data, rerr := p.Recv(conn, 8192)
					if rerr != nil {
						return
					}
					buf = append(buf, data...)
				}
				if _, err := p.Send(conn, appendHello(nil)); err != nil {
					return
				}
				for { // swallow pings and requests alike
					if _, err := p.Recv(conn, 8192); err != nil {
						return
					}
				}
			})
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "mute daemon listening", func() bool {
		return m.PortBound(kernel.SockStream, port)
	})
}

// TestSessionHeartbeatSuspect: a peer that answers the handshake but
// nothing else must be detected by the heartbeat — the session goes
// suspect and keeps reconnecting.
func TestSessionHeartbeatSuspect(t *testing.T) {
	r := newRig(t)
	const mutePort = 9990
	spawnMuteDaemon(t, r.red, mutePort)

	cfg := fastSession()
	cfg.Port = mutePort
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()

	waitFor(t, 2*time.Second, "heartbeat-driven suspect", func() bool {
		return hasStateSubsequence(s.History(), StateUp, StateSuspect)
	})
	waitFor(t, 2*time.Second, "reconnect after suspect", func() bool {
		return r.yellow.Obs().Counter("session.reconnects").Load() >= 1
	})
	if got := r.yellow.Obs().Histogram("session.heartbeat_rtt").Count(); got != 0 {
		t.Fatalf("heartbeat_rtt observed %d times against a mute peer", got)
	}
}

// spawnGarbageDaemon listens on port and answers every connection with
// bytes that are no session hello, then closes.
func spawnGarbageDaemon(t *testing.T, m *kernel.Machine, port uint16) {
	t.Helper()
	_, err := m.Spawn(kernel.SpawnSpec{UID: 0, Name: "garbaged", Program: func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return 1
		}
		if err := p.BindPort(lfd, port); err != nil {
			return 1
		}
		if err := p.Listen(lfd, 8); err != nil {
			return 1
		}
		for {
			conn, _, err := p.Accept(lfd)
			if err != nil {
				return 0
			}
			_, _ = p.Send(conn, []byte("220 not a daemon\r\n"))
			_ = p.Close(conn)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "garbage daemon listening", func() bool {
		return m.PortBound(kernel.SockStream, port)
	})
}

// TestSessionGarbagePeerGoesDown: a peer that answers the hello with
// garbage is a failed dial like any other — the session walks to down,
// and an exchange over it degrades to ErrExhausted inside its deadline
// instead of hanging.
func TestSessionGarbagePeerGoesDown(t *testing.T) {
	r := newRig(t)
	const garbagePort = 9991
	spawnGarbageDaemon(t, r.red, garbagePort)

	cfg := fastSession()
	cfg.Port = garbagePort
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()

	waitFor(t, 2*time.Second, "session down", func() bool { return s.State() == StateDown })
	if hist := s.History(); hasStateSubsequence(hist, StateUp) {
		t.Fatalf("history %v: the session came up against a peer that never said hello", hist)
	}
	rp := RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, ReplyTimeout: 200 * time.Millisecond}
	start := time.Now()
	_, err := SessionExchange(s, &WireMsg{Type: TListReq}, rp)
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, ErrSessionDown) {
		t.Fatalf("exchange over a garbage peer: %v, want ErrExhausted wrapping ErrSessionDown", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("exchange took %v to give up; its three attempts are bounded by 200 ms each", took)
	}
}

// TestSessionCreateAcrossFlap is the transparent re-issue guarantee:
// a create driven through a session while its link flaps lands
// exactly once, and the caller gets the reply.
func TestSessionCreateAcrossFlap(t *testing.T) {
	r := newRig(t)
	r.pingOn(r.green)
	s := DialSession(r.ctl, "green", fastSession())
	defer s.Close()

	if rep, err := s.Call(&WireMsg{Type: TListReq}, time.Second); err != nil || !rep.OK() {
		t.Fatalf("list before flap: %v", err)
	}

	n, err := r.c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(r.yellow.PrimaryHostID(), r.green.PrimaryHostID())

	req := &CreateReq{Filename: "/bin/ping", UID: testUID, Token: "flap-green-0"}
	done := make(chan error, 1)
	go func() {
		rep, err := SessionExchange(s, req.Wire(), RetryPolicy{
			MaxAttempts: 50, BaseDelay: 5 * time.Millisecond,
			MaxDelay: 10 * time.Millisecond, ReplyTimeout: 250 * time.Millisecond,
		})
		if err == nil && !rep.OK() {
			err = errors.New(rep.Status)
		}
		done <- err
	}()

	time.Sleep(30 * time.Millisecond)
	n.Heal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("create across flap: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("create never completed after heal")
	}
	if got := pingCount(r.green); got != 1 {
		t.Fatalf("%d ping processes after flap, want exactly 1", got)
	}
	if hist := s.History(); !hasStateSubsequence(hist, StateUp, StateSuspect) {
		t.Fatalf("history %v shows no suspect during the flap", hist)
	}
	waitFor(t, 2*time.Second, "session back up after heal", func() bool {
		return s.State() == StateUp
	})
}

// TestSessionDownFailsFast: a call against a down session (here held
// off by the open circuit breaker) triggers an immediate demand-probe
// dial and fails with the retryable ErrSessionDown as soon as the
// dial does — it never sits out its reply deadline.
func TestSessionDownFailsFast(t *testing.T) {
	r := newRig(t)
	n, err := r.c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(r.yellow.PrimaryHostID(), r.red.PrimaryHostID())

	cfg := fastSession()
	cfg.DownAfter = 2
	cfg.CircuitAfter = 3
	cfg.CircuitHold = 300 * time.Millisecond
	cfg.Backoff = RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 4 * time.Millisecond}
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()

	waitFor(t, 2*time.Second, "session down across partition", func() bool {
		return s.State() == StateDown
	})
	time.Sleep(50 * time.Millisecond) // well inside a breaker hold-off
	start := time.Now()
	_, err = s.Call(&WireMsg{Type: TListReq}, 5*time.Second)
	if !errors.Is(err, ErrSessionDown) {
		t.Fatalf("call while held off: %v, want ErrSessionDown", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("call against down session took %v — it waited instead of failing fast", elapsed)
	}
	if !transientExchangeErr(err) {
		t.Fatal("ErrSessionDown must be retryable")
	}

	n.Heal()
	waitFor(t, 3*time.Second, "session recovers after heal", func() bool {
		return s.State() == StateUp
	})
}
