package daemon

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// pingCount counts live processes running /bin/ping on a machine.
func pingCount(m *kernel.Machine) int {
	n := 0
	for _, p := range m.Procs() {
		if p.Name() == "/bin/ping" {
			n++
		}
	}
	return n
}

func (r *testRig) pingOn(m *kernel.Machine) {
	r.t.Helper()
	registerPing(r.c)
	if err := m.FS().CreateExecutable("/bin/ping", testUID, "ping"); err != nil {
		r.t.Fatal(err)
	}
}

func TestExchangeRetrySurvivesPartition(t *testing.T) {
	r := newRig(t)
	n, err := r.c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(r.yellow.PrimaryHostID(), r.red.PrimaryHostID())

	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		rep, err := SessionExchange(s, &WireMsg{Type: TListReq}, RetryPolicy{
			MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
		})
		if err == nil && !rep.OK() {
			err = errors.New(rep.Status)
		}
		done <- err
	}()

	time.Sleep(20 * time.Millisecond)
	n.Heal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exchange after heal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exchange never completed after heal")
	}
}

func TestExchangeRetryExhaustsWithWrappedError(t *testing.T) {
	r := newRig(t)
	n, err := r.c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(r.yellow.PrimaryHostID(), r.red.PrimaryHostID())

	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()
	_, err = SessionExchange(s, &WireMsg{Type: TListReq}, RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	if !errors.Is(err, kernel.ErrHostUnreach) {
		t.Fatalf("err = %v, want wrapped ErrHostUnreach", err)
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Fatalf("err = %v, want attempt count in message", err)
	}
}

// TestExchangeRetryPermanentErrorNotRetried: a call that cannot
// succeed on any attempt, one on a closed session, fails at once.
func TestExchangeRetryPermanentErrorNotRetried(t *testing.T) {
	r := newRig(t)
	s := DialSession(r.ctl, "red", fastSession())
	s.Close()
	start := time.Now()
	_, err := SessionExchange(s, &WireMsg{Type: TListReq}, RetryPolicy{
		MaxAttempts: 10, BaseDelay: 200 * time.Millisecond,
	})
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("exchange on a closed session: %v, want ErrSessionClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("unknown machine took %v — it was retried", elapsed)
	}
}

// recordingJitter is a seedable JitterSource that records the bounds
// and values it was asked for.
type recordingJitter struct {
	r      *rand.Rand
	bounds []int64
	draws  []int64
}

func (j *recordingJitter) Int63n(n int64) int64 {
	v := j.r.Int63n(n)
	j.bounds = append(j.bounds, n)
	j.draws = append(j.draws, v)
	return v
}

// TestRetryJitterSeedable: backoff jitter comes from the policy's
// injected source, following the exponential schedule, and two runs
// with the same seed draw identical jitter — the reproducibility the
// chaos soak depends on.
func TestRetryJitterSeedable(t *testing.T) {
	r := newRig(t)
	n, err := r.c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(r.yellow.PrimaryHostID(), r.red.PrimaryHostID())

	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()
	run := func(seed int64) *recordingJitter {
		j := &recordingJitter{r: rand.New(rand.NewSource(seed))}
		_, err := SessionExchange(s, &WireMsg{Type: TListReq}, RetryPolicy{
			MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Rand: j,
		})
		if !errors.Is(err, ErrExhausted) {
			t.Fatalf("exchange across partition: %v, want ErrExhausted", err)
		}
		return j
	}

	j1 := run(7)
	wantBounds := []int64{int64(time.Millisecond), int64(2 * time.Millisecond), int64(4 * time.Millisecond)}
	if len(j1.bounds) != len(wantBounds) {
		t.Fatalf("jitter drawn %d times, want %d", len(j1.bounds), len(wantBounds))
	}
	for i, b := range wantBounds {
		if j1.bounds[i] != b {
			t.Fatalf("jitter bound %d = %d, want %d (exponential schedule)", i, j1.bounds[i], b)
		}
	}

	j2 := run(7)
	for i := range j1.draws {
		if j1.draws[i] != j2.draws[i] {
			t.Fatalf("draw %d differs across identically-seeded runs: %d vs %d", i, j1.draws[i], j2.draws[i])
		}
	}
	if j3 := run(8); len(j3.draws) != len(j1.draws) {
		t.Fatalf("draw count differs across seeds: %d vs %d", len(j3.draws), len(j1.draws))
	}
}

// rawConn connects the rig's controller process to red's daemon and
// sends out, returning the connection.
func (r *testRig) rawConn(out []byte) int {
	r.t.Helper()
	hostID, _, err := r.c.ResolveFrom(r.yellow, "red")
	if err != nil {
		r.t.Fatal(err)
	}
	fd, err := r.ctl.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.ctl.Connect(fd, meter.InetName(hostID, Port)); err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.ctl.Send(fd, out); err != nil {
		r.t.Fatal(err)
	}
	return fd
}

// TestCreateTokenPreventsDoubleCreate is the lost-reply scenario: the
// first create request reaches the daemon but the connection dies (as
// in a partition mid-exchange) before the reply comes back, so the
// controller retries with the same token. Exactly one process must
// exist, and the retried create must report the original pid.
func TestCreateTokenPreventsDoubleCreate(t *testing.T) {
	r := newRig(t)
	r.pingOn(r.red)

	req := &CreateReq{Filename: "/bin/ping", UID: testUID, Token: "job1-red-0"}

	// First attempt: deliver the request as Exchange does — magic,
	// hello, one request frame — then tear the connection down without
	// reading the reply: the reply is lost in the "partition".
	fd := r.rawConn(AppendFrame(appendHello(nil), FrameReq, 1, req.Wire().Encode()))
	if err := r.ctl.Close(fd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the create whose reply was lost", func() bool { return pingCount(r.red) == 1 })

	// Retry with the same token: the daemon must recognize it.
	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()
	rep, err := SessionExchange(s, req, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.PID == 0 {
		t.Fatalf("retried create reply = %+v", rep)
	}
	if got := pingCount(r.red); got != 1 {
		t.Fatalf("%d ping processes after retried create, want exactly 1", got)
	}
	if _, err := r.red.Proc(rep.PID); err != nil {
		t.Fatalf("reported pid %d not alive: %v", rep.PID, err)
	}

	// A third identical create is still the same process.
	rep2, err := Exchange(r.ctl, "red", req)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PID != rep.PID {
		t.Fatalf("token reuse created pid %d, want %d", rep2.PID, rep.PID)
	}
	if got := pingCount(r.red); got != 1 {
		t.Fatalf("%d ping processes after third create, want 1", got)
	}

	// Distinct tokens still create distinct processes.
	req2 := &CreateReq{Filename: "/bin/ping", UID: testUID, Token: "job1-red-1"}
	rep3, err := Exchange(r.ctl, "red", req2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.OK() || rep3.PID == rep.PID {
		t.Fatalf("distinct token reply = %+v (first pid %d)", rep3, rep.PID)
	}
	if got := pingCount(r.red); got != 2 {
		t.Fatalf("%d ping processes after distinct-token create, want 2", got)
	}
}

// TestUnframedCreateRefused: a Figure 3.6 create sent bare, without the
// magic and the frames around it, is not a connection the daemon
// serves. It gets no reply and creates no process, and it leaves no
// trace in the token ledger: the same create framed runs once.
func TestUnframedCreateRefused(t *testing.T) {
	r := newRig(t)
	r.pingOn(r.red)
	req := &CreateReq{Filename: "/bin/ping", UID: testUID, Token: "bare-red-0"}

	fd := r.rawConn(req.Wire().Encode())
	buf := make([]byte, 8192)
	n, err := r.ctl.RecvInto(fd, buf, time.After(2*time.Second))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("unframed create answered %q, %v; want the connection closed unanswered", buf[:n], err)
	}
	if err := r.ctl.Close(fd); err != nil {
		t.Fatal(err)
	}
	if got := pingCount(r.red); got != 0 {
		t.Fatalf("%d ping processes after an unframed create, want 0", got)
	}

	rep, err := Exchange(r.ctl, "red", req)
	if err != nil || !rep.OK() {
		t.Fatalf("framed create: %v %+v", err, rep)
	}
	if got := pingCount(r.red); got != 1 {
		t.Fatalf("%d ping processes after the framed create, want 1", got)
	}
}

// TestCreateRetryAcrossPartition drives a tokened create through
// SessionExchange while the controller↔daemon link is cut, heals the
// link mid-retry, and checks exactly one process results.
func TestCreateRetryAcrossPartition(t *testing.T) {
	r := newRig(t)
	r.pingOn(r.green)
	n, err := r.c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(r.yellow.PrimaryHostID(), r.green.PrimaryHostID())

	req := &CreateReq{Filename: "/bin/ping", UID: testUID, Token: "job2-green-0"}
	s := DialSession(r.ctl, "green", fastSession())
	defer s.Close()
	done := make(chan *Reply, 1)
	go func() {
		rep, err := SessionExchange(s, req, RetryPolicy{
			MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("create across partition: %v", err)
			done <- nil
			return
		}
		done <- rep
	}()
	time.Sleep(20 * time.Millisecond)
	n.Heal()

	select {
	case rep := <-done:
		if rep == nil {
			return // goroutine already reported the failure
		}
		if !rep.OK() {
			t.Fatalf("create reply: %s", rep.Status)
		}
		if got := pingCount(r.green); got != 1 {
			t.Fatalf("%d ping processes, want exactly 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("create never completed after heal")
	}
}
