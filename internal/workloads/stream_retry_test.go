package workloads

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"dpm/internal/core"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// TestConnectRetryDeadline checks the bounded-retry contract: dialing
// a port nobody listens on gives up within the budget and returns an
// error that wraps both ErrConnectTimeout and the underlying connect
// failure.
func TestConnectRetryDeadline(t *testing.T) {
	s, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	m, err := s.Machine("red")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.SpawnDetached(s.UID, "dialer")
	if err != nil {
		t.Fatal(err)
	}

	old := connectBudget
	connectBudget = 30 * time.Millisecond
	defer func() { connectBudget = old }()

	start := time.Now()
	_, err = connectRetry(p, "green", 9999) // nobody listens there
	elapsed := time.Since(start)
	if !errors.Is(err, ErrConnectTimeout) {
		t.Fatalf("err = %v, want wrapped ErrConnectTimeout", err)
	}
	if !errors.Is(err, kernel.ErrConnRefused) {
		t.Fatalf("err = %v, want the last connect failure wrapped too", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("gave up after %v — budget not honored", elapsed)
	}
}

// TestConnectRetryEventualSuccess: the listener comes up late and the
// backoff still finds it.
func TestConnectRetryEventualSuccess(t *testing.T) {
	s, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	red, err := s.Machine("red")
	if err != nil {
		t.Fatal(err)
	}
	green, err := s.Machine("green")
	if err != nil {
		t.Fatal(err)
	}
	p, err := red.SpawnDetached(s.UID, "dialer")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := green.SpawnDetached(s.UID, "late-listener")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		lfd, err := srv.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return
		}
		if err := srv.BindPort(lfd, 9876); err != nil {
			return
		}
		_ = srv.Listen(lfd, 4)
	}()
	fd, err := connectRetry(p, "green", 9876)
	if err != nil {
		t.Fatalf("connectRetry never found the late listener: %v", err)
	}
	if fd < 0 {
		t.Fatalf("fd = %d", fd)
	}
}

// TestMsgSizeBound: a message of maxMsg bytes goes through, writeMsg
// refuses a larger one, and a length word past maxMsg fails the read as
// soon as its four bytes are in instead of receiving for a message no
// workload sends.
func TestMsgSizeBound(t *testing.T) {
	s, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	m, err := s.Machine("red")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.SpawnDetached(s.UID, "pair")
	if err != nil {
		t.Fatal(err)
	}
	fd1, fd2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	r := newMsgReader(p, fd2)
	if err := writeMsg(p, fd1, make([]byte, maxMsg)); err != nil {
		t.Fatal(err)
	}
	if msg, err := r.read(); err != nil || len(msg) != maxMsg {
		t.Fatalf("read %d bytes, err %v; want %d", len(msg), err, maxMsg)
	}
	if err := writeMsg(p, fd1, make([]byte, maxMsg+1)); !errors.Is(err, errMsgSize) {
		t.Fatalf("writeMsg of %d bytes: err %v, want errMsgSize", maxMsg+1, err)
	}
	if _, err := p.Send(fd1, binary.LittleEndian.AppendUint32(nil, maxMsg+1)); err != nil {
		t.Fatal(err)
	}
	if msg, err := r.read(); !errors.Is(err, errMsgSize) {
		t.Fatalf("read behind length word %d = %d bytes, err %v; want errMsgSize", maxMsg+1, len(msg), err)
	}
}
