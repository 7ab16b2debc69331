package kernel

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"dpm/internal/meter"
	"dpm/internal/netsim"
)

// withAllLoss configures a network that drops every datagram.
func withAllLoss() []netsim.Option {
	return []netsim.Option{netsim.WithLoss(1), netsim.WithSeed(1)}
}

const testUID = 100

// newTestCluster builds a two-machine cluster (red, green) on one
// network with accounts for testUID, and registers cleanup.
func newTestCluster(t *testing.T) (*Cluster, *Machine, *Machine) {
	t.Helper()
	c := NewCluster(Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	green, err := c.AddMachine("green", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	red.AddAccount(testUID, "user")
	green.AddAccount(testUID, "user")
	t.Cleanup(c.Shutdown)
	return c, red, green
}

// detached returns a detached process for driving syscalls from the
// test goroutine.
func detached(t *testing.T, m *Machine) *Process {
	t.Helper()
	p, err := m.SpawnDetached(testUID, "test-driver")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// listenStream makes a bound, listening stream socket and returns its
// fd and name.
func listenStream(t *testing.T, p *Process, port uint16) (int, meter.Name) {
	t.Helper()
	fd, err := p.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(fd, port); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(fd, 5); err != nil {
		t.Fatal(err)
	}
	return fd, p.sockMustName(t, fd)
}

func (p *Process) sockMustName(t *testing.T, fd int) meter.Name {
	t.Helper()
	s, err := p.sockFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	return s.BoundName()
}

func TestStreamConnectAcceptTransfer(t *testing.T) {
	_, red, green := newTestCluster(t)
	server := detached(t, green)
	lfd, lname := listenStream(t, server, 3000)

	client := detached(t, red)
	cfd, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	afd, peer, err := server.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	if peer.IsZero() {
		t.Fatal("accept returned zero peer name (client should be implicitly bound)")
	}
	if _, err := client.Send(cfd, []byte("hello, green")); err != nil {
		t.Fatal(err)
	}
	data, err := server.Recv(afd, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello, green" {
		t.Fatalf("received %q", data)
	}
	// The connection is a pair of byte streams in opposite directions.
	if _, err := server.Send(afd, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	data, err = client.Recv(cfd, 100)
	if err != nil || string(data) != "ack" {
		t.Fatalf("reply = %q, %v", data, err)
	}
}

func TestStreamConcatenatesMessages(t *testing.T) {
	// Section 3.1: "Stream communication concatenates messages into a
	// single, reliable, ordered byte stream ... As many bytes as
	// possible are delivered for each read."
	_, red, green := newTestCluster(t)
	server := detached(t, green)
	lfd, lname := listenStream(t, server, 3000)
	client := detached(t, red)
	cfd, _ := client.Socket(meter.AFInet, SockStream)
	if err := client.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	afd, _, err := server.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"ab", "cd", "ef"} {
		if _, err := client.Send(cfd, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := server.Recv(afd, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abcdef" {
		t.Fatalf("stream read = %q, want concatenation abcdef", data)
	}
}

func TestStreamPartialRead(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	lfd, lname := listenStream(t, p, 3000)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	afd, _, _ := p.Accept(lfd)
	if _, err := p.Send(cfd, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	d1, _ := p.Recv(afd, 2)
	d2, _ := p.Recv(afd, 100)
	if string(d1) != "ab" || string(d2) != "cdef" {
		t.Fatalf("partial reads = %q, %q", d1, d2)
	}
}

func TestStreamEOFAfterPeerClose(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	lfd, lname := listenStream(t, p, 3000)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	afd, _, _ := p.Accept(lfd)
	if _, err := p.Send(cfd, []byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(cfd); err != nil {
		t.Fatal(err)
	}
	// Buffered data is still delivered, then EOF.
	data, err := p.Recv(afd, 100)
	if err != nil || string(data) != "last" {
		t.Fatalf("drain = %q, %v", data, err)
	}
	if _, err := p.Recv(afd, 100); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestSendOnClosedPeerIsEPIPE(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	lfd, lname := listenStream(t, p, 3000)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	afd, _, _ := p.Accept(lfd)
	if err := p.Close(afd); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(cfd, []byte("x")); !errors.Is(err, ErrPipe) {
		t.Fatalf("err = %v, want ErrPipe", err)
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	_, red, green := newTestCluster(t)
	p := detached(t, red)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	name := meter.InetName(green.PrimaryHostID(), 4444)
	if err := p.Connect(cfd, name); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestConnectUnknownHost(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, meter.InetName(9999, 1)); !errors.Is(err, ErrHostUnreach) {
		t.Fatalf("err = %v, want ErrHostUnreach", err)
	}
}

func TestBacklogLimit(t *testing.T) {
	_, red, green := newTestCluster(t)
	server := detached(t, green)
	lfd, err := server.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindPort(lfd, 3000); err != nil {
		t.Fatal(err)
	}
	if err := server.Listen(lfd, 2); err != nil {
		t.Fatal(err)
	}
	lname := server.sockMustName(t, lfd)
	client := detached(t, red)
	for i := 0; i < 2; i++ {
		fd, _ := client.Socket(meter.AFInet, SockStream)
		if err := client.Connect(fd, lname); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	fd, _ := client.Socket(meter.AFInet, SockStream)
	if err := client.Connect(fd, lname); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused on full backlog", err)
	}
}

func TestDoubleConnectIsEISCONN(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	_, lname := listenStream(t, p, 3000)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	if err := p.Connect(cfd, lname); !errors.Is(err, ErrIsConn) {
		t.Fatalf("err = %v, want ErrIsConn", err)
	}
}

func TestBindCollision(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd1, _ := p.Socket(meter.AFInet, SockStream)
	fd2, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.BindPort(fd1, 3000); err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(fd2, 3000); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestStreamAndDgramPortsIndependent(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	sfd, _ := p.Socket(meter.AFInet, SockStream)
	dfd, _ := p.Socket(meter.AFInet, SockDgram)
	if err := p.BindPort(sfd, 3000); err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(dfd, 3000); err != nil {
		t.Fatalf("dgram bind on same port: %v", err)
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	_, red, green := newTestCluster(t)
	recvr := detached(t, green)
	rfd, _ := recvr.Socket(meter.AFInet, SockDgram)
	if err := recvr.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := recvr.sockMustName(t, rfd)

	sender := detached(t, red)
	sfd, _ := sender.Socket(meter.AFInet, SockDgram)
	if _, err := sender.SendTo(sfd, []byte("dgram!"), rname); err != nil {
		t.Fatal(err)
	}
	data, src, err := recvr.RecvFrom(rfd, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "dgram!" {
		t.Fatalf("data = %q", data)
	}
	if src.IsZero() || src.Family() != meter.AFInet {
		t.Fatalf("source name = %v, want sender's bound inet name", src)
	}
}

func TestDatagramBoundariesPreserved(t *testing.T) {
	// Section 3.1: "A datagram is read as a complete message. Each new
	// read will obtain bytes from a new message."
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	rfd, _ := p.Socket(meter.AFInet, SockDgram)
	if err := p.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := p.sockMustName(t, rfd)
	sfd, _ := p.Socket(meter.AFInet, SockDgram)
	for _, m := range []string{"one", "two"} {
		if _, err := p.SendTo(sfd, []byte(m), rname); err != nil {
			t.Fatal(err)
		}
	}
	d1, _ := p.Recv(rfd, 100)
	d2, _ := p.Recv(rfd, 100)
	if string(d1) != "one" || string(d2) != "two" {
		t.Fatalf("reads = %q, %q", d1, d2)
	}
}

func TestDatagramTruncation(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	rfd, _ := p.Socket(meter.AFInet, SockDgram)
	if err := p.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := p.sockMustName(t, rfd)
	sfd, _ := p.Socket(meter.AFInet, SockDgram)
	if _, err := p.SendTo(sfd, []byte("abcdef"), rname); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Recv(rfd, 3)
	if string(d) != "abc" {
		t.Fatalf("truncated read = %q", d)
	}
	// The rest of the datagram is gone; a next send is a new message.
	if _, err := p.SendTo(sfd, []byte("xyz"), rname); err != nil {
		t.Fatal(err)
	}
	d, _ = p.Recv(rfd, 100)
	if string(d) != "xyz" {
		t.Fatalf("next read = %q, want xyz (remainder discarded)", d)
	}
}

func TestConnectedDatagramSend(t *testing.T) {
	// "It is also possible for the sender to predefine the recipient
	// by calling connect(), ... and then calling send()" (section 3.1).
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	rfd, _ := p.Socket(meter.AFInet, SockDgram)
	if err := p.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := p.sockMustName(t, rfd)
	sfd, _ := p.Socket(meter.AFInet, SockDgram)
	if err := p.Connect(sfd, rname); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(sfd, []byte("via connect")); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Recv(rfd, 100)
	if string(d) != "via connect" {
		t.Fatalf("data = %q", d)
	}
}

func TestUnconnectedDgramSendFails(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	sfd, _ := p.Socket(meter.AFInet, SockDgram)
	if _, err := p.Send(sfd, []byte("x")); !errors.Is(err, ErrNotConn) {
		t.Fatalf("err = %v, want ErrNotConn", err)
	}
}

func TestUnixDomainStream(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	lfd, _ := p.Socket(meter.AFUnix, SockStream)
	if err := p.Bind(lfd, meter.UnixName("/tmp/srv")); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(lfd, 1); err != nil {
		t.Fatal(err)
	}
	cfd, _ := p.Socket(meter.AFUnix, SockStream)
	if err := p.Connect(cfd, meter.UnixName("/tmp/srv")); err != nil {
		t.Fatal(err)
	}
	afd, _, err := p.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(cfd, []byte("unix")); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Recv(afd, 10)
	if string(d) != "unix" {
		t.Fatalf("data = %q", d)
	}
}

func TestUnixDomainIsLocalOnly(t *testing.T) {
	_, red, green := newTestCluster(t)
	server := detached(t, green)
	lfd, _ := server.Socket(meter.AFUnix, SockStream)
	if err := server.Bind(lfd, meter.UnixName("/tmp/srv")); err != nil {
		t.Fatal(err)
	}
	if err := server.Listen(lfd, 1); err != nil {
		t.Fatal(err)
	}
	client := detached(t, red)
	cfd, _ := client.Socket(meter.AFUnix, SockStream)
	// The same path on a different machine names nothing.
	if err := client.Connect(cfd, meter.UnixName("/tmp/srv")); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestSocketPair(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd1, fd2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(fd1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Recv(fd2, 10)
	if string(d) != "ping" {
		t.Fatalf("data = %q", d)
	}
	if _, err := p.Send(fd2, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	d, _ = p.Recv(fd1, 10)
	if string(d) != "pong" {
		t.Fatalf("data = %q", d)
	}
	// Each end carries an internally generated unique name.
	s1, _ := p.sockFD(fd1)
	s2, _ := p.sockFD(fd2)
	if s1.BoundName() == s2.BoundName() || s1.BoundName().Family() != meter.AFPair {
		t.Fatalf("pair names = %v, %v", s1.BoundName(), s2.BoundName())
	}
}

func TestDupSharesSocket(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd1, fd2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	dup, err := p.Dup(fd1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(dup, []byte("via dup")); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Recv(fd2, 10)
	if string(d) != "via dup" {
		t.Fatalf("data = %q", d)
	}
	// Closing the original keeps the socket alive through the dup.
	if err := p.Close(fd1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(dup, []byte("!")); err != nil {
		t.Fatal(err)
	}
}

func TestCloseReleasesBinding(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.BindPort(fd, 3000); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	fd2, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.BindPort(fd2, 3000); err != nil {
		t.Fatalf("port not released by close: %v", err)
	}
}

func TestBadFDErrors(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	if _, err := p.Send(42, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Send err = %v", err)
	}
	if _, err := p.Recv(42, 10); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Recv err = %v", err)
	}
	if err := p.Close(42); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Close err = %v", err)
	}
	if err := p.Listen(0, 1); !errors.Is(err, ErrNotSocket) {
		t.Fatalf("Listen on stdio err = %v", err)
	}
}

func TestSelectReadiness(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd1, fd2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	fd3, fd4, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		// Wake the selector through the second pair's far end.
		_, _ = p.Send(fd4, []byte("wake"))
	}()
	ready, err := p.Select([]int{fd1, fd3})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if len(ready) != 1 || ready[0] != fd3 {
		t.Fatalf("ready = %v, want [fd3=%d]", ready, fd3)
	}
	_ = fd2
}

func TestRemoteStreamViaResolve(t *testing.T) {
	// The section 3.5.4 rule: exchange (hostname, port), reconstruct
	// the address locally.
	c, red, green := newTestCluster(t)
	server := detached(t, green)
	lfd, err := server.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindPort(lfd, 7000); err != nil {
		t.Fatal(err)
	}
	if err := server.Listen(lfd, 1); err != nil {
		t.Fatal(err)
	}

	client := detached(t, red)
	host, _, err := c.ResolveFrom(red, "green")
	if err != nil {
		t.Fatal(err)
	}
	cfd, _ := client.Socket(meter.AFInet, SockStream)
	if err := client.Connect(cfd, meter.InetName(host, 7000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := server.Accept(lfd); err != nil {
		t.Fatal(err)
	}
}

func TestMultiHomedResolution(t *testing.T) {
	// A host on two networks has two addresses; each peer must
	// construct the one on its own shared network.
	c := NewCluster(Config{})
	c.AddNetwork("etherA")
	c.AddNetwork("etherB")
	gw, err := c.AddMachine("gateway", nil, "etherA", "etherB")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.AddMachine("hostA", nil, "etherA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddMachine("hostB", nil, "etherB")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)

	fromA, _, err := c.ResolveFrom(a, "gateway")
	if err != nil {
		t.Fatal(err)
	}
	fromB, _, err := c.ResolveFrom(b, "gateway")
	if err != nil {
		t.Fatal(err)
	}
	if fromA == fromB {
		t.Fatalf("both peers resolved gateway to %d; multi-homing lost", fromA)
	}
	if got := c.machineByHost(fromA); got != gw {
		t.Fatal("hostA's resolution does not reach the gateway")
	}
	if got := c.machineByHost(fromB); got != gw {
		t.Fatal("hostB's resolution does not reach the gateway")
	}
}

func TestCrossMachineDgramThroughFabric(t *testing.T) {
	// Datagrams between machines traverse netsim and can be lost.
	c := NewCluster(Config{})
	// Loss rate 1: everything between machines is dropped.
	c.AddNetwork("lossy", withAllLoss()...)
	red, _ := c.AddMachine("red", nil, "lossy")
	green, _ := c.AddMachine("green", nil, "lossy")
	red.AddAccount(testUID, "u")
	green.AddAccount(testUID, "u")
	t.Cleanup(c.Shutdown)

	recvr := detached(t, green)
	rfd, _ := recvr.Socket(meter.AFInet, SockDgram)
	if err := recvr.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := recvr.sockMustName(t, rfd)
	sender := detached(t, red)
	sfd, _ := sender.Socket(meter.AFInet, SockDgram)
	if _, err := sender.SendTo(sfd, []byte("doomed"), rname); err != nil {
		t.Fatal(err) // loss is silent to the sender
	}
	rs, _ := recvr.sockFD(rfd)
	if rs.Readable() {
		t.Fatal("datagram survived a 100%-loss network")
	}

	// But a local datagram on the same machine is reliable even on a
	// lossy cluster (section 3.5.2).
	lfd, _ := recvr.Socket(meter.AFInet, SockDgram)
	if _, err := recvr.SendTo(lfd, []byte("local"), rname); err != nil {
		t.Fatal(err)
	}
	d, _ := recvr.Recv(rfd, 100)
	if !bytes.Equal(d, []byte("local")) {
		t.Fatalf("local dgram = %q", d)
	}
}

// TestShutdownKeepsDescriptor: a connection shut down reads what was
// delivered and then EOF on both ends and refuses sends, and its
// descriptor stays taken until Close, so no new socket gets its number
// while another thread of the process may still receive on it.
func TestShutdownKeepsDescriptor(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	f1, f2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(f2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(f1); err != nil {
		t.Fatal(err)
	}
	if data, err := p.Recv(f1, 8); err != nil || string(data) != "x" {
		t.Fatalf("the shut-down end read %q, %v, want what was delivered", data, err)
	}
	for _, fd := range []int{f1, f2} {
		if _, err := p.Recv(fd, 8); err != io.EOF {
			t.Fatalf("a receive on a shut-down connection: %v, want EOF", err)
		}
	}
	if _, err := p.Send(f1, []byte("y")); !errors.Is(err, ErrPipe) {
		t.Fatalf("a send on a shut-down connection: %v, want ErrPipe", err)
	}
	g, err := p.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if g == f1 {
		t.Fatal("a new socket took the number of a descriptor shut down but not closed")
	}
	if err := p.Close(f1); err != nil {
		t.Fatalf("closing a shut-down descriptor: %v", err)
	}
}

// TestTryRecvFromWouldBlock: the non-blocking receive path.
func TestTryRecvFromWouldBlock(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, err := p.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(fd, 701); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TryRecvFrom(fd, 4096); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("TryRecvFrom on empty socket: %v, want ErrWouldBlock", err)
	}
	if _, err := p.SendTo(fd, []byte("self"), meter.InetName(red.PrimaryHostID(), 701)); err != nil {
		t.Fatal(err)
	}
	data, _, err := p.TryRecvFrom(fd, 4096)
	if err != nil || string(data) != "self" {
		t.Fatalf("TryRecvFrom = (%q, %v), want (self, nil)", data, err)
	}
}

// TestDgramQueueBudgetSheds: the per-socket datagram budget bounds an
// unread socket's footprint; overflow is shed and counted.
func TestDgramQueueBudgetSheds(t *testing.T) {
	c := NewCluster(Config{DgramQueueCap: 8})
	c.AddNetwork("ether0")
	m, err := c.AddMachine("tiny", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	m.AddAccount(testUID, "user")
	t.Cleanup(c.Shutdown)
	p, err := m.SpawnDetached(testUID, "flood")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(fd, 702); err != nil {
		t.Fatal(err)
	}
	dest := meter.InetName(m.PrimaryHostID(), 702)
	for i := 0; i < 20; i++ {
		if _, err := p.SendTo(fd, []byte("x"), dest); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, _, err := p.TryRecvFrom(fd, 16); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if _, _, err := p.TryRecvFrom(fd, 16); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("recv past budget: %v, want ErrWouldBlock (queue capped at 8)", err)
	}
	if shed := m.mem.shedDgrams.Load(); shed != 12 {
		t.Fatalf("shed datagrams = %d, want 12", shed)
	}
}

// TestSelectReadyAllocs gates the wait-list rewrite of Process.Select:
// with parking pooled, a ready select's only heap traffic is the two
// result slices (sockets + ready fds). The reflect.Select version it
// replaced allocated a SelectCase slice, boxed every channel in an
// interface, and burned a wait channel per wakeup.
func TestSelectReadyAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fds := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		a, b, err := p.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Send(a, []byte("ready")); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, b)
	}
	// Warm the parking pool.
	if _, err := p.Select(fds); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		ready, err := p.Select(fds)
		if err != nil || len(ready) != 8 {
			t.Fatalf("Select = (%v, %v), want 8 ready", ready, err)
		}
	})
	// socks slice + up to 4 appends growing the ready slice; anything
	// beyond ~6 means per-wait allocation crept back in.
	if n > 6 {
		t.Fatalf("ready Select allocates %v per call, want <= 6", n)
	}
}

// TestMachineFootprintAccounting: buffered bytes are charged on
// delivery and released on consumption and socket death.
func TestMachineFootprintAccounting(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd1, fd2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send(fd1, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, buffered := red.Footprint(); buffered != 10 {
		t.Fatalf("buffered after send = %d, want 10", buffered)
	}
	if _, err := p.Recv(fd2, 4); err != nil {
		t.Fatal(err)
	}
	if _, buffered := red.Footprint(); buffered != 6 {
		t.Fatalf("buffered after partial read = %d, want 6", buffered)
	}
	if err := p.Close(fd2); err != nil {
		t.Fatal(err)
	}
	if _, buffered := red.Footprint(); buffered != 0 {
		t.Fatalf("buffered after close = %d, want 0", buffered)
	}
	if err := p.Close(fd1); err != nil {
		t.Fatal(err)
	}
	if socks, _ := red.Footprint(); socks != 0 {
		t.Fatalf("sockets after closing both ends = %d, want 0", socks)
	}
}
