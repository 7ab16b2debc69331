package kernel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dpm/internal/fsys"
	"dpm/internal/meter"
	"dpm/internal/netsim"
)

func TestListenOnConnectedSocket(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	_, lname := listenStream(t, p, 3000)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}
	// The implicitly bound, connected socket cannot become a listener.
	if err := p.Listen(cfd, 1); !errors.Is(err, ErrInval) {
		t.Fatalf("err = %v, want ErrInval", err)
	}
}

func TestListenOnUnboundSocket(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Listen(fd, 1); !errors.Is(err, ErrInval) {
		t.Fatalf("err = %v, want ErrInval", err)
	}
}

func TestListenOnDgramSocket(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockDgram)
	if err := p.BindPort(fd, 3000); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(fd, 1); !errors.Is(err, ErrOpNotSupp) {
		t.Fatalf("err = %v, want ErrOpNotSupp", err)
	}
}

func TestConnectToBoundButNotListening(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	sfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.BindPort(sfd, 3000); err != nil {
		t.Fatal(err)
	}
	s, _ := p.sockFD(sfd)
	cfd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Connect(cfd, s.BoundName()); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestAcceptOnNonListener(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockStream)
	if _, _, err := p.Accept(fd); !errors.Is(err, ErrInval) {
		t.Fatalf("err = %v, want ErrInval", err)
	}
}

func TestConnectOnListener(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	lfd, lname := listenStream(t, p, 3000)
	if err := p.Connect(lfd, lname); !errors.Is(err, ErrOpNotSupp) {
		t.Fatalf("err = %v, want ErrOpNotSupp", err)
	}
}

func TestSendOnUnconnectedStream(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockStream)
	if _, err := p.Send(fd, []byte("x")); !errors.Is(err, ErrNotConn) {
		t.Fatalf("err = %v, want ErrNotConn", err)
	}
	if _, err := p.Recv(fd, 10); !errors.Is(err, ErrNotConn) {
		t.Fatalf("recv err = %v, want ErrNotConn", err)
	}
}

func TestBadSocketArguments(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	if _, err := p.Socket(77, SockStream); !errors.Is(err, ErrAfNoSupport) {
		t.Fatalf("bad domain err = %v", err)
	}
	if _, err := p.Socket(meter.AFInet, 9); !errors.Is(err, ErrInval) {
		t.Fatalf("bad type err = %v", err)
	}
}

func TestBindDomainMismatch(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	ifd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.Bind(ifd, meter.UnixName("/tmp/x")); !errors.Is(err, ErrAfNoSupport) {
		t.Fatalf("err = %v, want ErrAfNoSupport", err)
	}
	ufd, _ := p.Socket(meter.AFUnix, SockStream)
	if err := p.Bind(ufd, meter.InetName(0, 3000)); !errors.Is(err, ErrAfNoSupport) {
		t.Fatalf("err = %v, want ErrAfNoSupport", err)
	}
}

func TestDoubleBind(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockStream)
	if err := p.BindPort(fd, 3000); err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(fd, 3001); !errors.Is(err, ErrInval) {
		t.Fatalf("err = %v, want ErrInval", err)
	}
}

// TestBindEphemeralPortSpaceFull: with every datagram port of a
// machine bound, a bind that asks for an ephemeral port fails with
// ErrAddrInUse after one pass over the port space instead of searching
// forever under the machine lock; stream ports are a separate
// namespace and still allocate.
func TestBindEphemeralPortSpaceFull(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	holder, _ := p.SocketOf(mustSocket(t, p, SockDgram))
	red.mu.Lock()
	for port := ephemeralBase; port <= 0xffff; port++ {
		red.ports[portKey{SockDgram, uint16(port)}] = holder
	}
	red.mu.Unlock()
	fd := mustSocket(t, p, SockDgram)
	done := make(chan error, 1)
	go func() { done <- p.BindPort(fd, 0) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAddrInUse) {
			t.Fatalf("err = %v, want ErrAddrInUse", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bind to an ephemeral port never returned")
	}
	if err := p.BindPort(mustSocket(t, p, SockStream), 0); err != nil {
		t.Fatalf("stream bind beside a full datagram space: %v", err)
	}
}

func mustSocket(t *testing.T, p *Process, typ int) int {
	t.Helper()
	fd, err := p.Socket(meter.AFInet, typ)
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

func TestRecvZeroMax(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd1, _, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recv(fd1, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("err = %v, want ErrInval", err)
	}
}

func TestSendToOnStream(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, _ := p.Socket(meter.AFInet, SockStream)
	if _, err := p.SendTo(fd, []byte("x"), meter.InetName(1, 1)); !errors.Is(err, ErrOpNotSupp) {
		t.Fatalf("err = %v, want ErrOpNotSupp", err)
	}
}

func TestOversizeDatagramRejected(t *testing.T) {
	_, red, green := newTestCluster(t)
	recvr := detached(t, green)
	rfd, _ := recvr.Socket(meter.AFInet, SockDgram)
	if err := recvr.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rs, _ := recvr.sockFD(rfd)
	sender := detached(t, red)
	sfd, _ := sender.Socket(meter.AFInet, SockDgram)
	big := make([]byte, 10000)
	if _, err := sender.SendTo(sfd, big, rs.BoundName()); !errors.Is(err, ErrMsgSize) {
		t.Fatalf("err = %v, want ErrMsgSize", err)
	}
}

func TestWriteToStdoutWriter(t *testing.T) {
	// WaitExit's channel edge orders the program's writes before the
	// test's read, so a plain buffer is safe.
	_, red, _ := newTestCluster(t)
	var sb bytes.Buffer
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Stdout: &sb, Program: func(p *Process) int {
		p.Printf("hello %s", "stdout")
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitExit()
	if sb.String() != "hello stdout" {
		t.Fatalf("stdout = %q", sb.String())
	}
}

func TestClockGossipOnStreamDelivery(t *testing.T) {
	// A message from a busy machine drags the idle receiver's clock
	// forward, so a blocked receiver observes elapsed time — the loose
	// synchronization message traffic provides.
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
	client.Compute(500 * time.Millisecond)
	redNow := red.Clock().Now()
	if green.Clock().Now() >= redNow {
		t.Fatal("precondition: green should be behind red")
	}
	if _, err := client.Send(cfd, []byte("tick")); err != nil {
		t.Fatal(err)
	}
	if green.Clock().Now() < redNow {
		t.Fatalf("green clock %v not raised to red's %v", green.Clock().Now(), redNow)
	}
	if _, err := server.Recv(afd, 10); err != nil {
		t.Fatal(err)
	}
}

func TestClockGossipOnDatagram(t *testing.T) {
	_, red, green := newTestCluster(t)
	recvr := detached(t, green)
	rfd, _ := recvr.Socket(meter.AFInet, SockDgram)
	if err := recvr.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := recvr.sockMustName(t, rfd)
	sender := detached(t, red)
	sfd, _ := sender.Socket(meter.AFInet, SockDgram)
	sender.Compute(300 * time.Millisecond)
	redNow := red.Clock().Now()
	if _, err := sender.SendTo(sfd, []byte("x"), rname); err != nil {
		t.Fatal(err)
	}
	if green.Clock().Now() < redNow {
		t.Fatalf("green clock %v not raised to red's %v", green.Clock().Now(), redNow)
	}
}

func TestComputeWallScale(t *testing.T) {
	c := NewCluster(Config{ComputeWallScale: 0.01})
	c.AddNetwork("e")
	m, err := c.AddMachine("m", nil, "e")
	if err != nil {
		t.Fatal(err)
	}
	m.AddAccount(testUID, "u")
	t.Cleanup(c.Shutdown)
	p, err := m.SpawnDetached(testUID, "p")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	p.Compute(time.Second) // 1s virtual → ≥10ms wall
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("wall-paced compute took only %v", elapsed)
	}
	if got := p.cpu.Raw(); got != time.Second {
		t.Fatalf("virtual charge = %v", got)
	}
}

func TestExecUnreadableFile(t *testing.T) {
	_, red, _ := newTestCluster(t)
	red.AddAccount(200, "other")
	// A file private to another user cannot be exec'd.
	if err := red.FS().Create("/bin/secret", 200, fsys.PrivateMode, nil); err != nil {
		t.Fatal(err)
	}
	p := detached(t, red) // runs as testUID
	if err := p.Exec("/bin/secret"); err == nil {
		t.Fatal("exec of unreadable file succeeded")
	}
}

// TestDatagramSourceNameArrivesWhole: the sender's socket name crosses
// the network as its sixteen bytes, so recvfrom on another machine
// reports exactly the name the sender is bound to — Internet, UNIX,
// socketpair or none — whether the fabric passed the datagram straight
// through or held it back and released it behind a later one.
func TestDatagramSourceNameArrivesWhole(t *testing.T) {
	c := NewCluster(Config{})
	net := c.AddNetwork("ether0", netsim.WithReorder(0.5), netsim.WithSeed(7))
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

	recvr := detached(t, green)
	rfd, _ := recvr.Socket(meter.AFInet, SockDgram)
	if err := recvr.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	dest := recvr.sockMustName(t, rfd)

	sender := detached(t, red)
	inet, _ := sender.Socket(meter.AFInet, SockDgram)
	if err := sender.BindPort(inet, 4242); err != nil {
		t.Fatal(err)
	}
	unix, _ := sender.Socket(meter.AFUnix, SockDgram)
	if err := sender.Bind(unix, meter.UnixName("/tmp/sender")); err != nil {
		t.Fatal(err)
	}
	// No syscall binds a datagram socket to a socketpair name or to one
	// with bytes past the path; the kernel carries whatever is bound.
	pair, _ := sender.Socket(meter.AFUnix, SockDgram)
	odd, _ := sender.Socket(meter.AFUnix, SockDgram)
	oddName := meter.InetName(9, 9)
	copy(oddName[8:], "trailing")
	for fd, name := range map[int]meter.Name{pair: meter.PairName(41), odd: oddName} {
		s, err := sender.SocketOf(fd)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.boundName = name
		s.mu.Unlock()
	}
	unbound, _ := sender.Socket(meter.AFUnix, SockDgram)

	fds := []int{inet, unix, pair, odd, unbound}
	want := map[byte]meter.Name{}
	for i, fd := range fds {
		want[byte(i)] = sender.sockMustName(t, fd)
	}
	if want[0].Family() != meter.AFInet || want[1] != meter.UnixName("/tmp/sender") || want[2] != meter.PairName(41) || !want[4].IsZero() {
		t.Fatalf("sender names %v", want)
	}
	const rounds = 40
	for r := 0; r < rounds; r++ {
		for i, fd := range fds {
			if _, err := sender.SendTo(fd, []byte{byte(i), byte(r)}, dest); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.Flush()
	got, swapped := 0, false
	last := -1
	for ; got < rounds*len(fds); got++ {
		data, src, err := recvr.TryRecvFrom(rfd, 16)
		if err != nil {
			t.Fatalf("after %d datagrams: %v", got, err)
		}
		if src != want[data[0]] {
			t.Fatalf("datagram %d of sender %d: source %x, sender is bound to %x", data[1], data[0], src, want[data[0]])
		}
		seq := int(data[1])*len(fds) + int(data[0])
		swapped = swapped || seq < last
		last = seq
	}
	if !swapped {
		t.Fatal("the fabric reordered nothing: the hold-back path was not exercised")
	}
}
