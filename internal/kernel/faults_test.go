package kernel

import (
	"errors"
	"io"
	"testing"
	"time"

	"dpm/internal/meter"
)

func TestCrashMachineKillsAndIsolates(t *testing.T) {
	c, red, green := newTestCluster(t)
	server := detached(t, green)
	_, lname := listenStream(t, server, 551)

	victim, err := green.Spawn(SpawnSpec{UID: testUID, Name: "victim", Program: func(p *Process) int {
		for {
			p.Compute(time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}

	if err := c.CrashMachine("green"); err != nil {
		t.Fatal(err)
	}
	if _, reason := victim.WaitExit(); reason != ReasonKilled {
		t.Fatalf("victim exit reason = %q, want killed", reason)
	}
	if exited, _, _ := server.Exited(); !exited {
		t.Fatal("detached process survived the crash")
	}
	if len(green.Procs()) != 0 {
		t.Fatalf("crashed machine still has %d processes", len(green.Procs()))
	}

	// The machine refuses new work while down.
	if _, err := green.Spawn(SpawnSpec{UID: testUID, Name: "late", Program: func(p *Process) int { return 0 }}); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("spawn on crashed machine: %v, want ErrMachineDown", err)
	}
	if _, err := green.SpawnDetached(testUID, "late"); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("detached spawn on crashed machine: %v, want ErrMachineDown", err)
	}

	// Stream connections to it are refused, and datagrams cannot be
	// routed to it (its interfaces are gone).
	client := detached(t, red)
	fd, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(fd, lname); !errors.Is(err, ErrHostUnreach) {
		t.Fatalf("connect to crashed machine: %v, want ErrHostUnreach", err)
	}
	dfd, err := client.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SendTo(dfd, []byte("hello?"), meter.InetName(green.PrimaryHostID(), 600)); err == nil {
		t.Fatal("datagram to crashed machine succeeded")
	}

	if err := c.CrashMachine("green"); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("double crash: %v, want ErrMachineDown", err)
	}
	if got := c.FaultStats().Crashes; got != 1 {
		t.Fatalf("Crashes = %d, want 1", got)
	}
}

func TestRestartMachineRevives(t *testing.T) {
	c, red, green := newTestCluster(t)
	if _, err := c.RestartMachine("green"); err == nil {
		t.Fatal("restart of a running machine succeeded")
	}
	if err := c.CrashMachine("green"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartMachine("green"); err != nil {
		t.Fatal(err)
	}

	// The machine accepts work and traffic again, under its old address.
	server := detached(t, green)
	_, lname := listenStream(t, server, 551)
	client := detached(t, red)
	fd, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(fd, lname); err != nil {
		t.Fatal(err)
	}
	stats := c.FaultStats()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Fatalf("stats = %+v, want 1 crash, 1 restart", stats)
	}
}

func TestPartitionBlocksStreamConnect(t *testing.T) {
	c, red, green := newTestCluster(t)
	server := detached(t, green)
	_, lname := listenStream(t, server, 551)
	n, err := c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}

	n.Partition(red.PrimaryHostID(), green.PrimaryHostID())
	client := detached(t, red)
	fd, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(fd, lname); !errors.Is(err, ErrHostUnreach) {
		t.Fatalf("connect across partition: %v, want ErrHostUnreach", err)
	}

	n.Heal()
	fd2, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(fd2, lname); err != nil {
		t.Fatalf("connect after heal: %v", err)
	}
}

// TestPartitionSeversEstablishedStreams: a partition must break live
// connections, not only refuse new ones — otherwise a persistent
// control-plane session would sail through a network split unharmed
// and the fault would be untestable. The severed connection stays dead
// after heal (reconnection is the endpoints' job), but new connections
// succeed again.
func TestPartitionSeversEstablishedStreams(t *testing.T) {
	c, red, green := newTestCluster(t)
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
	afd, _, err := server.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes delivered before the cut are not lost: the reader drains
	// them and only then sees EOF.
	if _, err := client.Send(cfd, []byte("pre-cut")); err != nil {
		t.Fatal(err)
	}

	n, err := c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	n.Partition(red.PrimaryHostID(), green.PrimaryHostID())

	if _, err := client.Send(cfd, []byte("post-cut")); !errors.Is(err, ErrPipe) {
		t.Fatalf("send across partition: %v, want ErrPipe", err)
	}
	data, err := server.Recv(afd, 100)
	if err != nil || string(data) != "pre-cut" {
		t.Fatalf("drain before EOF = %q, %v", data, err)
	}
	if data, err := server.Recv(afd, 100); err != io.EOF {
		t.Fatalf("recv on severed stream = %q, %v, want EOF", data, err)
	}

	// Heal: the old connection stays dead, a new one works.
	n.Heal()
	if _, err := client.Send(cfd, []byte("after heal")); !errors.Is(err, ErrPipe) {
		t.Fatalf("send on severed stream after heal: %v, want ErrPipe", err)
	}
	cfd2, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(cfd2, lname); err != nil {
		t.Fatalf("reconnect after heal: %v", err)
	}
}

// A partition on one network leaves streams alone while another shared
// network still joins the machines; cutting the last path severs them.
func TestPartitionSeversOnlyWhenIsolated(t *testing.T) {
	c := NewCluster(Config{})
	c.AddNetwork("ether0")
	c.AddNetwork("ether1")
	red, err := c.AddMachine("red", nil, "ether0", "ether1")
	if err != nil {
		t.Fatal(err)
	}
	green, err := c.AddMachine("green", nil, "ether0", "ether1")
	if err != nil {
		t.Fatal(err)
	}
	red.AddAccount(testUID, "user")
	green.AddAccount(testUID, "user")
	t.Cleanup(c.Shutdown)

	server := detached(t, green)
	_, lname := listenStream(t, server, 3000)
	client := detached(t, red)
	cfd, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(cfd, lname); err != nil {
		t.Fatal(err)
	}

	n0, _ := c.Network("ether0")
	n1, _ := c.Network("ether1")
	h0r, _ := red.HostIDOn("ether0")
	h0g, _ := green.HostIDOn("ether0")
	h1r, _ := red.HostIDOn("ether1")
	h1g, _ := green.HostIDOn("ether1")

	n0.Partition(h0r, h0g)
	if _, err := client.Send(cfd, []byte("via ether1")); err != nil {
		t.Fatalf("send with a second network intact: %v", err)
	}
	n1.Partition(h1r, h1g)
	if _, err := client.Send(cfd, []byte("isolated")); !errors.Is(err, ErrPipe) {
		t.Fatalf("send after full isolation: %v, want ErrPipe", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	_, red, green := newTestCluster(t)
	receiver := detached(t, green)
	fd, err := receiver.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := receiver.BindPort(fd, 700); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	start := time.Now()
	if _, err := receiver.RecvInto(fd, buf, time.After(20*time.Millisecond)); !errors.Is(err, ErrTimedOut) {
		t.Fatalf("RecvInto with a timeout on silent socket: %v, want ErrTimedOut", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}

	// With data already queued the deadline is irrelevant.
	sender := detached(t, red)
	sfd, err := sender.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.SendTo(sfd, []byte("ping"), meter.InetName(green.PrimaryHostID(), 700)); err != nil {
		t.Fatal(err)
	}
	n, err := receiver.RecvInto(fd, buf, time.After(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("RecvInto with a timeout: data = %q", buf[:n])
	}
}

func TestMeteringDegradesWhenFilterDies(t *testing.T) {
	c, _, green := newTestCluster(t)
	target := detached(t, green)
	tap := newMeterTap(t, green, target, meter.MAll, 0)

	// A metered call flows while the filter lives.
	if _, err := target.Socket(meter.AFInet, SockDgram); err != nil {
		t.Fatal(err)
	}
	if target.MeterFlags() == 0 {
		t.Fatal("metering not armed")
	}

	// Kill the filter: its descriptors close, the meter connection's
	// peer is gone.
	tap.filter.signal(SIGKILL)
	tap.filter.finish(-1, ReasonKilled)

	// The next metered event detects the dead filter and disables
	// metering instead of wedging or leaking.
	if _, err := target.Socket(meter.AFInet, SockDgram); err != nil {
		t.Fatal(err)
	}
	if got := target.MeterFlags(); got != 0 {
		t.Fatalf("meter flags after filter death = %v, want 0", got)
	}
	if id := target.MeterSocketID(); id != 0 {
		t.Fatalf("meter socket still attached: %d", id)
	}
	stats := c.FaultStats()
	if stats.MeterDisabled != 1 {
		t.Fatalf("MeterDisabled = %d, want 1", stats.MeterDisabled)
	}
	if stats.MeterDrops == 0 {
		t.Fatal("MeterDrops = 0, want > 0")
	}
}

// TestListenerDeathRejectsPendingConns: a connection still in the
// listen queue when the listener's machine crashes must reset the
// initiating side. Marking only the queued conn would tell nobody —
// no process holds it — and the initiator would keep sending into a
// socket that can never be accepted (exactly what happened to meter
// connections when a filter's machine crashed before the filter
// accepted them: metering never degraded and messages piled up in a
// ghost socket).
func TestListenerDeathRejectsPendingConns(t *testing.T) {
	c, red, green := newTestCluster(t)
	server := detached(t, green)
	_, lname := listenStream(t, server, 733)

	client := detached(t, red)
	fd, err := client.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Connect(fd, lname); err != nil {
		t.Fatal(err)
	}
	s, err := client.SocketOf(fd)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dead() {
		t.Fatal("connection dead before the listener died")
	}

	// The connection is queued but never accepted when the listener's
	// machine goes down.
	if err := c.CrashMachine("green"); err != nil {
		t.Fatal(err)
	}
	if !s.Dead() {
		t.Fatal("initiator's socket not dead after listener death")
	}
	if _, err := client.Send(fd, []byte("x")); !errors.Is(err, ErrPipe) {
		t.Fatalf("send on rejected pending conn: %v, want ErrPipe", err)
	}
}
