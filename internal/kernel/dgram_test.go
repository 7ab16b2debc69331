package kernel

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/netsim"
)

// dgramReceiver binds a datagram socket to port on m and returns the
// process holding it and its descriptor.
func dgramReceiver(t *testing.T, m *Machine, port uint16) (*Process, int) {
	t.Helper()
	p := detached(t, m)
	fd := mustSocket(t, p, SockDgram)
	if err := p.BindPort(fd, port); err != nil {
		t.Fatal(err)
	}
	return p, fd
}

// tryRecv returns the next queued datagram, or nil if none is queued.
func tryRecv(t *testing.T, p *Process, fd int) ([]byte, meter.Name) {
	t.Helper()
	data, src, err := p.TryRecvFrom(fd, 64)
	if errors.Is(err, ErrWouldBlock) {
		return nil, meter.Name{}
	}
	if err != nil {
		t.Fatal(err)
	}
	return data, src
}

// TestDgramRoute drives one sending socket through every routing case
// a cached route must keep deciding as before: alternating destination
// hosts, a multi-homed pair, a crash and restart of the target, a
// partition and its heal, and a host it shares no network with.
func TestDgramRoute(t *testing.T) {
	c := NewCluster(Config{})
	netA, netB := c.AddNetwork("etherA"), c.AddNetwork("etherB")
	c.AddNetwork("etherC")
	src, _ := c.AddMachine("src", nil, "etherA", "etherB")
	one, _ := c.AddMachine("one", nil, "etherB", "etherA")
	two, _ := c.AddMachine("two", nil, "etherA")
	far, _ := c.AddMachine("far", nil, "etherC")
	for _, m := range []*Machine{src, one, two, far} {
		m.AddAccount(testUID, "u")
	}
	t.Cleanup(c.Shutdown)

	p := detached(t, src)
	fd := mustSocket(t, p, SockDgram)
	oneP, oneFD := dgramReceiver(t, one, 8000)
	twoP, twoFD := dgramReceiver(t, two, 8000)
	// one is named by its etherA address, but the route is the first of
	// one's attachments that src shares: etherB.
	oneA, _ := one.HostIDOn("etherA")
	toOne, toTwo := meter.InetName(oneA, 8000), meter.InetName(two.PrimaryHostID(), 8000)
	send := func(to meter.Name, msg string) error {
		_, err := p.SendTo(fd, []byte(msg), to)
		return err
	}

	for i := 0; i < 6; i++ {
		to, rp, rfd := toOne, oneP, oneFD
		if i%2 == 1 {
			to, rp, rfd = toTwo, twoP, twoFD
		}
		if err := send(to, "alt"); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if data, from := tryRecv(t, rp, rfd); string(data) != "alt" || from != p.sockMustName(t, fd) {
			t.Fatalf("send %d: got %q from %v", i, data, from)
		}
	}

	srcB, _ := src.HostIDOn("etherB")
	oneB, _ := one.HostIDOn("etherB")
	netA.Partition(src.PrimaryHostID(), oneA)
	if err := send(toOne, "over B"); err != nil {
		t.Fatal(err)
	}
	if data, _ := tryRecv(t, oneP, oneFD); string(data) != "over B" {
		t.Fatalf("a cut on etherA stopped a datagram routed over etherB: got %q", data)
	}
	netB.Partition(srcB, oneB)
	if err := send(toOne, "cut"); err != nil {
		t.Fatalf("a partition is silent to the sender: %v", err)
	}
	if data, _ := tryRecv(t, oneP, oneFD); data != nil {
		t.Fatalf("datagram crossed the etherB cut: %q", data)
	}
	netA.Heal()
	netB.Heal()
	if err := send(toOne, "healed"); err != nil {
		t.Fatal(err)
	}
	if data, _ := tryRecv(t, oneP, oneFD); string(data) != "healed" {
		t.Fatalf("after Heal: got %q", data)
	}

	if err := c.CrashMachine("two"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := send(toTwo, "down"); !errors.Is(err, netsim.ErrNoHost) {
			t.Fatalf("send to a crashed machine: %v, want ErrNoHost", err)
		}
	}
	if _, err := c.RestartMachine("two"); err != nil {
		t.Fatal(err)
	}
	twoP, twoFD = dgramReceiver(t, two, 8000)
	if err := send(toTwo, "back"); err != nil {
		t.Fatal(err)
	}
	if data, _ := tryRecv(t, twoP, twoFD); string(data) != "back" {
		t.Fatalf("after restart: got %q", data)
	}

	for i := 0; i < 3; i++ {
		if err := send(meter.InetName(far.PrimaryHostID(), 8000), "far"); !errors.Is(err, ErrHostUnreach) {
			t.Fatalf("send %d to a host with no shared network: %v, want ErrHostUnreach", i, err)
		}
	}
	if err := send(toOne, "still"); err != nil {
		t.Fatal(err)
	}
	if data, _ := tryRecv(t, oneP, oneFD); string(data) != "still" {
		t.Fatalf("after failed sends: got %q", data)
	}
}

// dgramPortCount counts the machine's datagram bindings in both the
// port table and its lock-free index.
func dgramPortCount(m *Machine) (table, index int) {
	m.mu.Lock()
	for k := range m.ports {
		if k.typ == SockDgram {
			table++
		}
	}
	m.mu.Unlock()
	m.dgramPorts.Range(func(_, _ any) bool { index++; return true })
	return table, index
}

// TestImplicitBindOnce races the first sends of a forked pair sharing
// an unbound datagram socket. The socket is bound once: both datagrams
// carry one source name, and when both close it the machine holds no
// binding it did not hold before.
func TestImplicitBindOnce(t *testing.T) {
	_, red, green := newTestCluster(t)
	rp, rfd := dgramReceiver(t, green, 7400)
	to := meter.InetName(green.PrimaryHostID(), 7400)
	baseTable, baseIndex := dgramPortCount(red)
	for round := 0; round < 200; round++ {
		p := detached(t, red)
		fd := mustSocket(t, p, SockDgram)
		// Both sides spin rather than block, so the two first sends
		// start within a few instructions of each other.
		var ready, start atomic.Bool
		done := make(chan error, 1)
		if _, err := p.Fork(func(c *Process) int {
			ready.Store(true)
			for !start.Load() {
				runtime.Gosched()
			}
			_, err := c.SendTo(fd, []byte("child"), to)
			if cerr := c.Close(fd); err == nil {
				err = cerr
			}
			done <- err
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		for !ready.Load() {
			runtime.Gosched()
		}
		start.Store(true)
		if _, err := p.SendTo(fd, []byte("parent"), to); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
		_, a, err := rp.RecvFrom(rfd, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := rp.RecvFrom(rfd, 16)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("round %d: one socket sent from two names, %v and %v", round, a, b)
		}
	}
	if table, index := dgramPortCount(red); table != baseTable || index != baseIndex {
		t.Fatalf("datagram bindings after every socket closed: %d in the table, %d indexed; want %d, %d", table, index, baseTable, baseIndex)
	}
	p := detached(t, red)
	fd := mustSocket(t, p, SockDgram)
	if err := p.BindPort(fd, 7401); err != nil {
		t.Fatal(err)
	}
	if err := p.BindPort(fd, 7402); !errors.Is(err, ErrInval) {
		t.Fatalf("explicit bind of a bound socket: %v, want ErrInval", err)
	}
}

// TestRecvBufPoolNoAlias closes a stream socket whose receive array
// grew past pooledRecvBuf, so the array may go back to the pool, and
// fills a new connection that may take it. A slice an earlier Recv
// returned is a copy: nothing written into a reused array shows in it.
func TestRecvBufPoolNoAlias(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	for round := 0; round < 4; round++ {
		f1, f2, err := p.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		fill := bytes.Repeat([]byte{byte('a' + round)}, 3*pooledRecvBuf)
		if _, err := p.Send(f1, fill); err != nil {
			t.Fatal(err)
		}
		got, err := p.Recv(f2, pooledRecvBuf)
		if err != nil {
			t.Fatal(err)
		}
		p.Close(f1)
		p.Close(f2)

		g1, g2, err := p.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		next := bytes.Repeat([]byte{'z'}, 2*pooledRecvBuf)
		if _, err := p.Send(g1, next); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill[:pooledRecvBuf]) {
			t.Fatalf("round %d: a returned slice changed when its socket's array was reused", round)
		}
		for read := 0; read < len(next); {
			data, err := p.Recv(g2, len(next))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, next[:len(data)]) {
				t.Fatalf("round %d: a pooled array delivered stale bytes", round)
			}
			read += len(data)
		}
		p.Close(g1)
		p.Close(g2)
	}
}

// TestDgramQueueReadOffset interleaves datagram deliveries with reads
// that leave some queued, so the queue is compacted rather than drained.
// Datagrams come out in order, no slot outside the unread ones holds a
// payload, the array stays near the most ever unread, and the budget
// counts unread datagrams only.
func TestDgramQueueReadOffset(t *testing.T) {
	const budget = 64
	c := NewCluster(Config{DgramQueueCap: budget})
	c.AddNetwork("ether0")
	m, err := c.AddMachine("solo", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	m.AddAccount(testUID, "u")
	t.Cleanup(c.Shutdown)
	p, fd := dgramReceiver(t, m, 703)
	s, err := p.sockFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	dest := meter.InetName(m.PrimaryHostID(), 703)
	send := func(i int) {
		if _, err := p.SendTo(fd, []byte(strconv.Itoa(i)), dest); err != nil {
			t.Fatal(err)
		}
	}
	sent, got, maxUnread := 0, 0, 0
	for i := 0; i < 2000; i++ {
		for j := 0; j < 1+i%5; j++ {
			send(sent)
			sent++
		}
		maxUnread = max(maxUnread, sent-got)
		for j := 0; j < 1+(i+2)%5 && got < sent; j++ {
			if data, _ := tryRecv(t, p, fd); string(data) != strconv.Itoa(got) {
				t.Fatalf("datagram %d read as %q", got, data)
			}
			got++
		}
	}
	s.mu.Lock()
	for i, d := range s.dgrams[:cap(s.dgrams)] {
		if (i < s.off || i >= len(s.dgrams)) && d.data != nil {
			t.Errorf("slot %d outside the unread datagrams still holds %q", i, d.data)
		}
	}
	if c := cap(s.dgrams); c > 4*maxUnread {
		t.Errorf("queue array cap %d for at most %d unread datagrams", c, maxUnread)
	}
	s.mu.Unlock()

	for got < sent {
		tryRecv(t, p, fd)
		got++
	}
	for i := 0; i < budget; i++ {
		send(i)
	}
	for i := 0; i < budget/4; i++ {
		tryRecv(t, p, fd)
	}
	for i := 0; i < budget/4+1; i++ {
		send(i)
	}
	if shed := m.mem.shedDgrams.Load(); shed != 1 {
		t.Fatalf("shed %d datagrams, want 1: the budget counts only unread ones", shed)
	}
}
