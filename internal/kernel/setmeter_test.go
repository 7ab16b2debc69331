package kernel

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dpm/internal/meter"
)

// decodeStream decodes the whole messages at the front of b and returns
// them with the rest: meter.DecodeStream checks each, and field i of
// its type's meter.Layout, read at the table's offset, becomes struct
// field i of its body.
func decodeStream(b []byte) ([]meter.Msg, []byte, error) {
	hs, rest, err := meter.DecodeStream(b)
	msgs := make([]meter.Msg, len(hs))
	for i, h := range hs {
		lay, _ := meter.LayoutOf(h.TraceType)
		var body meter.Body
		for _, proto := range []meter.Body{&meter.Send{}, &meter.RecvCall{}, &meter.Recv{}, &meter.SocketCrt{}, &meter.Dup{},
			&meter.DestSocket{}, &meter.Connect{}, &meter.Accept{}, &meter.Fork{}, &meter.TermProc{}} {
			if proto.EventType() == h.TraceType {
				body = proto
			}
		}
		v := reflect.ValueOf(body).Elem()
		for j := range v.NumField() {
			n, name := lay.Fields[j].Read(b[meter.HeaderSize:h.Size])
			if lay.Fields[j].IsName() {
				v.Field(j).Set(reflect.ValueOf(name))
			} else {
				v.Field(j).SetUint(uint64(n))
			}
		}
		msgs[i], b = meter.Msg{Header: h, Body: body}, b[h.Size:]
	}
	return msgs, rest, err
}

// meterTap wires a target process to a test "filter": a listening
// stream socket whose accepted connection carries the meter messages.
// It mirrors exactly what the meterdaemon does: create a socket,
// connect it to the filter, call setmeter with the connected
// descriptor, and close its own descriptor (section 4.1).
type meterTap struct {
	t      *testing.T
	filter *Process
	connFD int
	buf    []byte
}

// newMeterTap arms metering on target with the given flags. The
// caller process (the "daemon") runs as uid daemonUID on the target's
// machine.
func newMeterTap(t *testing.T, filterMachine *Machine, target *Process, flags meter.Flag, daemonUID int) *meterTap {
	t.Helper()
	filter, err := filterMachine.SpawnDetached(0, "test-filter")
	if err != nil {
		t.Fatal(err)
	}
	lfd, err := filter.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := filter.BindPort(lfd, 0); err != nil {
		t.Fatal(err)
	}
	if err := filter.Listen(lfd, 4); err != nil {
		t.Fatal(err)
	}
	ls, err := filter.sockFD(lfd)
	if err != nil {
		t.Fatal(err)
	}
	lname := ls.BoundName()

	daemon, err := target.Machine().SpawnDetached(daemonUID, "test-daemon")
	if err != nil {
		t.Fatal(err)
	}
	msfd, err := daemon.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Connect(msfd, lname); err != nil {
		t.Fatal(err)
	}
	connFD, _, err := filter.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Setmeter(target.PID(), int(flags), msfd); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Close(msfd); err != nil {
		t.Fatal(err)
	}
	return &meterTap{t: t, filter: filter, connFD: connFD}
}

// collect reads meter messages until n have been decoded.
func (mt *meterTap) collect(n int) []meter.Msg {
	mt.t.Helper()
	var msgs []meter.Msg
	for len(msgs) < n {
		data, err := mt.filter.Recv(mt.connFD, 4096)
		if err != nil {
			mt.t.Fatalf("meter tap recv after %d/%d messages: %v", len(msgs), n, err)
		}
		mt.buf = append(mt.buf, data...)
		got, rest, err := decodeStream(mt.buf)
		if err != nil {
			mt.t.Fatalf("meter stream corrupt: %v", err)
		}
		mt.buf = rest
		msgs = append(msgs, got...)
	}
	return msgs
}

func types(msgs []meter.Msg) []meter.Type {
	out := make([]meter.Type, len(msgs))
	for i, m := range msgs {
		out[i] = m.Header.TraceType
	}
	return out
}

func TestSetmeterEmitsFlaggedEvents(t *testing.T) {
	_, red, green := newTestCluster(t)
	target := detached(t, red)
	tap := newMeterTap(t, green, target, meter.MAll|meter.MImmediate, testUID)

	fd1, fd2, err := target.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Send(fd1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := target.Recv(fd2, 100); err != nil {
		t.Fatal(err)
	}
	// socketpair produces all four messages (2 creates + connect +
	// accept, section 3.2), then send, receivecall, receive.
	msgs := tap.collect(7)
	want := []meter.Type{
		meter.EvSocket, meter.EvSocket, meter.EvConnect, meter.EvAccept,
		meter.EvSend, meter.EvRecvCall, meter.EvRecv,
	}
	got := types(msgs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event sequence = %v, want %v", got, want)
		}
	}
	send := msgs[4].Body.(*meter.Send)
	if send.MsgLength != 5 || send.PID != uint32(target.PID()) {
		t.Fatalf("send body = %+v", send)
	}
	if msgs[0].Header.Machine != red.ID() {
		t.Fatalf("machine id = %d, want %d", msgs[0].Header.Machine, red.ID())
	}
}

func TestUnflaggedEventsNotEmitted(t *testing.T) {
	_, red, green := newTestCluster(t)
	target := detached(t, red)
	tap := newMeterTap(t, green, target, meter.MSend|meter.MImmediate, testUID)

	fd1, fd2, err := target.SocketPair() // socket/connect/accept unflagged
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Send(fd1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := target.Recv(fd2, 10); err != nil { // receive unflagged
		t.Fatal(err)
	}
	if _, err := target.Send(fd1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	msgs := tap.collect(2)
	if msgs[0].Header.TraceType != meter.EvSend || msgs[1].Header.TraceType != meter.EvSend {
		t.Fatalf("events = %v, want only sends", types(msgs))
	}
}

func TestMeterSocketHiddenFromProcess(t *testing.T) {
	// Transparency: "the descriptor of the socket through which meter
	// messages are sent to the filter is not stored in the process's
	// descriptor table and is, therefore, not directly accessible by
	// the process" (section 3.2). "The meter does not reduce the
	// number of open files and sockets available to the metered
	// process" (section 4.1).
	_, red, green := newTestCluster(t)
	target := detached(t, red)
	before := target.NumFDs()
	newMeterTap(t, green, target, meter.MAll, testUID)
	if got := target.NumFDs(); got != before {
		t.Fatalf("metering changed descriptor count %d -> %d", before, got)
	}
	id := target.MeterSocketID()
	if id == 0 {
		t.Fatal("no meter socket recorded")
	}
	if target.HasSocketFD(id) {
		t.Fatal("meter socket is visible in the process descriptor table")
	}
}

func TestSetmeterPermissionDenied(t *testing.T) {
	// "A user can request metering only for processes belonging to
	// that user. Specifying any other process results in an error
	// [EPERM]." (Appendix C.)
	_, red, _ := newTestCluster(t)
	red.AddAccount(200, "other")
	target := detached(t, red)
	other, err := red.SpawnDetached(200, "other")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Setmeter(target.PID(), int(meter.MAll), NoChange); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestSetmeterSuperuserMayMeterAnyone(t *testing.T) {
	_, red, _ := newTestCluster(t)
	target := detached(t, red)
	root, err := red.SpawnDetached(0, "root")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Setmeter(target.PID(), int(meter.MAll), NoChange); err != nil {
		t.Fatal(err)
	}
	if target.MeterFlags() != meter.MAll {
		t.Fatalf("flags = %b", target.MeterFlags())
	}
}

func TestSetmeterUnknownPid(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	if err := p.Setmeter(99999, int(meter.MAll), NoChange); !errors.Is(err, ErrSearch) {
		t.Fatalf("err = %v, want ESRCH", err)
	}
}

func TestSetmeterSelf(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	if err := p.Setmeter(Self, int(meter.MSend), NoChange); err != nil {
		t.Fatal(err)
	}
	if p.MeterFlags() != meter.MSend {
		t.Fatalf("flags = %b", p.MeterFlags())
	}
}

func TestSetmeterNoChangeKeepsFlags(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	if err := p.Setmeter(Self, int(meter.MSend|meter.MFork), NoChange); err != nil {
		t.Fatal(err)
	}
	if err := p.Setmeter(Self, NoChange, NoChange); err != nil {
		t.Fatal(err)
	}
	if p.MeterFlags() != meter.MSend|meter.MFork {
		t.Fatalf("NO_CHANGE altered flags: %b", p.MeterFlags())
	}
	if err := p.Setmeter(Self, FlagsNone, NoChange); err != nil {
		t.Fatal(err)
	}
	if p.MeterFlags() != 0 {
		t.Fatalf("NONE did not clear flags: %b", p.MeterFlags())
	}
}

func TestSetmeterRejectsNonStreamSocket(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	dfd, err := p.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Setmeter(Self, int(meter.MAll), dfd); !errors.Is(err, ErrInval) {
		t.Fatalf("datagram meter socket: err = %v, want ErrInval", err)
	}
	ufd, _, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Setmeter(Self, int(meter.MAll), ufd); !errors.Is(err, ErrInval) {
		t.Fatalf("non-Internet meter socket: err = %v, want ErrInval", err)
	}
}

func TestSetmeterUnconnectedSocketLosesMessages(t *testing.T) {
	// "The socket must be connected to be used, though this is not
	// checked. Meter messages are lost if they are sent on an
	// unconnected socket."
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	fd, err := p.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Setmeter(Self, int(meter.MAll|meter.MImmediate), fd); err != nil {
		t.Fatal(err)
	}
	// Generating events must not error or block even though nothing
	// can be delivered.
	if _, _, err := p.SocketPair(); err != nil {
		t.Fatal(err)
	}
}

func TestSetmeterNoneClosesConnection(t *testing.T) {
	_, red, green := newTestCluster(t)
	target := detached(t, red)
	newMeterTap(t, green, target, meter.MAll, testUID)
	if target.MeterSocketID() == 0 {
		t.Fatal("not metered")
	}
	root, err := red.SpawnDetached(0, "root")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Setmeter(target.PID(), NoChange, SockNone); err != nil {
		t.Fatal(err)
	}
	if target.MeterSocketID() != 0 {
		t.Fatal("meter connection not closed by NONE")
	}
}

func TestForkInheritsMetering(t *testing.T) {
	// "Child processes inherit metering flags and meter connections
	// from their parent" (Appendix C); the fork event carries the new
	// pid.
	_, red, green := newTestCluster(t)
	parent, err := red.Spawn(SpawnSpec{UID: testUID, Name: "parent", Suspended: true, Program: func(p *Process) int {
		childDone := make(chan struct{})
		_, err := p.Fork(func(c *Process) int {
			defer close(childDone)
			f1, f2, err := c.SocketPair()
			if err != nil {
				return 1
			}
			if _, err := c.Send(f1, []byte("child msg")); err != nil {
				return 1
			}
			if _, err := c.Recv(f2, 100); err != nil {
				return 1
			}
			return 0
		})
		if err != nil {
			return 1
		}
		<-childDone
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	tap := newMeterTap(t, green, parent, meter.MFork|meter.MSend|meter.MImmediate, testUID)
	if err := red.Signal(parent.PID(), SIGCONT); err != nil {
		t.Fatal(err)
	}
	msgs := tap.collect(2)
	fork := msgs[0].Body.(*meter.Fork)
	if fork.PID != uint32(parent.PID()) {
		t.Fatalf("fork parent pid = %d, want %d", fork.PID, parent.PID())
	}
	send := msgs[1].Body.(*meter.Send)
	if send.PID != fork.NewPID {
		t.Fatalf("send pid = %d, want child %d (metering not inherited)", send.PID, fork.NewPID)
	}
	if status, _ := parent.WaitExit(); status != 0 {
		t.Fatalf("parent exit status %d", status)
	}
}

func TestBufferedMessagesFlushedAtTermination(t *testing.T) {
	// "As part of process termination, any unsent messages are
	// forwarded to the filter" (section 3.2).
	_, red, green := newTestCluster(t)
	target, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Suspended: true, Program: func(p *Process) int {
		f1, _, err := p.SocketPair()
		if err != nil {
			return 1
		}
		// Two sends: far below the buffering threshold, so nothing is
		// delivered until termination.
		if _, err := p.Send(f1, []byte("a")); err != nil {
			return 1
		}
		if _, err := p.Send(f1, []byte("b")); err != nil {
			return 1
		}
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	tap := newMeterTap(t, green, target, meter.MSend, testUID) // buffered (no immediate)
	if err := red.Signal(target.PID(), SIGCONT); err != nil {
		t.Fatal(err)
	}
	if status, _ := target.WaitExit(); status != 0 {
		t.Fatalf("exit status %d", status)
	}
	msgs := tap.collect(2)
	if msgs[0].Header.TraceType != meter.EvSend || msgs[1].Header.TraceType != meter.EvSend {
		t.Fatalf("events = %v", types(msgs))
	}
}

func TestImmediateVsBufferedDeliveryTiming(t *testing.T) {
	_, red, green := newTestCluster(t)
	target := detached(t, red)
	tap := newMeterTap(t, green, target, meter.MSend, testUID) // buffered
	f1, _, err := target.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Send(f1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// One buffered send: the filter connection must still be silent.
	cs, err := tap.filter.sockFD(tap.connFD)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if cs.Readable() {
		t.Fatal("buffered meter message delivered immediately")
	}
	// Enough sends to cross the default threshold must flush.
	for i := 0; i < meter.DefaultBufferCount; i++ {
		if _, err := target.Send(f1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	tap.collect(meter.DefaultBufferCount)
}

func TestHeaderTimesAdvance(t *testing.T) {
	_, red, green := newTestCluster(t)
	target := detached(t, red)
	tap := newMeterTap(t, green, target, meter.MSend|meter.MImmediate, testUID)
	f1, _, err := target.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	target.Compute(50 * time.Millisecond)
	if _, err := target.Send(f1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	target.Compute(50 * time.Millisecond)
	if _, err := target.Send(f1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	msgs := tap.collect(2)
	h1, h2 := msgs[0].Header, msgs[1].Header
	if h2.CPUTime <= h1.CPUTime {
		t.Fatalf("cpuTime did not advance: %d then %d", h1.CPUTime, h2.CPUTime)
	}
	if h2.ProcTime <= h1.ProcTime {
		t.Fatalf("procTime did not advance: %d then %d", h1.ProcTime, h2.ProcTime)
	}
	if h2.ProcTime%10 != 0 {
		t.Fatalf("procTime %d not at 10ms granularity", h2.ProcTime)
	}
}
