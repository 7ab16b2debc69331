package kernel

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dpm/internal/meter"
)

// TestSyscallNoAlloc gates what a system call allocates once its
// buffers are warm: an unmetered stream send nothing, an unmetered
// stream receive only the slice it returns and a receive into the
// caller's buffers (RecvInto, Readv) nothing — RecvInto under a timer
// too, whether data or the timer ends it — an unmetered datagram to
// another machine only the receiver's copy and its receive nothing, and
// a metered buffered send nothing.
func TestSyscallNoAlloc(t *testing.T) {
	const runs = 200
	_, red, green := newTestCluster(t)
	payload := make([]byte, 64)

	p := detached(t, red)
	f1, f2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		if _, err := p.Send(f1, payload); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() {
		if _, err := p.Recv(f2, len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	// Grow the receiving socket's buffer past what the runs below queue,
	// then drain it: the array stays and the reads reset it to empty.
	for i := 0; i < 2*runs; i++ {
		send()
	}
	for i := 0; i < 2*runs; i++ {
		recv()
	}
	if got := testing.AllocsPerRun(runs, send); got != 0 {
		t.Errorf("unmetered stream Send: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, recv); got != 1 {
		t.Errorf("unmetered stream Recv: %v allocs, want 1 (the returned slice)", got)
	}
	buf := make([]byte, len(payload))
	recvInto := func() {
		send()
		if n, err := p.RecvInto(f2, buf, nil); err != nil || n != len(payload) {
			t.Fatalf("RecvInto: %d bytes, %v", n, err)
		}
	}
	readv := func() {
		send()
		if n, err := p.Readv(f2, [][]byte{buf[:10], buf[10:]}); err != nil || n != len(payload) {
			t.Fatalf("Readv: %d bytes, %v", n, err)
		}
	}
	if got := testing.AllocsPerRun(runs, recvInto); got != 0 {
		t.Errorf("unmetered stream send and RecvInto: %v allocs, want 0", got)
	}
	// Under the caller's timer, reset for each receive: one that data
	// ends and one that the timer ends.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	recvIntoTimed := func() {
		send()
		if n, err := p.RecvInto(f2, buf, timer.C); err != nil || n != len(payload) {
			t.Fatalf("RecvInto with a timeout: %d bytes, %v", n, err)
		}
	}
	recvIntoTimeout := func() {
		timer.Reset(time.Microsecond)
		if _, err := p.RecvInto(f2, buf, timer.C); !errors.Is(err, ErrTimedOut) {
			t.Fatalf("RecvInto on a silent socket: %v, want ErrTimedOut", err)
		}
	}
	if got := testing.AllocsPerRun(runs, recvIntoTimed); got != 0 {
		t.Errorf("unmetered stream send and RecvInto with a timeout: %v allocs, want 0", got)
	}
	if !timer.Stop() {
		t.Fatal("the timer fired within the hour")
	}
	if got := testing.AllocsPerRun(runs, recvIntoTimeout); got != 0 {
		t.Errorf("RecvInto that times out: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, readv); got != 0 {
		t.Errorf("unmetered stream send and Readv: %v allocs, want 0", got)
	}

	// A datagram to another machine: the route is resolved and the
	// receiver's queue grown by the warm-up, so a send allocates only
	// the receiver's queued copy, and the receive returns that copy.
	rp := detached(t, green)
	rfd := mustSocket(t, rp, SockDgram)
	if err := rp.BindPort(rfd, 7300); err != nil {
		t.Fatal(err)
	}
	to := meter.InetName(green.PrimaryHostID(), 7300)
	sfd := mustSocket(t, p, SockDgram)
	sendTo := func() {
		if _, err := p.SendTo(sfd, payload, to); err != nil {
			t.Fatal(err)
		}
	}
	recvFrom := func() {
		if _, _, err := rp.RecvFrom(rfd, len(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*runs; i++ {
		sendTo()
	}
	for i := 0; i < 2*runs; i++ {
		recvFrom()
	}
	if got := testing.AllocsPerRun(runs, sendTo); got != 1 {
		t.Errorf("unmetered cross-machine SendTo: %v allocs, want 1 (the queued copy)", got)
	}
	if got := testing.AllocsPerRun(runs, recvFrom); got != 0 {
		t.Errorf("unmetered RecvFrom of a datagram: %v allocs, want 0", got)
	}

	m := detached(t, red)
	tap := newMeterTap(t, green, m, meter.MSend, testUID)
	g1, _, err := m.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	msend := func() {
		if _, err := m.Send(g1, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the meter buffer's batch storage and the filter connection's
	// receive buffer, then drain the connection.
	for i := 0; i < 2*runs; i++ {
		msend()
	}
	tap.collect(2 * runs)
	if got := testing.AllocsPerRun(runs, msend); got != 0 {
		t.Errorf("metered buffered Send: %v allocs, want 0", got)
	}
}

// TestMeterBodiesNoAlloc emits each of the ten meter bodies through a
// metered process, built where the kernel builds them, and gates the
// event at 0 allocations: no body escapes to the heap on its way into
// the meter buffer, and each one reaches the filter.
func TestMeterBodiesNoAlloc(t *testing.T) {
	const runs = 200
	_, red, green := newTestCluster(t)
	m := detached(t, red)
	tap := newMeterTap(t, green, m, meter.MAll, testUID)
	pid, name := uint32(m.pid), meter.InetName(1, 7)
	emits := []struct {
		typ  meter.Type
		emit func()
	}{
		{meter.EvSend, func() { m.emit(&meter.Send{PID: pid, PC: m.nextPC(), MsgLength: 64, DestNameLen: 16, DestName: name}) }},
		{meter.EvRecvCall, func() { m.emit(&meter.RecvCall{PID: pid, PC: m.nextPC(), Sock: 3}) }},
		{meter.EvRecv, func() { m.emit(&meter.Recv{PID: pid, PC: m.nextPC(), MsgLength: 64, SourceName: name}) }},
		{meter.EvSocket, func() { m.emit(&meter.SocketCrt{PID: pid, PC: m.nextPC(), Domain: uint32(meter.AFInet)}) }},
		{meter.EvDup, func() { m.emit(&meter.Dup{PID: pid, PC: m.nextPC(), Sock: 3, NewSock: 4}) }},
		{meter.EvDestSocket, func() { m.emit(&meter.DestSocket{PID: pid, PC: m.nextPC(), Sock: 3}) }},
		{meter.EvConnect, func() { m.emit(&meter.Connect{PID: pid, PC: m.nextPC(), SockName: name, PeerName: name}) }},
		{meter.EvAccept, func() { m.emit(&meter.Accept{PID: pid, PC: m.nextPC(), SockName: name, PeerName: name}) }},
		{meter.EvFork, func() { m.emit(&meter.Fork{PID: pid, PC: m.nextPC(), NewPID: pid + 1}) }},
		{meter.EvTermProc, func() { m.emit(&meter.TermProc{PID: pid, PC: m.nextPC()}) }},
	}
	for _, e := range emits {
		// Warm the batch storage and the filter side's receive array
		// past what the measured runs queue, then drain.
		for i := 0; i < 2*runs; i++ {
			e.emit()
		}
		tap.collect(2 * runs)
		if got := testing.AllocsPerRun(runs, e.emit); got != 0 {
			t.Errorf("metered %v event: %v allocs, want 0", e.typ, got)
		}
		// AllocsPerRun makes one more call than it counts.
		m.meter.Load().buf.Flush()
		for _, msg := range tap.collect(runs + 1) {
			if msg.Header.TraceType != e.typ {
				t.Fatalf("emitted %v, filter got %v", e.typ, msg.Header.TraceType)
			}
		}
	}
}

// emptyRecvFree takes every array out of recvFree.
func emptyRecvFree() {
	for held, _ := recvFree.Held(); len(held) > 0; held, _ = recvFree.Held() {
		recvFree.Take(0, nil)
	}
}

// TestMeterConnReusesRecvArray closes a meter connection and collects
// garbage twice, which empties a sync.Pool: a new meter connection
// still starts from the closed one's receive array.
func TestMeterConnReusesRecvArray(t *testing.T) {
	emptyRecvFree()
	_, red, green := newTestCluster(t)
	array := func(tap *meterTap) *byte {
		s, err := tap.filter.sockFD(tap.connFD)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return unsafe.SliceData(s.recvBuf[:1])
	}
	send := func(p *Process) {
		f1, _, err := p.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Send(f1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	first := detached(t, red)
	tap := newMeterTap(t, green, first, meter.MSend|meter.MImmediate, testUID)
	send(first)
	old := array(tap)
	tap.collect(1)
	if err := tap.filter.Close(tap.connFD); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()

	second := detached(t, red)
	tap = newMeterTap(t, green, second, meter.MSend|meter.MImmediate, testUID)
	send(second)
	if array(tap) != old {
		t.Fatal("the new meter connection grew a receive array instead of reusing the closed one's")
	}
	tap.collect(1)
}

// TestRecvFreeKeptAcrossGCNoAlloc closes a connection whose receive
// array grew past pooledRecvBuf and collects garbage twice: the next
// connection's growth takes that array, a hit, and allocates nothing.
func TestRecvFreeKeptAcrossGCNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	emptyRecvFree()
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	data, into := make([]byte, 2*pooledRecvBuf), make([]byte, 2*pooledRecvBuf)
	pair := func() (int, int) {
		f1, f2, err := p.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		return f1, f2
	}
	f1, f2 := pair()
	if _, err := p.Send(f1, data); err != nil {
		t.Fatal(err)
	}
	p.Close(f1)
	p.Close(f2)
	runtime.GC()
	runtime.GC()
	g1, g2 := pair()
	hits, misses := red.Obs().Counter("mem.recv.hits"), red.Obs().Counter("mem.recv.misses")
	h0, m0 := hits.Load(), misses.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := p.Send(g1, data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= pooledRecvBuf || hits.Load() != h0+1 || misses.Load() != m0 {
		t.Fatalf("a send that grows the receive array allocated %d bytes, with %d hits and %d misses", grew, hits.Load()-h0, misses.Load()-m0)
	}
	if n, err := p.RecvInto(g2, into, nil); err != nil || n != len(data) {
		t.Fatalf("received %d bytes, %v", n, err)
	}
}

// TestStreamReadOffset interleaves deliveries with reads that take
// less than is queued, so the receive buffer is compacted rather than
// drained. The bytes come out in order, and the array stays within a
// small multiple of what is ever unread at once.
func TestStreamReadOffset(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	f1, f2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.sockFD(f2)
	if err != nil {
		t.Fatal(err)
	}
	var sent, got []byte
	maxUnread := 0
	for i := 0; i < 2000; i++ {
		chunk := make([]byte, 1+i%97)
		for j := range chunk {
			chunk[j] = byte(len(sent) + j)
		}
		if _, err := p.Send(f1, chunk); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, chunk...)
		maxUnread = max(maxUnread, len(sent)-len(got))
		data, err := p.Recv(f2, 1+i%89)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data...)
	}
	for len(got) < len(sent) {
		data, err := p.Recv(f2, 4096)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data...)
	}
	if !bytes.Equal(got, sent) {
		t.Fatal("stream bytes reordered or lost across compactions")
	}
	rs.mu.Lock()
	c := cap(rs.recvBuf)
	rs.mu.Unlock()
	if c > 4*maxUnread {
		t.Fatalf("receive array cap %d for at most %d unread bytes", c, maxUnread)
	}
}

// TestMeterStateRace changes a process's metering while it runs: a
// controller toggles the flags and the meter socket with Setmeter, and
// SIGSTOP/SIGCONT arrive, while the process sends and receives. Every
// record the filter gets must be of a type some published flag set
// selected, every event the meter took must be a record received or a
// counted drop, and the metered records' PCs must be the ones an
// all-metered run of the same calls gives.
func TestMeterStateRace(t *testing.T) {
	// work is the process's system calls: a socketpair, then rounds of
	// a send and a receive (send, receivecall and receive events) until
	// more returns false. It returns the rounds made; the caller ends
	// the process.
	work := func(p *Process, more func(round int) bool) int {
		f1, f2, err := p.SocketPair()
		if err != nil {
			t.Fatal(err)
		}
		round := 0
		for ; more(round); round++ {
			if _, err := p.Send(f1, []byte("ping")); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Recv(f2, 4); err != nil {
				t.Fatal(err)
			}
		}
		return round
	}

	_, red, green := newTestCluster(t)
	p := detached(t, red)
	filter := detached(t, green)
	lfd, lname := listenStream(t, filter, 0)
	ctl, err := red.SpawnDetached(0, "controller")
	if err != nil {
		t.Fatal(err)
	}
	var socks [2]int
	var conns [2]int
	for i := range socks {
		if socks[i], err = ctl.Socket(meter.AFInet, SockStream); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Connect(socks[i], lname); err != nil {
			t.Fatal(err)
		}
		if conns[i], _, err = filter.Accept(lfd); err != nil {
			t.Fatal(err)
		}
	}

	// The filter: one reader per meter connection, each to EOF.
	var mu sync.Mutex
	var got []meter.Msg
	var readers sync.WaitGroup
	for _, fd := range conns {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []byte
			for {
				data, err := filter.Recv(fd, 4096)
				if err != nil {
					return
				}
				buf = append(buf, data...)
				msgs, rest, err := decodeStream(buf)
				if err != nil {
					t.Errorf("meter stream corrupt: %v", err)
					return
				}
				buf = rest
				mu.Lock()
				got = append(got, msgs...)
				mu.Unlock()
			}
		}()
	}

	// The published flag sets never select receive, termproc or the
	// connection events.
	steps := []struct {
		flags, sock int
	}{
		{int(meter.MSend), socks[0]},
		{int(meter.MSend | meter.MReceiveCall), NoChange},
		{int(meter.MReceiveCall | meter.MImmediate), socks[1]},
		{FlagsNone, NoChange},
		{NoChange, SockNone},
		{int(meter.MSend | meter.MImmediate), socks[1]},
		{int(meter.MSend), socks[0]},
	}
	const published = meter.MSend | meter.MReceiveCall
	done := make(chan struct{})
	var setmeters, stops atomic.Int64
	var racers sync.WaitGroup
	racers.Add(2)
	go func() {
		defer racers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s := steps[i%len(steps)]
			if err := ctl.Setmeter(p.PID(), s.flags, s.sock); err != nil {
				t.Error(err)
				return
			}
			setmeters.Add(1)
		}
	}()
	go func() {
		defer racers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := red.Signal(p.PID(), SIGSTOP); err != nil {
				t.Error(err)
				return
			}
			if err := red.Signal(p.PID(), SIGCONT); err != nil {
				t.Error(err)
				return
			}
			stops.Add(1)
		}
	}()
	// Keep sending until a Setmeter has landed between two rounds many
	// times over: the scheduler may otherwise run all the rounds in one
	// burst beside a parked controller.
	lastSet, interleaved := int64(-1), 0
	rounds := work(p, func(round int) bool {
		if n := setmeters.Load(); n != lastSet {
			lastSet, interleaved = n, interleaved+1
		}
		return round < 500 || interleaved < 20*len(steps) || stops.Load() < 100
	})
	close(done)
	racers.Wait()
	p.Exit(0)
	// The process has exited and dropped its meter socket; closing the
	// controller's descriptors ends both connections.
	for _, fd := range socks {
		if err := ctl.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	readers.Wait()

	// The reference: the same calls with every event metered.
	want := map[uint32]meter.Type{}
	{
		_, red, green := newTestCluster(t)
		p := detached(t, red)
		tap := newMeterTap(t, green, p, meter.MAll, testUID)
		work(p, func(round int) bool { return round < rounds })
		p.Exit(0)
		for _, msg := range tap.collect(4 + 3*rounds + 1) {
			pc, typ := msgPC(t, msg)
			want[pc] = typ
		}
	}

	events := red.Obs().Counter("meter.events").Load()
	drops := red.cluster.FaultStats().MeterDrops
	if events != int64(len(got))+drops {
		t.Errorf("meter events %d != %d records received + %d drops", events, len(got), drops)
	}
	if len(got) == 0 {
		t.Fatal("no records metered")
	}
	pcs := make([]uint32, 0, len(got))
	for _, msg := range got {
		pc, typ := msgPC(t, msg)
		if !published.Selects(typ) {
			t.Errorf("record of type %v at pc %d: no published flag set selects it", typ, pc)
		}
		if ref, ok := want[pc]; !ok || ref != typ {
			t.Errorf("record %v at pc %d; the all-metered run has %v there", typ, pc, ref)
		}
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for i := 1; i < len(pcs); i++ {
		if pcs[i] == pcs[i-1] {
			t.Errorf("pc %d metered twice", pcs[i])
		}
	}
}

// msgPC returns a message's pc and type.
func msgPC(t *testing.T, msg meter.Msg) (uint32, meter.Type) {
	t.Helper()
	pc := reflect.ValueOf(msg.Body).Elem().FieldByName("PC")
	if !pc.IsValid() {
		t.Fatalf("%v record has no pc field", msg.Header.TraceType)
	}
	return uint32(pc.Uint()), msg.Header.TraceType
}

// TestRecvLazyNoAlloc: RecvLazy blocked on a quiet connection asks for
// no buffer; once bytes arrive it asks for one, receives into it and
// allocates nothing; once the peer has closed it fails with io.EOF
// without asking.
func TestRecvLazyNoAlloc(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	f1, f2, err := p.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	var asked atomic.Int64
	get := func() []byte { asked.Add(1); return buf }
	type result struct {
		b   []byte
		n   int
		err error
	}
	woke := make(chan result)
	go func() { b, n, err := p.RecvLazy(f2, len(buf), get); woke <- result{b, n, err} }()
	select {
	case r := <-woke:
		t.Fatalf("RecvLazy on a quiet connection returned %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	if asked.Load() != 0 {
		t.Fatal("RecvLazy asked for a buffer with nothing to receive")
	}
	if _, err := p.Send(f1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if r := <-woke; r.err != nil || string(r.b[:r.n]) != "abc" || asked.Load() != 1 {
		t.Fatalf("RecvLazy once bytes arrived: %q, %v, %d buffers asked for", r.b[:r.n], r.err, asked.Load())
	}
	abc := []byte("abc")
	if got := testing.AllocsPerRun(100, func() {
		if _, err := p.Send(f1, abc); err != nil {
			t.Fatal(err)
		}
		if _, n, err := p.RecvLazy(f2, len(buf), get); err != nil || n != 3 {
			t.Fatalf("RecvLazy: %d bytes, %v", n, err)
		}
	}); got != 0 {
		t.Errorf("unmetered stream send and RecvLazy: %v allocs, want 0", got)
	}
	if err := p.Close(f1); err != nil {
		t.Fatal(err)
	}
	before := asked.Load()
	if b, _, err := p.RecvLazy(f2, len(buf), get); !errors.Is(err, io.EOF) || b != nil || asked.Load() != before {
		t.Fatalf("RecvLazy after the peer closed: %v, want io.EOF and no buffer asked for", err)
	}
}
