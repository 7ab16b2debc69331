package analysis

import (
	"errors"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

func mustOrder(t *testing.T, b *tb) *Order {
	t.Helper()
	o, err := HappenedBefore(b.events, MatchTrace(b.events, nil))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestHappenedBeforeOrdersConnScenario(t *testing.T) {
	b := connScenario()
	o := mustOrder(t, b)
	// connect(0)→accept(1), send(2)→recv(3), and program order chain
	// everything except the two termination events (4 and 5), which
	// are genuinely concurrent: 11 of the 15 pairs are ordered.
	if got, want := o.OrderedFraction(), 11.0/15.0; got != want {
		t.Fatalf("OrderedFraction = %v, want %v", got, want)
	}
	if !o.Ordered(0, 5) || !o.Ordered(2, 3) || !o.Ordered(0, 1) {
		t.Fatal("expected orderings missing")
	}
	if o.Ordered(3, 2) {
		t.Fatal("receive ordered before its send")
	}
	if !o.Concurrent(4, 5) {
		t.Fatal("independent terminations not concurrent")
	}
}

func TestSendBeforeReceiveDespiteLogOrder(t *testing.T) {
	// The receive appears in the trace before the send (buffered meter
	// messages arrive late); the deduced order must still place the
	// send first.
	b := &tb{}
	recvName := meter.InetName(2, 5000)
	sendName := meter.InetName(1, 1024)
	r := b.recv(2, 20, 0, 9, 4, sendName)
	s := b.send(1, 10, 1, 3, 4, recvName)
	o := mustOrder(t, b)
	if !o.Ordered(s, r) {
		t.Fatal("send not ordered before receive")
	}
	if o.Ordered(r, s) {
		t.Fatal("receive ordered before send")
	}
}

func TestIndependentProcessesConcurrent(t *testing.T) {
	b := &tb{}
	a1 := b.send(1, 10, 0, 3, 4, meter.InetName(9, 1))
	a2 := b.send(1, 10, 1, 3, 4, meter.InetName(9, 1))
	c1 := b.send(2, 20, 0, 4, 4, meter.InetName(9, 2))
	o := mustOrder(t, b)
	if !o.Ordered(a1, a2) {
		t.Fatal("program order missing")
	}
	if !o.Concurrent(a1, c1) || !o.Concurrent(a2, c1) {
		t.Fatal("independent processes not concurrent")
	}
	frac := o.OrderedFraction()
	if frac >= 1.0 || frac <= 0 {
		t.Fatalf("OrderedFraction = %v, want partial", frac)
	}
}

func TestForkEdge(t *testing.T) {
	b := &tb{}
	f := b.add(meter.EvFork, 1, 10, 0, map[string]uint64{"newPid": 11}, nil)
	childEv := b.send(1, 11, 1, 3, 4, meter.InetName(9, 1))
	o := mustOrder(t, b)
	if !o.Ordered(f, childEv) {
		t.Fatal("fork not ordered before child's first event")
	}
}

func TestLamportRespectsOrder(t *testing.T) {
	b := connScenario()
	o := mustOrder(t, b)
	for i := 0; i < o.N(); i++ {
		for j := 0; j < o.N(); j++ {
			if o.Ordered(i, j) && o.Lamport[i] >= o.Lamport[j] {
				t.Fatalf("Lamport[%d]=%d not < Lamport[%d]=%d despite ordering",
					i, o.Lamport[i], j, o.Lamport[j])
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	// An inconsistent trace: process 1's first event "receives" a
	// message that its own later event sent.
	b := &tb{}
	recvName := meter.InetName(1, 5000)
	sendName := meter.InetName(1, 1024)
	b.recv(1, 10, 0, 9, 4, sendName)
	b.send(1, 10, 1, 3, 4, recvName)
	// Force the pathological match directly.
	matches := []Match{{SendSeq: 1, RecvSeq: 0, Bytes: 4}}
	if _, err := HappenedBefore(b.events, &Matching{Matches: matches}); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestOrderedFractionEmptyAndSingle(t *testing.T) {
	o, err := HappenedBefore(nil, &Matching{})
	if err != nil {
		t.Fatal(err)
	}
	if o.OrderedFraction() != 1 {
		t.Fatal("empty trace fraction != 1")
	}
	b := &tb{}
	b.send(1, 1, 0, 1, 1, meter.InetName(2, 2))
	o = mustOrder(t, b)
	if o.OrderedFraction() != 1 {
		t.Fatal("single event fraction != 1")
	}
}

func TestOrderedOutOfRange(t *testing.T) {
	b := connScenario()
	o := mustOrder(t, b)
	if o.Ordered(-1, 0) || o.Ordered(0, 99) {
		t.Fatal("out-of-range Ordered returned true")
	}
}

func TestTransitivity(t *testing.T) {
	// Three processes chained by messages: a→b→c implies a→c.
	b := &tb{}
	n2 := meter.InetName(2, 5000)
	n3 := meter.InetName(3, 5000)
	s1 := b.send(1, 10, 0, 3, 4, n2)
	r1 := b.recv(2, 20, 1, 9, 4, meter.InetName(1, 1024))
	s2 := b.send(2, 20, 2, 9, 4, n3)
	r2 := b.recv(3, 30, 3, 5, 4, meter.InetName(2, 5000))
	o := mustOrder(t, b)
	_ = r1
	_ = s2
	if !o.Ordered(s1, r2) {
		t.Fatal("transitive ordering s1→r2 missing")
	}
}

// TestClockWidthIsOneJob: a trace of k independent 4-process rings gives
// every event a clock one ring wide, and no event of one ring is ordered
// with an event of another.
func TestClockWidthIsOneJob(t *testing.T) {
	const jobs, procs = 5, 4
	var first, last [jobs]int
	b := &tb{}
	for round := 0; round < 3; round++ {
		for j := 0; j < jobs; j++ {
			for i := 0; i < procs; i++ {
				from, to := procs*j+i+1, procs*j+(i+1)%procs+1
				s := b.send(from, 10, int64(len(b.events)), 3, 4, meter.InetName(uint32(to), 5000))
				if round == 0 && i == 0 {
					first[j] = s
				}
				last[j] = b.recv(to, 10, int64(len(b.events)), 9, 4, meter.InetName(uint32(from), 1024))
			}
		}
	}
	o := mustOrder(t, b)
	for i, c := range o.clock {
		if len(c) != procs {
			t.Fatalf("event %d: clock width %d, want %d", i, len(c), procs)
		}
	}
	for j := 1; j < jobs; j++ {
		if !o.Concurrent(first[0], first[j]) || !o.Concurrent(last[0], first[j]) || !o.Ordered(first[j], last[j]) {
			t.Fatalf("job %d: rings not independent, or a ring not ordered within", j)
		}
	}
}

// refReach is the reachability the vector clocks replaced, kept as their
// reference: from the same evidence as HappenedBefore, a bitset per event
// over all events, filled in reverse topological order. A Kahn sweep that
// leaves events unsorted reports ErrCycle.
func refReach(events []trace.Event, matches []Match) ([][]uint64, error) {
	n := len(events)
	succ := make([][]int, n)
	addEdge := func(from, to int) {
		if from >= 0 && to >= 0 && from < n && to < n && from != to {
			succ[from] = append(succ[from], to)
		}
	}
	last := make(map[ProcKey]int)
	firstOf := make(map[ProcKey]int)
	for i := range events {
		k := keyOf(&events[i])
		if prev, ok := last[k]; ok {
			addEdge(prev, i)
		} else {
			firstOf[k] = i
		}
		last[k] = i
	}
	for _, m := range matches {
		addEdge(m.SendSeq, m.RecvSeq)
	}
	for _, c := range MatchTrace(events, nil).Conns {
		addEdge(c.ConnectSeq, c.AcceptSeq)
	}
	for i := range events {
		if e := &events[i]; e.Type == meter.EvFork {
			if f, ok := firstOf[ProcKey{Machine: e.Machine, PID: int(e.Fields["newPid"])}]; ok {
				addEdge(i, f)
			}
		}
	}

	indeg := make([]int, n)
	for _, succs := range succ {
		for _, t := range succs {
			indeg[t]++
		}
	}
	var topo []int
	for i, d := range indeg {
		if d == 0 {
			topo = append(topo, i)
		}
	}
	for k := 0; k < len(topo); k++ {
		for _, t := range succ[topo[k]] {
			if indeg[t]--; indeg[t] == 0 {
				topo = append(topo, t)
			}
		}
	}
	if len(topo) != n {
		return nil, ErrCycle
	}
	reach := make([][]uint64, n)
	for k := n - 1; k >= 0; k-- {
		v := topo[k]
		reach[v] = make([]uint64, (n+63)/64)
		for _, t := range succ[v] {
			reach[v][t/64] |= 1 << (t % 64)
			for w := range reach[v] {
				reach[v][w] |= reach[t][w]
			}
		}
	}
	return reach, nil
}

// fuzzTrace reads data two bytes a step into a trace of four
// independent jobs. Job j starts with one process on each of machines
// 4j+1 to 4j+3; a forked child runs on its parent's machine. A step
// picks a job, an acting process and another, its peer, in that job,
// and records one of: a datagram to the peer, its receive sometimes
// logged first; a fork; a stream connection to the peer; a write on a
// connection, read at its other end; a socket call; or, about once in
// 128 steps, a receive of a datagram the process itself sends later,
// which makes a cycle.
func fuzzTrace(data []byte) []trace.Event {
	type proc struct{ machine, pid int }
	type conn struct {
		client, server proc
		csock, ssock   uint32
	}
	jobs := make([][]proc, 4)
	for j := range jobs {
		for m := 1; m <= 3; m++ {
			jobs[j] = append(jobs[j], proc{4*j + m, 10})
		}
	}
	conns := make([][]conn, len(jobs))
	b := &tb{}
	cpu := func() int64 { return int64(len(b.events)) }
	for k := 0; k+1 < len(data) && k < 64; k += 2 {
		op, arg := data[k], data[k+1]
		j := int(arg) % len(jobs)
		ps := jobs[j]
		ia := int(arg/4) % len(ps)
		a, c := ps[ia], ps[(ia+1+int(op/16)%(len(ps)-1))%len(ps)]
		switch op % 16 {
		case 0, 1, 2, 3, 4:
			send := func() {
				b.send(a.machine, a.pid, cpu(), 3, 4, meter.InetName(uint32(c.machine), 5000))
			}
			if op%2 == 1 {
				send()
			}
			b.recv(c.machine, c.pid, cpu(), 9, 4, meter.InetName(uint32(a.machine), 1024))
			if op%2 == 0 {
				send()
			}
		case 5, 6:
			if len(ps) < 8 {
				child := proc{a.machine, 10 + len(ps)}
				b.add(meter.EvFork, a.machine, a.pid, cpu(), map[string]uint64{"newPid": uint64(child.pid)}, nil)
				jobs[j] = append(ps, child)
			}
		case 7, 8:
			n := len(conns[j])
			own := meter.InetName(uint32(a.machine), uint16(2000+n))
			srv := meter.InetName(uint32(c.machine), 6000)
			cn := conn{a, c, uint32(20 + n), uint32(40 + n)}
			b.connect(a.machine, a.pid, cpu(), cn.csock, own, srv)
			b.accept(c.machine, c.pid, cpu(), 7, cn.ssock, srv, own)
			conns[j] = append(conns[j], cn)
		case 9, 10, 11:
			if len(conns[j]) == 0 {
				break
			}
			cn := conns[j][int(op/16)%len(conns[j])]
			from, fsock, to, tsock := cn.client, cn.csock, cn.server, cn.ssock
			if arg&0x80 != 0 {
				from, fsock, to, tsock = to, tsock, from, fsock
			}
			b.send(from.machine, from.pid, cpu(), fsock, 1+int(arg%8), meter.Name{})
			b.recv(to.machine, to.pid, cpu(), tsock, 1+int(arg%8), meter.Name{})
		case 12, 13, 14:
			b.add(meter.EvSocket, a.machine, a.pid, cpu(), map[string]uint64{"sock": 1}, nil)
		case 15:
			if arg&0x70 != 0 {
				break
			}
			b.recv(a.machine, a.pid, cpu(), 9, 4, meter.InetName(uint32(a.machine), 1024))
			b.send(a.machine, a.pid, cpu(), 3, 4, meter.InetName(uint32(a.machine), 5000))
		}
	}
	return b.events
}

// FuzzHappenedBefore holds the vector clocks to the bitset reachability
// they replaced over every pair of events of traces built by fuzzTrace:
// the same Ordered and Concurrent, the same OrderedFraction to the bit,
// and ErrCycle on the same traces.
func FuzzHappenedBefore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 4, 2, 8, 0x10, 1, 0x21, 5})
	f.Add([]byte{5, 0, 0x15, 4, 0x10, 0, 0x21, 4, 0x32, 0})
	f.Add([]byte{7, 0x10, 0x19, 0x10, 0x1a, 0x90, 9, 0x14, 0x2c, 0x11, 8, 3})
	f.Add([]byte{0, 0, 0xff, 0, 0x10, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzTrace(data)
		mt := MatchTrace(events, nil)
		matches := mt.Matches
		o, err := HappenedBefore(events, mt)
		reach, rerr := refReach(events, matches)
		if !errors.Is(err, rerr) {
			t.Fatalf("HappenedBefore: %v, reference: %v", err, rerr)
		}
		if err != nil {
			return
		}
		n := len(events)
		before := func(a, b int) bool { return reach[a][b/64]&(1<<(b%64)) != 0 }
		ordered := 0
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if before(a, b) {
					ordered++
				}
				if got := o.Ordered(a, b); got != before(a, b) {
					t.Fatalf("Ordered(%d, %d) = %v, reference %v", a, b, got, !got)
				}
				if got, want := o.Concurrent(a, b), a != b && !before(a, b) && !before(b, a); got != want {
					t.Fatalf("Concurrent(%d, %d) = %v, reference %v", a, b, got, want)
				}
			}
		}
		want := 1.0
		if n >= 2 {
			want = float64(ordered) / float64(n*(n-1)/2)
		}
		if got := o.OrderedFraction(); got != want {
			t.Fatalf("OrderedFraction = %v, reference %v", got, want)
		}
	})
}
