package live

import (
	"testing"

	"dpm/internal/meter"
)

// Matcher-level tests drive the collector through apply with
// hand-built tap entries — the same seam the worker taps use — so each
// behavior is exercised without a pipeline.

func entry(kind meter.Type, machine uint16, pid, sock, aux uint32, cpu int64) tapEntry {
	return tapEntry{Kind: uint8(kind), Machine: machine, PID: pid, Sock: sock, Aux: aux, CPU: cpu}
}

func (c *Collector) matchState(t *testing.T) *MatchState {
	t.Helper()
	st, err := DecodeMatch(c.captureMatch())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMatchOrphanReplay sends stream traffic before the handshake
// completes: the orphaned bytes must replay and match once connect and
// accept meet.
func TestMatchOrphanReplay(t *testing.T) {
	c := NewCollector(Config{})
	cn := meter.InetName(0, 10)
	sn := meter.InetName(1, 20)
	// Sends and even the receive arrive before the handshake pairs.
	send1 := entry(meter.EvSend, 0, 1, 3, 100, 10)
	send2 := entry(meter.EvSend, 0, 1, 3, 50, 20)
	recv1 := entry(meter.EvRecv, 1, 2, 6, 100, 30)
	conn := entry(meter.EvConnect, 0, 1, 3, 0, 40)
	conn.Name1, conn.Name2 = cn, sn
	acc := entry(meter.EvAccept, 1, 2, 0, 6, 50) // aux carries newSock
	acc.Name1, acc.Name2 = sn, cn
	c.apply([]tapEntry{send1, send2, recv1})
	if st := c.matchState(t); st.Conns != 0 || st.StreamMatched != 0 || st.Pending != 3 {
		t.Fatalf("before handshake: %+v", *st)
	}
	c.apply([]tapEntry{conn, acc})
	// Replay: recv of 100 covers send1 exactly; send2 stays pending.
	if st := c.matchState(t); st.Conns != 1 || st.StreamMatched != 1 || st.Pending != 1 {
		t.Fatalf("after handshake: %+v", *st)
	}
	// The rest of the stream drains.
	recv2 := entry(meter.EvRecv, 1, 2, 6, 50, 60)
	c.apply([]tapEntry{recv2})
	if st := c.matchState(t); st.StreamMatched != 2 || st.Pending != 0 {
		t.Fatalf("after drain: %+v", *st)
	}
}

// TestMatchAcceptBeforeConnect pairs the handshake in either arrival
// order.
func TestMatchAcceptBeforeConnect(t *testing.T) {
	c := NewCollector(Config{})
	cn := meter.InetName(0, 10)
	sn := meter.InetName(1, 20)
	acc := entry(meter.EvAccept, 1, 2, 0, 6, 10)
	acc.Name1, acc.Name2 = sn, cn
	conn := entry(meter.EvConnect, 0, 1, 3, 0, 20)
	conn.Name1, conn.Name2 = cn, sn
	c.apply([]tapEntry{acc, conn})
	if st := c.matchState(t); st.Conns != 1 || st.Pending != 0 {
		t.Fatalf("accept-first handshake: %+v", *st)
	}
}

// TestMatchCrossedHandshakes has two clients dial one listener, the
// accepts arriving before the connects they name: each connect must
// pair with the accept that names it, not with the first one waiting,
// or the client's bytes land on the other connection.
func TestMatchCrossedHandshakes(t *testing.T) {
	c := NewCollector(Config{})
	srv, x, y := meter.InetName(1, 7000), meter.InetName(0, 1001), meter.InetName(0, 1002)
	a1 := entry(meter.EvAccept, 1, 9, 4, 5, 10)
	a1.Name1, a1.Name2 = srv, y
	c1 := entry(meter.EvConnect, 0, 1, 3, 0, 11)
	c1.Name1, c1.Name2 = x, srv
	a2 := entry(meter.EvAccept, 1, 9, 4, 6, 12)
	a2.Name1, a2.Name2 = srv, x
	c2 := entry(meter.EvConnect, 0, 2, 3, 0, 13)
	c2.Name1, c2.Name2 = y, srv
	send := entry(meter.EvSend, 0, 1, 3, 100, 14)
	recv := entry(meter.EvRecv, 1, 9, 6, 100, 15)
	c.apply([]tapEntry{a1, c1, a2, c2, send, recv})
	if st := c.matchState(t); st.Conns != 2 || st.StreamMatched != 1 || st.Pending != 0 {
		t.Fatalf("crossed handshakes: %+v", *st)
	}
}

// TestMatchZeroLengthSend: a zero-length send carries no byte, so it
// matches nothing and waits for nothing; the send after it matches
// the receive.
func TestMatchZeroLengthSend(t *testing.T) {
	c := NewCollector(Config{})
	cn, sn := meter.InetName(0, 10), meter.InetName(1, 20)
	conn := entry(meter.EvConnect, 0, 1, 3, 0, 10)
	conn.Name1, conn.Name2 = cn, sn
	acc := entry(meter.EvAccept, 1, 2, 0, 6, 11)
	acc.Name1, acc.Name2 = sn, cn
	c.apply([]tapEntry{conn, acc, entry(meter.EvSend, 0, 1, 3, 0, 12), entry(meter.EvSend, 0, 1, 9, 0, 13)})
	if st := c.matchState(t); st.StreamMatched != 0 || st.Pending != 0 {
		t.Fatalf("zero-length sends: %+v", *st)
	}
	c.apply([]tapEntry{entry(meter.EvSend, 0, 1, 3, 8, 14), entry(meter.EvRecv, 1, 2, 6, 8, 15)})
	if st := c.matchState(t); st.StreamMatched != 1 || st.Pending != 0 {
		t.Fatalf("after the zero-length send: %+v", *st)
	}
}

// TestMatchDgramTruncation enforces the datagram length rule: a
// receive may be shorter than the send that carried it, never longer.
func TestMatchDgramTruncation(t *testing.T) {
	c := NewCollector(Config{})
	dst := meter.InetName(1, 99)
	src := meter.InetName(0, 99)
	send := entry(meter.EvSend, 0, 1, 3, 200, 10)
	send.Name1 = dst
	big := entry(meter.EvRecv, 1, 2, 6, 300, 20) // longer than any send
	big.Name1 = src
	small := entry(meter.EvRecv, 1, 2, 6, 150, 30) // truncated receipt
	small.Name1 = src
	c.apply([]tapEntry{send, big})
	if st := c.matchState(t); st.DgramMatched != 0 || st.Pending != 2 {
		t.Fatalf("oversized recv must not match: %+v", *st)
	}
	c.apply([]tapEntry{small})
	if st := c.matchState(t); st.DgramMatched != 1 || st.Pending != 1 {
		t.Fatalf("truncated recv must match: %+v", *st)
	}
}

// TestMatchWindowAging advances the clock past the reordering window
// and checks that pending entries age out into the counter instead of
// accumulating.
func TestMatchWindowAging(t *testing.T) {
	c := NewCollector(Config{WindowMillis: 100})
	send := entry(meter.EvSend, 0, 1, 3, 64, 10)
	send.Name1 = meter.InetName(1, 99)
	conn := entry(meter.EvConnect, 0, 1, 4, 0, 12)
	conn.Name1, conn.Name2 = meter.InetName(0, 1), meter.InetName(1, 2)
	orph := entry(meter.EvSend, 0, 2, 5, 32, 14) // unnamed, unconnected
	c.apply([]tapEntry{send, conn, orph})
	if st := c.matchState(t); st.Pending != 3 || st.AgedOut != 0 {
		t.Fatalf("before aging: %+v", *st)
	}
	// A much later event pushes the watermark past the window.
	late := entry(meter.EvRecvCall, 0, 3, 9, 0, 500)
	c.apply([]tapEntry{late})
	if st := c.matchState(t); st.Pending != 0 || st.AgedOut != 3 {
		t.Fatalf("after aging: %+v", *st)
	}
}

// TestMatchStreamSpanAging ages pending stream spans: the receive
// cursor skips past the evicted span so later traffic still matches.
func TestMatchStreamSpanAging(t *testing.T) {
	c := NewCollector(Config{WindowMillis: 100})
	cn := meter.InetName(0, 10)
	sn := meter.InetName(1, 20)
	conn := entry(meter.EvConnect, 0, 1, 3, 0, 10)
	conn.Name1, conn.Name2 = cn, sn
	acc := entry(meter.EvAccept, 1, 2, 0, 6, 11)
	acc.Name1, acc.Name2 = sn, cn
	lost := entry(meter.EvSend, 0, 1, 3, 100, 12) // never received
	c.apply([]tapEntry{conn, acc, lost})
	late := entry(meter.EvRecvCall, 0, 3, 9, 0, 500)
	c.apply([]tapEntry{late})
	if st := c.matchState(t); st.AgedOut != 1 || st.Pending != 0 {
		t.Fatalf("span did not age: %+v", *st)
	}
	// New traffic on the same stream still matches: the cursor skipped
	// the lost bytes.
	send := entry(meter.EvSend, 0, 1, 3, 40, 510)
	recv := entry(meter.EvRecv, 1, 2, 6, 40, 520)
	c.apply([]tapEntry{send, recv})
	if st := c.matchState(t); st.StreamMatched != 1 || st.Pending != 0 {
		t.Fatalf("stream dead after aging: %+v", *st)
	}
}

// TestMatchMaxPendingEviction fills a datagram FIFO past MaxPending:
// the oldest entry is evicted as aged and the queue stays bounded.
func TestMatchMaxPendingEviction(t *testing.T) {
	c := NewCollector(Config{MaxPending: 4})
	dst := meter.InetName(1, 99)
	var batch []tapEntry
	for i := 0; i < 10; i++ {
		e := entry(meter.EvSend, 0, 1, 3, 64, int64(10+i))
		e.Name1 = dst
		batch = append(batch, e)
	}
	c.apply(batch)
	if st := c.matchState(t); st.Pending != 4 || st.AgedOut != 6 {
		t.Fatalf("eviction: %+v", *st)
	}
}

// TestProcOverflowFold sends events for more processes than MaxProcs:
// the surplus folds into one overflow cell and the totals still add
// up.
func TestProcOverflowFold(t *testing.T) {
	c := NewCollector(Config{MaxProcs: 4})
	var batch []tapEntry
	for i := 0; i < 10; i++ {
		batch = append(batch, entry(meter.EvRecvCall, 0, uint32(100+i), 3, 0, int64(10+i)))
	}
	c.apply(batch)
	st, err := DecodeComm(c.captureComm())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Procs) != 5 { // 4 real cells + the overflow fold
		t.Fatalf("%d proc cells, want 5", len(st.Procs))
	}
	var calls int64
	for i := range st.Procs {
		calls += st.Procs[i].RecvCalls
	}
	if calls != 10 || st.Events != 10 {
		t.Fatalf("recvCalls %d events %d, want 10/10", calls, st.Events)
	}
	ov := st.Procs[len(st.Procs)-1]
	if ov.Machine != UnknownMachine || ov.RecvCalls != 6 {
		t.Fatalf("overflow cell %+v", ov)
	}
}

// TestPairOverflowFold bounds the matrix: pairs past MaxPairs land in
// the (unknown,unknown) cell.
func TestPairOverflowFold(t *testing.T) {
	c := NewCollector(Config{MaxPairs: 3})
	var batch []tapEntry
	for i := 0; i < 8; i++ {
		e := entry(meter.EvSend, uint16(i), 1, 3, 10, int64(10+i))
		e.Name1 = meter.InetName(uint32(100+i), 9)
		batch = append(batch, e)
	}
	c.apply(batch)
	st, err := DecodeComm(c.captureComm())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pairs) != 4 { // 3 real pairs + the unknown fold
		t.Fatalf("%d pairs, want 4: %+v", len(st.Pairs), st.Pairs)
	}
	var msgs int64
	var fold *PairState
	for i := range st.Pairs {
		msgs += st.Pairs[i].SendMsgs
		if st.Pairs[i].Src == UnknownMachine && st.Pairs[i].Dst == UnknownMachine {
			fold = &st.Pairs[i]
		}
	}
	if msgs != 8 || fold == nil || fold.SendMsgs != 5 {
		t.Fatalf("fold cell %+v, total %d", fold, msgs)
	}
}

// TestMatchRetiresConnections runs more short connections than MaxProcs
// through one collector, each a handshake, a 10-byte send and its
// receive, and both processes' TERMPROC. The matcher forgets a
// connection once its processes retire, so every handshake finds room
// and nothing ages out; a matcher that held every connection it ever
// saw dropped each handshake past MaxProcs as aged.
func TestMatchRetiresConnections(t *testing.T) {
	const conns = 20000
	c := NewCollector(Config{})
	defer c.Close()
	sn := meter.InetName(1, 20)
	batch := make([]tapEntry, 0, 6*64)
	for i := 0; i < conns; i++ {
		cpu := int64(5 * i)
		client, server := uint32(1000+2*i), uint32(1001+2*i)
		cn := meter.InetName(0, uint16(1024+i%50000))
		con := entry(meter.EvConnect, 0, client, 3, 0, cpu)
		con.Name1, con.Name2 = cn, sn
		acc := entry(meter.EvAccept, 1, server, 4, 6, cpu+1)
		acc.Name1, acc.Name2 = sn, cn
		batch = append(batch, con, acc,
			entry(meter.EvSend, 0, client, 3, 10, cpu+2),
			entry(meter.EvRecv, 1, server, 6, 10, cpu+3),
			entry(meter.EvTermProc, 0, client, 0, 0, cpu+4),
			entry(meter.EvTermProc, 1, server, 0, 0, cpu+4))
		if len(batch) == cap(batch) || i == conns-1 {
			c.apply(batch)
			batch = batch[:0]
		}
	}
	st := c.matchState(t)
	if st.Conns != conns || st.StreamMatched != conns || st.AgedOut != 0 || st.Pending != 0 {
		t.Fatalf("%d short connections: %+v, want all established and matched, none aged", conns, *st)
	}
}

// TestOverflowRetiresConnections feeds the identity stream to a
// collector of MaxProcs 700, which folds most of its processes into
// the overflow cell. A process that ends there is forgotten by the
// matcher once the window has passed its end, as a process of its own
// is when it retires, so connections keep being established at every
// capture to the end. When only processes with cells of their own were
// forgotten, the connection table filled with ended overflow processes
// and Conns stood at 1 090 from capture 416 to 544.
func TestOverflowRetiresConnections(t *testing.T) {
	stream := identityStream(20261002)
	batches := (len(stream) + identityBatch - 1) / identityBatch
	every := batches / identityCaptures
	c := NewCollector(Config{MaxProcs: 700, MaxPairs: 20})
	defer c.Close()
	prev := int64(-1)
	for b := 0; b < batches; b++ {
		c.apply(stream[b*identityBatch : min((b+1)*identityBatch, len(stream))])
		if (b+1)%every != 0 && b != batches-1 {
			continue
		}
		st, err := DecodeMatch(c.captureMatch())
		if err != nil {
			t.Fatal(err)
		}
		if b+1 >= 416 && st.Conns <= prev {
			t.Fatalf("capture %d: %d connections, as many as at the capture before", b+1, st.Conns)
		}
		prev = st.Conns
	}
}
