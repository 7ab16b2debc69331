package analysis

import (
	"slices"
	"testing"

	"dpm/internal/meter"
)

func TestMatchStreamSimple(t *testing.T) {
	b := connScenario()
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 1 {
		t.Fatalf("matches = %+v", matches)
	}
	m := matches[0]
	if m.SendSeq != 2 || m.RecvSeq != 3 || m.Bytes != 5 {
		t.Fatalf("match = %+v", m)
	}
}

func TestMatchStreamPartialReads(t *testing.T) {
	// One 6-byte send read as 2 + 4 bytes: both reads match the send.
	b := &tb{}
	srv := meter.InetName(2, 6000)
	cli := meter.InetName(1, 1024)
	b.connect(1, 10, 0, 5, cli, srv)
	b.accept(2, 20, 1, 7, 8, srv, cli)
	send := b.send(1, 10, 2, 5, 6, meter.Name{})
	r1 := b.recv(2, 20, 3, 8, 2, meter.Name{})
	r2 := b.recv(2, 20, 4, 8, 4, meter.Name{})
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].SendSeq != send || matches[0].RecvSeq != r1 || matches[0].Bytes != 2 {
		t.Fatalf("first = %+v", matches[0])
	}
	if matches[1].SendSeq != send || matches[1].RecvSeq != r2 || matches[1].Bytes != 4 {
		t.Fatalf("second = %+v", matches[1])
	}
}

func TestMatchStreamCoalescedReads(t *testing.T) {
	// Two 3-byte sends read as one 6-byte read: the read matches both.
	b := &tb{}
	srv := meter.InetName(2, 6000)
	cli := meter.InetName(1, 1024)
	b.connect(1, 10, 0, 5, cli, srv)
	b.accept(2, 20, 1, 7, 8, srv, cli)
	s1 := b.send(1, 10, 2, 5, 3, meter.Name{})
	s2 := b.send(1, 10, 3, 5, 3, meter.Name{})
	r := b.recv(2, 20, 4, 8, 6, meter.Name{})
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	for _, m := range matches {
		if m.RecvSeq != r || m.Bytes != 3 {
			t.Fatalf("match = %+v", m)
		}
		if m.SendSeq != s1 && m.SendSeq != s2 {
			t.Fatalf("match send = %d", m.SendSeq)
		}
	}
}

func TestMatchStreamBothDirections(t *testing.T) {
	b := connScenario()
	reply := b.send(2, 20, 11, 8, 3, meter.Name{})
	got := b.recv(1, 10, 12, 5, 3, meter.Name{})
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	found := false
	for _, m := range matches {
		if m.SendSeq == reply && m.RecvSeq == got && m.Bytes == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reply direction unmatched: %+v", matches)
	}
}

func TestMatchDatagrams(t *testing.T) {
	b := &tb{}
	recvName := meter.InetName(2, 5000)
	sendName := meter.InetName(1, 1024)
	s1 := b.send(1, 10, 0, 3, 4, recvName)
	s2 := b.send(1, 10, 1, 3, 9, recvName)
	r1 := b.recv(2, 20, 2, 9, 4, sendName)
	r2 := b.recv(2, 20, 3, 9, 9, sendName)
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	if matches[0].SendSeq != s1 || matches[0].RecvSeq != r1 {
		t.Fatalf("first = %+v", matches[0])
	}
	if matches[1].SendSeq != s2 || matches[1].RecvSeq != r2 {
		t.Fatalf("second = %+v", matches[1])
	}
}

func TestMatchDatagramsWithLoss(t *testing.T) {
	// Three sends, first two received (the third was lost): only two
	// matches, in order.
	b := &tb{}
	recvName := meter.InetName(2, 5000)
	sendName := meter.InetName(1, 1024)
	b.send(1, 10, 0, 3, 4, recvName)
	b.send(1, 10, 1, 3, 4, recvName)
	b.send(1, 10, 2, 3, 4, recvName)
	b.recv(2, 20, 3, 9, 4, sendName)
	b.recv(2, 20, 4, 9, 4, sendName)
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestMatchDatagramsWrongMachineRejected(t *testing.T) {
	// A receive whose source host does not map to the sender's machine
	// must not match.
	b := &tb{}
	recvName := meter.InetName(2, 5000)
	b.send(1, 10, 0, 3, 4, recvName)
	b.recv(2, 20, 1, 9, 4, meter.InetName(7, 1024)) // source host 7: no machine 7 sender
	matches := MatchTrace(b.events, nil).Matches
	if len(matches) != 0 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestMatchDatagramsHostMap(t *testing.T) {
	// With an explicit host→machine map, a multi-homed host's second
	// address still matches.
	b := &tb{}
	recvName := meter.InetName(12, 5000) // host 12 is machine 2
	sendName := meter.InetName(11, 1024) // host 11 is machine 1
	b.send(1, 10, 0, 3, 4, recvName)
	b.recv(2, 20, 1, 9, 4, sendName)
	opts := &MatchOptions{HostToMachine: map[uint32]int{11: 1, 12: 2}}
	matches := MatchTrace(b.events, opts).Matches
	if len(matches) != 1 {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestMatchTruncatedDatagram(t *testing.T) {
	// A 10-byte datagram received as 4 bytes still matches (receives
	// may truncate); a receive longer than the send cannot match.
	b := &tb{}
	recvName := meter.InetName(2, 5000)
	sendName := meter.InetName(1, 1024)
	b.send(1, 10, 0, 3, 10, recvName)
	b.recv(2, 20, 1, 9, 4, sendName)
	if matches := MatchTrace(b.events, nil).Matches; len(matches) != 1 {
		t.Fatalf("truncated recv unmatched: %+v", matches)
	}

	b2 := &tb{}
	b2.send(1, 10, 0, 3, 4, recvName)
	b2.recv(2, 20, 1, 9, 10, sendName)
	if matches := MatchTrace(b2.events, nil).Matches; len(matches) != 0 {
		t.Fatalf("grown recv matched: %+v", matches)
	}
}

func TestMatchFallbackHandshake(t *testing.T) {
	// An accept naming a socket no connect reports still pairs with the
	// connect that dialed its listener once the trace ends.
	b := &tb{}
	srv := meter.InetName(2, 7000)
	b.connect(1, 10, 0, 3, meter.InetName(1, 1001), srv)
	b.accept(2, 20, 1, 4, 5, srv, meter.InetName(1, 4444))
	s := b.send(1, 10, 2, 3, 7, meter.Name{})
	r := b.recv(2, 20, 3, 5, 7, meter.Name{})
	if c := CountMatches(b.events, nil); c.Conns != 0 || c.Pending != 4 {
		t.Fatalf("before the end of the trace: %+v", c)
	}
	if matches := MatchTrace(b.events, nil).Matches; len(matches) != 1 || matches[0] != (Match{SendSeq: s, RecvSeq: r, Bytes: 7}) {
		t.Fatalf("matches = %+v", matches)
	}
}

func TestMatchDatagramFlowAffinity(t *testing.T) {
	// Two flows between one machine pair: once a receiving socket's
	// flow pairs with a sending socket's, a later receive of it skips
	// the other flow's older send.
	b := &tb{}
	toA, toB := meter.InetName(2, 5000), meter.InetName(2, 5001)
	fromA, fromB := meter.InetName(1, 1000), meter.InetName(1, 1001)
	sa1 := b.send(1, 10, 0, 3, 8, toA)
	ra1 := b.recv(2, 20, 1, 9, 8, fromA)
	sb1 := b.send(1, 11, 2, 4, 8, toB)
	sa2 := b.send(1, 10, 3, 3, 8, toA)
	ra2 := b.recv(2, 20, 4, 9, 8, fromA)
	rb1 := b.recv(2, 21, 5, 7, 8, fromB)
	want := []Match{{sa1, ra1, 8}, {sa2, ra2, 8}, {sb1, rb1, 8}}
	if matches := MatchTrace(b.events, nil).Matches; !slices.Equal(matches, want) {
		t.Fatalf("matches = %+v, want %+v", matches, want)
	}
}
