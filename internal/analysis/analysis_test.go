package analysis

import (
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// tb builds synthetic traces for analysis tests.
type tb struct {
	events []trace.Event
}

func (b *tb) add(typ meter.Type, machine, pid int, cpu int64, fields map[string]uint64, names map[string]meter.Name) int {
	e := trace.Event{
		Seq:     len(b.events),
		Type:    typ,
		Event:   typ.String(),
		Machine: machine,
		CPUTime: cpu,
		Fields:  map[string]uint64{"pid": uint64(pid)},
		Names:   map[string]meter.Name{},
	}
	for k, v := range fields {
		e.Fields[k] = v
	}
	for k, v := range names {
		e.Names[k] = v
	}
	b.events = append(b.events, e)
	return e.Seq
}

func (b *tb) send(machine, pid int, cpu int64, sock uint32, n int, dest meter.Name) int {
	return b.add(meter.EvSend, machine, pid, cpu,
		map[string]uint64{"sock": uint64(sock), "msgLength": uint64(n)},
		map[string]meter.Name{"destName": dest})
}

func (b *tb) recv(machine, pid int, cpu int64, sock uint32, n int, src meter.Name) int {
	return b.add(meter.EvRecv, machine, pid, cpu,
		map[string]uint64{"sock": uint64(sock), "msgLength": uint64(n)},
		map[string]meter.Name{"sourceName": src})
}

func (b *tb) connect(machine, pid int, cpu int64, sock uint32, own, peer meter.Name) int {
	return b.add(meter.EvConnect, machine, pid, cpu,
		map[string]uint64{"sock": uint64(sock)},
		map[string]meter.Name{"sockName": own, "peerName": peer})
}

func (b *tb) accept(machine, pid int, cpu int64, sock, newSock uint32, own, peer meter.Name) int {
	return b.add(meter.EvAccept, machine, pid, cpu,
		map[string]uint64{"sock": uint64(sock), "newSock": uint64(newSock)},
		map[string]meter.Name{"sockName": own, "peerName": peer})
}

// connScenario: a client on machine 1 connects to a server on machine
// 2 and sends 5 bytes over the connection.
func connScenario() *tb {
	b := &tb{}
	srvName := meter.InetName(2, 6000)
	cliName := meter.InetName(1, 1024)
	b.connect(1, 10, 5, 5, cliName, srvName)     // 0
	b.accept(2, 20, 6, 7, 8, srvName, cliName)   // 1
	b.send(1, 10, 7, 5, 5, meter.Name{})         // 2: write on connection, no name
	b.recv(2, 20, 8, 8, 5, meter.Name{})         // 3: read on connection, no name
	b.add(meter.EvTermProc, 1, 10, 9, nil, nil)  // 4
	b.add(meter.EvTermProc, 2, 20, 10, nil, nil) // 5
	return b
}

func TestCommStats(t *testing.T) {
	b := connScenario()
	st := Comm(b.events)
	if st.Events != 6 || st.Sends != 1 || st.Recvs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent != 5 || st.BytesRecvd != 5 {
		t.Fatalf("bytes = %d/%d", st.BytesSent, st.BytesRecvd)
	}
	if len(st.Procs) != 2 || st.Procs[0].Key() != (ProcKey{1, 10}) || st.Procs[1].Key() != (ProcKey{2, 20}) {
		t.Fatalf("per-process stats = %+v", st.Procs)
	}
	client, server := st.Procs[0], st.Procs[1]
	if client.Sends != 1 || client.BytesSent != 5 || server.Recvs != 1 {
		t.Fatalf("client=%+v server=%+v", client, server)
	}
}

func TestSizeHistogram(t *testing.T) {
	b := &tb{}
	for _, n := range []int{0, 1, 2, 3, 4, 1000} {
		b.send(1, 1, 0, 1, n, meter.InetName(2, 1))
	}
	st := Comm(b.events)
	// buckets: size 0->0, 1->0, 2->1, 3->2, 4->2, 1000->10
	want := map[int]int64{0: 2, 1: 1, 2: 2, 10: 1}
	for k, v := range want {
		if st.SizeHist[k] != v {
			t.Fatalf("SizeHist = %v, want %v", st.SizeHist, want)
		}
	}
}

func TestConnections(t *testing.T) {
	b := connScenario()
	conns := MatchTrace(b.events, nil).Conns
	if len(conns) != 1 {
		t.Fatalf("found %d connections", len(conns))
	}
	c := conns[0]
	if c.Client != (ProcKey{1, 10}) || c.ClientSock != 5 {
		t.Fatalf("client side = %+v", c)
	}
	if c.Server != (ProcKey{2, 20}) || c.ServerSock != 8 || c.ListenSock != 7 {
		t.Fatalf("server side = %+v", c)
	}
	if c.ConnectSeq != 0 || c.AcceptSeq != 1 {
		t.Fatalf("seqs = %d, %d", c.ConnectSeq, c.AcceptSeq)
	}
}

func TestConnectionsDisambiguateByClientName(t *testing.T) {
	// Two clients race to the same listener; accept events carry the
	// connector's name and must pair correctly even out of order.
	b := &tb{}
	srv := meter.InetName(3, 6000)
	c1 := meter.InetName(1, 1111)
	c2 := meter.InetName(2, 2222)
	b.connect(1, 10, 0, 5, c1, srv) // 0
	b.connect(2, 20, 0, 6, c2, srv) // 1
	// Accepts arrive in reverse order.
	b.accept(3, 30, 1, 7, 9, srv, c2)  // 2
	b.accept(3, 30, 2, 7, 10, srv, c1) // 3
	conns := MatchTrace(b.events, nil).Conns
	if len(conns) != 2 {
		t.Fatalf("found %d connections", len(conns))
	}
	for _, c := range conns {
		switch c.ServerSock {
		case 9:
			if c.Client != (ProcKey{2, 20}) {
				t.Fatalf("sock 9 client = %v", c.Client)
			}
		case 10:
			if c.Client != (ProcKey{1, 10}) {
				t.Fatalf("sock 10 client = %v", c.Client)
			}
		default:
			t.Fatalf("unexpected server sock %d", c.ServerSock)
		}
	}
}

func TestRecoverRecipients(t *testing.T) {
	b := connScenario()
	rec := RecoverRecipients(b.events, MatchTrace(b.events, nil).Conns)
	if got := rec[2]; got != (ProcKey{2, 20}) {
		t.Fatalf("send recipient = %v", got)
	}
	if got := rec[3]; got != (ProcKey{1, 10}) {
		t.Fatalf("recv source = %v", got)
	}
	// Events with explicit names need no recovery.
	if _, ok := rec[0]; ok {
		t.Fatal("connect event in recovery map")
	}
}

func TestRecoverRecipientsBidirectional(t *testing.T) {
	b := connScenario()
	// Server replies over the same connection.
	reply := b.send(2, 20, 11, 8, 3, meter.Name{})
	got := RecoverRecipients(b.events, MatchTrace(b.events, nil).Conns)
	if got[reply] != (ProcKey{1, 10}) {
		t.Fatalf("reply recipient = %v", got[reply])
	}
}
