// Package analysis implements the third stage of the measurement
// model: "the extraction of information from the collected data"
// (section 2.1). The paper's section 3.3 names the analyses performed
// with the tool — communications statistics, measurement of
// parallelism, and structural studies — and section 4.1 describes two
// more analysis tasks: recovering message recipients from the sockets
// paired at connection establishment, and deducing the global ordering
// of events from the constraint that a message must be sent before it
// is received.
package analysis

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// ProcKey identifies a process cluster-wide: the machine id from the
// meter header plus the process id.
type ProcKey struct {
	Machine int
	PID     int
}

func (k ProcKey) String() string { return fmt.Sprintf("m%d/p%d", k.Machine, k.PID) }

func keyOf(e *trace.Event) ProcKey { return ProcKey{Machine: e.Machine, PID: e.PID()} }

// ProcComm is one process's communication profile: a row of the
// offline statistics and of the live.comm section alike.
type ProcComm struct {
	Machine    uint16 `json:"machine"`
	PID        uint32 `json:"pid"`
	Sends      int64
	Recvs      int64
	RecvCalls  int64
	BytesSent  int64
	BytesRecvd int64
	Sockets    int64 // sockets created
	Forks      int64
}

// Key is the process's ProcKey.
func (p *ProcComm) Key() ProcKey { return ProcKey{int(p.Machine), int(p.PID)} }

// Active reports whether the process sent, received, waited, created
// a socket or forked; the reports list only the processes that did.
func (p *ProcComm) Active() bool {
	return p.Sends|p.Recvs|p.RecvCalls|p.Sockets|p.Forks != 0
}

// NumSizeBuckets is the size histogram's length: bucket 63 already
// holds the largest 64-bit length.
const NumSizeBuckets = 64

// SizeBucket returns a message size's power-of-two histogram bucket:
// bucket 0 counts sizes up to 1, bucket k sizes in (2^(k-1), 2^k].
func SizeBucket(n int64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// Totals are the communication totals of a trace or a stream: its
// records, its sends and receives with their bytes, and the sent sizes
// by SizeBucket.
type Totals struct {
	Events     int64
	Sends      int64
	Recvs      int64
	BytesSent  int64
	BytesRecvd int64
	SizeHist   [NumSizeBuckets]int64
}

// Proc is one process's state in the fold: its communication row, and
// its lifetime as the parallelism measure sees it — the earliest and
// latest cpuTime of its records and its largest procTime reading.
type Proc struct {
	ProcComm
	Terminated bool
	First      int64
	Last       int64
	MaxCPU     int64
}

// NewProc returns the state of a process the fold has not seen yet.
func NewProc(machine uint16, pid uint32) Proc {
	return Proc{ProcComm: ProcComm{Machine: machine, PID: pid}, First: math.MaxInt64, Last: math.MinInt64}
}

// Fold applies one record of process p to the totals and to p: its
// type, cpuTime, procTime and, for a send or a receive, its message
// length n. It reports whether the record is p's first TERMPROC. The
// offline analyses and the live collector both fold through it.
func (t *Totals) Fold(p *Proc, ty meter.Type, cpu, proc, n int64) bool {
	t.Events++
	if cpu < p.First {
		p.First = cpu
	}
	if cpu > p.Last {
		p.Last = cpu
	}
	if proc > p.MaxCPU {
		p.MaxCPU = proc
	}
	switch ty {
	case meter.EvSend:
		t.Sends++
		t.BytesSent += n
		t.SizeHist[SizeBucket(n)]++
		p.Sends++
		p.BytesSent += n
	case meter.EvRecv:
		t.Recvs++
		t.BytesRecvd += n
		p.Recvs++
		p.BytesRecvd += n
	case meter.EvRecvCall:
		p.RecvCalls++
	case meter.EvSocket:
		p.Sockets++
	case meter.EvFork:
		p.Forks++
	case meter.EvTermProc:
		ended := !p.Terminated
		p.Terminated = true
		return ended
	}
	return false
}

// fold runs Fold over a trace with no process cap, returning the
// totals and every process with a record, in (machine, pid) order.
func fold(events []trace.Event) (Totals, []*Proc) {
	var t Totals
	byKey := make(map[ProcKey]*Proc)
	var procs []*Proc
	for i := range events {
		e := &events[i]
		m, pid := uint16(e.Machine), uint32(e.PID())
		k := ProcKey{int(m), int(pid)}
		p := byKey[k]
		if p == nil {
			np := NewProc(m, pid)
			p = &np
			byKey[k] = p
			procs = append(procs, p)
		}
		t.Fold(p, e.Type, e.CPUTime, e.ProcTime, int64(e.MsgLength()))
	}
	slices.SortFunc(procs, func(a, b *Proc) int {
		return cmp.Or(cmp.Compare(a.Machine, b.Machine), cmp.Compare(a.PID, b.PID))
	})
	return t, procs
}

// CommStats summarizes the communication activity in a trace.
type CommStats struct {
	Totals
	// Procs has a row for every process with a record, in (machine,
	// pid) order.
	Procs []ProcComm
}

// Comm computes communication statistics over a trace.
func Comm(events []trace.Event) *CommStats {
	t, procs := fold(events)
	st := &CommStats{Totals: t, Procs: make([]ProcComm, len(procs))}
	for i, p := range procs {
		st.Procs[i] = p.ProcComm
	}
	return st
}

// Connection is a reconstructed stream connection: the pairing of the
// socket that initiated it with the connection socket the accept
// created (section 3.1).
type Connection struct {
	Client     ProcKey
	ClientSock uint32
	Server     ProcKey
	ServerSock uint32 // the new connection socket from the accept event
	ListenSock uint32
	ServerName meter.Name // name bound to the accepting socket
	ClientName meter.Name // name bound to the connecting socket (may be zero)
	ConnectSeq int
	AcceptSeq  int
	// Sent and Recvd are the bytes sent and received on each
	// direction: 0 carries client→server, 1 server→client.
	Sent, Recvd [2]int64
}

// RecoverRecipients maps send and receive events whose name field is
// empty — writes and reads across connections — to the process at the
// other end of the connection. "By examining the sockets that were
// paired when the connection was created, the recipient information
// can be recovered. This is one of the tasks of the analysis
// programs" (section 4.1). conns are the trace's connections
// (MatchTrace); the result maps event Seq to the peer process.
func RecoverRecipients(events []trace.Event, conns []Connection) map[int]ProcKey {
	peerOf := make(map[endpoint]ProcKey)
	for _, c := range conns {
		peerOf[endpoint{uint16(c.Client.Machine), uint32(c.Client.PID), c.ClientSock}] = c.Server
		peerOf[endpoint{uint16(c.Server.Machine), uint32(c.Server.PID), c.ServerSock}] = c.Client
	}
	out := make(map[int]ProcKey)
	for i := range events {
		e := &events[i]
		var nameField string
		switch e.Type {
		case meter.EvSend:
			nameField = "destName"
		case meter.EvRecv:
			nameField = "sourceName"
		default:
			continue
		}
		if !e.Name(nameField).IsZero() {
			continue
		}
		if peer, ok := peerOf[endpoint{uint16(e.Machine), uint32(e.PID()), e.Sock()}]; ok {
			out[e.Seq] = peer
		}
	}
	return out
}
