package live

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"dpm/internal/analysis"
	"dpm/internal/meter"
	"dpm/internal/trace"
)

// randomMsgs builds a seeded meter stream over all ten standard types
// from a few dozen processes on four machines. Some processes leave
// only a TERMPROC, a CONNECT or a DUP — records that count toward no
// communication figure but still give the process a row and a
// lifetime.
func randomMsgs(seed int64) []meter.Msg {
	rng := rand.New(rand.NewSource(seed))
	var out []meter.Msg
	clock := uint32(rng.Intn(50))
	add := func(machine uint16, proc uint32, body meter.Body) {
		clock += uint32(rng.Intn(5))
		out = append(out, meter.Msg{Header: meter.Header{Machine: machine, CPUTime: clock, ProcTime: proc}, Body: body})
	}
	name := func() meter.Name {
		if rng.Intn(3) == 0 {
			return meter.Name{}
		}
		return meter.InetName(uint32(rng.Intn(4)), uint16(1000+rng.Intn(4)))
	}
	size := func() uint32 { return uint32(rng.Int63n(1 << uint(rng.Intn(33)))) }
	for p := 0; p < 40; p++ {
		machine, pid := uint16(rng.Intn(4)), uint32(100+rng.Intn(400))
		proc := uint32(rng.Intn(10))
		switch p % 8 {
		case 0:
			add(machine, proc, &meter.TermProc{PID: pid})
			continue
		case 1:
			own, peer := name(), name()
			add(machine, proc, &meter.Connect{PID: pid, Sock: 3, SockNameLen: 16, PeerNameLen: 16, SockName: own, PeerName: peer})
			continue
		case 2:
			add(machine, proc, &meter.Dup{PID: pid, Sock: 3, NewSock: 4})
			continue
		}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			proc += uint32(rng.Intn(20))
			sock := uint32(3 + rng.Intn(3))
			var body meter.Body
			switch rng.Intn(9) {
			case 0:
				body = &meter.Send{PID: pid, Sock: sock, MsgLength: size(), DestNameLen: 16, DestName: name()}
			case 1:
				body = &meter.Recv{PID: pid, Sock: sock, MsgLength: size(), SourceNameLen: 16, SourceName: name()}
			case 2:
				body = &meter.RecvCall{PID: pid, Sock: sock}
			case 3:
				body = &meter.SocketCrt{PID: pid, Sock: sock, Domain: 2, SockType: uint32(1 + rng.Intn(2))}
			case 4:
				body = &meter.Dup{PID: pid, Sock: sock, NewSock: sock + 1}
			case 5:
				body = &meter.DestSocket{PID: pid, Sock: sock}
			case 6:
				own, peer := name(), name()
				body = &meter.Connect{PID: pid, Sock: sock, SockNameLen: 16, PeerNameLen: 16, SockName: own, PeerName: peer}
			case 7:
				own, peer := name(), name()
				body = &meter.Accept{PID: pid, Sock: sock, NewSock: sock + 2, SockNameLen: 16, PeerNameLen: 16, SockName: own, PeerName: peer}
			default:
				body = &meter.Fork{PID: pid, NewPID: pid + 1}
			}
			add(machine, proc, body)
		}
		if rng.Intn(4) != 0 {
			add(machine, proc, &meter.TermProc{PID: pid})
		}
	}
	return out
}

// intervalsOf is the live.par table the trace should produce, worked
// out from the records directly.
func intervalsOf(events []trace.Event) []ProcInterval {
	byKey := map[uint64]*ProcInterval{}
	for _, e := range events {
		m, pid := uint16(e.Machine), uint32(e.PID())
		iv := byKey[procKey(m, pid)]
		if iv == nil {
			iv = &ProcInterval{Machine: m, PID: pid, First: e.CPUTime, Last: e.CPUTime}
			byKey[procKey(m, pid)] = iv
		}
		iv.First, iv.Last, iv.MaxCPU = min(iv.First, e.CPUTime), max(iv.Last, e.CPUTime), max(iv.MaxCPU, e.ProcTime)
		iv.Terminated = iv.Terminated || e.Type == meter.EvTermProc
	}
	var out []ProcInterval
	for _, iv := range byKey {
		out = append(out, *iv)
	}
	slices.SortFunc(out, func(a, b ProcInterval) int {
		return cmp.Compare(procKey(a.Machine, a.PID), procKey(b.Machine, b.PID))
	})
	return out
}

// TestRandomEquivalence replays seeded random streams through the
// tapped pipeline at 1, 2 and 8 workers: the decoded live.comm and
// live.par tables equal analysis.Comm and analysis.MeasureParallelism
// over the pipeline's own log, row for row. At one worker the tap sees
// the log's order, and over 200 seeds live.match equals the offline
// matcher's figures: nothing ages out of a stream this short.
func TestRandomEquivalence(t *testing.T) {
	var matched int64
	for seed := int64(1); seed <= 200; seed++ {
		msgs := randomMsgs(seed)
		for _, workers := range []int{1, 2, 8} {
			if workers > 1 && seed > 6 {
				break
			}
			snap, events := runLive(t, workers, [][]byte{encodeMsgs(msgs)})
			if len(events) != len(msgs) {
				t.Fatalf("seed %d: the log holds %d of %d records", seed, len(events), len(msgs))
			}
			comm, par, match := decodeSections(t, snap)
			if workers == 1 {
				off := analysis.CountMatches(events, nil)
				if *match != (MatchState{Conns: off.Conns, StreamMatched: off.Stream, DgramMatched: off.Dgram, Pending: off.Pending}) {
					t.Fatalf("seed %d: live.match %+v, offline %+v", seed, *match, off)
				}
				matched += off.Stream + off.Dgram
			}
			off := analysis.Comm(events)
			assertCommMatchesOffline(t, comm, off)
			if want := intervalsOf(events); !slices.Equal(par.Procs, want) {
				t.Fatalf("seed %d, workers %d: live.par %+v, want %+v", seed, workers, par.Procs, want)
			}
			assertCurveMatchesOffline(t, par, events)
			for _, g := range snap.Gauges {
				if g.Name == "live.procs_live" && g.Value != int64(par.Running()) {
					t.Fatalf("seed %d, workers %d: procs_live gauge %d, %d rows running", seed, workers, g.Value, par.Running())
				}
			}
			idle := 0
			for _, p := range off.Procs {
				if !p.Active() {
					idle++
				}
			}
			if idle == 0 {
				t.Fatalf("seed %d: no process without communication in the stream", seed)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no seed matched a message: the live.match comparison was vacuous")
	}
}
