package live

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"dpm/internal/analysis"
	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// goldenMsgs builds the golden workload: three machines, every
// standard event type, one stream connection (connect/accept plus
// unnamed sends and receives) and named datagrams, one of which is
// never received. Returned in global cpuTime order.
func goldenMsgs() []meter.Msg {
	ev := func(machine uint16, cpu, proc uint32, body meter.Body) meter.Msg {
		return meter.Msg{Header: meter.Header{Machine: machine, CPUTime: cpu, ProcTime: proc}, Body: body}
	}
	clientName := meter.InetName(0, 1234)
	serverName := meter.InetName(1, 80)
	return []meter.Msg{
		ev(0, 10, 10, &meter.SocketCrt{PID: 100, Sock: 3, Domain: 2, SockType: 1}),
		ev(1, 20, 10, &meter.SocketCrt{PID: 200, Sock: 5, Domain: 2, SockType: 1}),
		ev(0, 35, 20, &meter.Fork{PID: 100, NewPID: 101}),
		ev(0, 40, 30, &meter.Connect{PID: 100, Sock: 3, SockNameLen: 16, PeerNameLen: 16, SockName: clientName, PeerName: serverName}),
		ev(1, 50, 20, &meter.Accept{PID: 200, Sock: 5, NewSock: 6, SockNameLen: 16, PeerNameLen: 16, SockName: serverName, PeerName: clientName}),
		ev(0, 60, 40, &meter.Send{PID: 100, Sock: 3, MsgLength: 100}),
		ev(1, 65, 30, &meter.RecvCall{PID: 200, Sock: 6}),
		ev(0, 70, 50, &meter.Send{PID: 100, Sock: 3, MsgLength: 200}),
		ev(1, 80, 40, &meter.Recv{PID: 200, Sock: 6, MsgLength: 100}),
		ev(1, 90, 50, &meter.Recv{PID: 200, Sock: 6, MsgLength: 200}),
		ev(1, 95, 60, &meter.Dup{PID: 200, Sock: 6, NewSock: 8}),
		ev(2, 100, 10, &meter.SocketCrt{PID: 300, Sock: 4, Domain: 2, SockType: 2}),
		ev(2, 110, 20, &meter.Send{PID: 300, Sock: 4, MsgLength: 64, DestNameLen: 16, DestName: meter.InetName(0, 999)}),
		ev(0, 120, 10, &meter.Recv{PID: 101, Sock: 7, MsgLength: 64, SourceNameLen: 16, SourceName: meter.InetName(2, 888)}),
		ev(2, 130, 30, &meter.Send{PID: 300, Sock: 4, MsgLength: 500, DestNameLen: 16, DestName: meter.InetName(1, 999)}),
		ev(2, 140, 40, &meter.DestSocket{PID: 300, Sock: 4}),
		ev(1, 145, 10, &meter.RecvCall{PID: 201, Sock: 9}),
		ev(2, 150, 50, &meter.TermProc{PID: 300}),
		ev(0, 160, 20, &meter.TermProc{PID: 101}),
	}
}

func encodeMsgs(msgs []meter.Msg) []byte {
	var stream []byte
	for i := range msgs {
		stream = msgs[i].AppendEncode(stream)
	}
	return stream
}

// runLive pushes the streams through a pipeline with a live collector
// attached and returns the registry snapshot plus the offline analysis
// of the pipeline's own log — the two sides of the equivalence.
func runLive(t *testing.T, workers int, streams [][]byte) (*obs.Snapshot, []trace.Event) {
	t.Helper()
	proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coll := NewCollector(Config{Obs: reg})
	var logBuf []byte
	pipe := filter.NewPipeline(proto, filter.PipelineConfig{Workers: workers, Obs: reg, Taps: coll},
		filter.Sinks{Log: func(b []byte) error { logBuf = append(logBuf, b...); return nil }}, nil)
	for _, stream := range streams {
		src := pipe.NewSource()
		// Chunks deliberately misaligned with frame boundaries.
		for off := 0; off < len(stream); off += 37 {
			end := off + 37
			if end > len(stream) {
				end = len(stream)
			}
			if !src.Feed(append([]byte(nil), stream[off:end]...)) {
				t.Fatal("pipeline refused feed")
			}
		}
	}
	pipe.Close()
	events, err := trace.ParseLog(logBuf)
	if err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), events
}

func decodeSections(t *testing.T, snap *obs.Snapshot) (*CommState, *ParState, *MatchState) {
	t.Helper()
	var comm *CommState
	var par *ParState
	var match *MatchState
	for name, dst := range map[string]any{SectionComm: &comm, SectionPar: &par, SectionMatch: &match} {
		sec := snap.Section(name)
		if sec == nil {
			t.Fatalf("snapshot missing section %s", name)
		}
		if sec.Version != SectionVersion {
			t.Fatalf("section %s version %d", name, sec.Version)
		}
		var err error
		switch d := dst.(type) {
		case **CommState:
			*d, err = DecodeComm(sec.Data)
		case **ParState:
			*d, err = DecodePar(sec.Data)
		case **MatchState:
			*d, err = DecodeMatch(sec.Data)
		}
		if err != nil {
			t.Fatalf("decode %s: %v", name, err)
		}
	}
	return comm, par, match
}

// assertCommMatchesOffline checks the live comm state against the
// offline analysis of the same events: the totals with their size
// histogram and the process table must be equal, row for row.
func assertCommMatchesOffline(t *testing.T, comm *CommState, off *analysis.CommStats) {
	t.Helper()
	if comm.Totals != off.Totals {
		t.Fatalf("totals: live %+v, offline %+v", comm.Totals, off.Totals)
	}
	if !slices.Equal(comm.Procs, off.Procs) {
		t.Fatalf("process table: live %+v, offline %+v", comm.Procs, off.Procs)
	}
}

// assertCurveMatchesOffline checks the parallelism curve derived from
// the live intervals against analysis.MeasureParallelism.
func assertCurveMatchesOffline(t *testing.T, par *ParState, events []trace.Event) {
	t.Helper()
	curve := par.Curve()
	off := analysis.MeasureParallelism(events)
	if curve.Processes != off.Processes || curve.TotalCPUMillis != off.TotalCPUMillis ||
		curve.MakespanMillis != off.MakespanMillis || curve.Speedup != off.Speedup {
		t.Fatalf("curve: live %+v, offline %+v", curve, off)
	}
	if !reflect.DeepEqual(curve.Histogram, off.Histogram) {
		t.Fatalf("concurrency histogram: live %v, offline %v", curve.Histogram, off.Histogram)
	}
}

// TestGoldenEquivalence replays the golden trace as one ordered source
// (one meter connection) across worker counts: the live operators must
// reproduce the offline analysis of the pipeline's own log exactly —
// including the matrix and matcher state, which are deterministic for
// an ordered stream.
func TestGoldenEquivalence(t *testing.T) {
	stream := encodeMsgs(goldenMsgs())
	for _, workers := range []int{1, 2, 8} {
		snap, events := runLive(t, workers, [][]byte{stream})
		comm, par, match := decodeSections(t, snap)
		assertCommMatchesOffline(t, comm, analysis.Comm(events))
		assertCurveMatchesOffline(t, par, events)

		// Matrix: the stream sends resolve through the established
		// connection, the datagrams through their names.
		type leg struct{ sm, sb, rm, rb int64 }
		want := map[[2]uint16]leg{
			{0, 1}: {sm: 2, sb: 300, rm: 2, rb: 300},
			{2, 0}: {sm: 1, sb: 64, rm: 1, rb: 64},
			{2, 1}: {sm: 1, sb: 500},
		}
		if len(comm.Pairs) != len(want) {
			t.Fatalf("workers=%d: %d matrix pairs, want %d: %+v", workers, len(comm.Pairs), len(want), comm.Pairs)
		}
		for i := range comm.Pairs {
			p := &comm.Pairs[i]
			w, ok := want[[2]uint16{p.Src, p.Dst}]
			if !ok {
				t.Fatalf("workers=%d: unexpected pair %d->%d", workers, p.Src, p.Dst)
			}
			if p.SendMsgs != w.sm || p.SendBytes != w.sb || p.RecvMsgs != w.rm || p.RecvBytes != w.rb {
				t.Fatalf("workers=%d: pair %d->%d = %+v, want %+v", workers, p.Src, p.Dst, *p, w)
			}
		}

		if match.Conns != 1 || match.StreamMatched != 2 || match.DgramMatched != 1 ||
			match.AgedOut != 0 || match.Pending != 1 {
			t.Fatalf("workers=%d: match state %+v", workers, *match)
		}

		// The live gauges agree with the decoded sections.
		seen := int64(-1)
		for _, g := range snap.Gauges {
			if g.Name == "live.procs_seen" {
				seen = g.Value
			}
		}
		if seen != 5 {
			t.Fatalf("workers=%d: procs_seen gauge %d, want 5", workers, seen)
		}
		if par.Running() != 3 {
			t.Fatalf("workers=%d: %d running procs, want 3", workers, par.Running())
		}
	}
}

// TestGoldenEquivalenceMultiSource splits the golden trace into one
// source per machine, so chunks interleave arbitrarily across workers.
// The order-independent results — comm totals, per-proc counts, size
// histogram, parallelism curve, and the matcher's final tallies — must
// still equal the offline analysis; only transient matrix attribution
// may differ with interleaving.
func TestGoldenEquivalenceMultiSource(t *testing.T) {
	msgs := goldenMsgs()
	perMachine := map[uint16][]meter.Msg{}
	for _, m := range msgs {
		perMachine[m.Header.Machine] = append(perMachine[m.Header.Machine], m)
	}
	var streams [][]byte
	machines := make([]int, 0, len(perMachine))
	for m := range perMachine {
		machines = append(machines, int(m))
	}
	sort.Ints(machines)
	for _, m := range machines {
		streams = append(streams, encodeMsgs(perMachine[uint16(m)]))
	}
	for _, workers := range []int{1, 2, 8} {
		snap, events := runLive(t, workers, streams)
		comm, par, match := decodeSections(t, snap)
		assertCommMatchesOffline(t, comm, analysis.Comm(events))
		assertCurveMatchesOffline(t, par, events)

		// The matrix row sums always equal the global counts, whatever
		// the interleaving attributed each message to.
		var sm, sb, rm, rb int64
		for i := range comm.Pairs {
			sm += comm.Pairs[i].SendMsgs
			sb += comm.Pairs[i].SendBytes
			rm += comm.Pairs[i].RecvMsgs
			rb += comm.Pairs[i].RecvBytes
		}
		if sm != comm.Sends || sb != comm.BytesSent || rm != comm.Recvs || rb != comm.BytesRecvd {
			t.Fatalf("workers=%d: matrix sums %d/%d/%d/%d vs totals %d/%d/%d/%d",
				workers, sm, sb, rm, rb, comm.Sends, comm.BytesSent, comm.Recvs, comm.BytesRecvd)
		}
		// Once the whole trace is in, the matcher's results are
		// order-independent: orphans replay on establish, late datagram
		// legs pair from either side.
		if match.Conns != 1 || match.StreamMatched != 2 || match.DgramMatched != 1 ||
			match.AgedOut != 0 || match.Pending != 1 {
			t.Fatalf("workers=%d: match state %+v", workers, *match)
		}
	}
}

// TestTapPathZeroAllocs locks in the allocation budget of the tap hot
// path: once buffers and tables are warm, buffering a record and
// flushing a chunk must not touch the heap.
func TestTapPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := NewCollector(Config{})
	tap := c.NewTap().(*Tap)
	m := &store.Meta{Machine: 1, Time: 100, Type: uint32(meter.EvSend), PID: 42}
	rec := new(trace.Slots)
	rec.Reset(10)
	rec.SetVal(0, 42)
	rec.SetVal(1, 0x400)
	rec.SetVal(2, 3)
	rec.SetVal(3, 64)
	round := func() {
		for i := 0; i < 256; i++ {
			tap.TapRecord(m, rec)
		}
		tap.TapFlush()
	}
	// Warm: proc and pair cells, orphan fifo at its steady-state
	// capacity (the unnamed sends never connect, so the orphan queue
	// runs pinned at MaxPending with one eviction per push).
	for i := 0; i < 32; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("tap path allocates: %v allocs per 256-record round", allocs)
	}
}
