package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpm/internal/analysis/live"
	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// buildTrace runs a small three-machine stream through a tapped
// pipeline, returning the live snapshot and the same events parsed
// offline — the two inputs of the consistency check.
func buildTrace(t *testing.T) (*obs.Snapshot, []trace.Event) {
	t.Helper()
	var stream []byte
	dest := meter.InetName(1, 99)
	for i := 0; i < 30; i++ {
		m := meter.Msg{
			Header: meter.Header{Machine: uint16(i % 3), CPUTime: uint32(10 + i*7), ProcTime: uint32(i)},
			Body:   &meter.Send{PID: uint32(100 + i%3), Sock: 3, MsgLength: uint32(32 + i), DestNameLen: 16, DestName: dest},
		}
		stream = m.AppendEncode(stream)
	}
	return tapStream(t, stream)
}

// tapStream runs a meter stream through a tapped pipeline.
func tapStream(t *testing.T, stream []byte) (*obs.Snapshot, []trace.Event) {
	t.Helper()
	proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coll := live.NewCollector(live.Config{Obs: reg})
	pipe := filter.NewPipeline(proto, filter.PipelineConfig{Workers: 1, Taps: coll}, filter.Sinks{}, nil)
	if !pipe.NewSource().Feed(stream) {
		t.Fatal("feed refused")
	}
	pipe.Close()
	events, err := trace.ParseBinary(stream)
	if err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), events
}

// TestLiveConsistencyAgrees checks the -snapshot mode on the agreeing
// case: a snapshot captured from the very stream being analyzed has no
// findings.
func TestLiveConsistencyAgrees(t *testing.T) {
	snap, events := buildTrace(t)
	if finds := liveConsistency(snap, events); len(finds) != 0 {
		t.Fatalf("consistency findings on matching inputs: %v", finds)
	}
}

// TestLiveConsistencyIdleProcess: a process whose only record is its
// TERMPROC has a row on both sides, so the check finds nothing.
func TestLiveConsistencyIdleProcess(t *testing.T) {
	stream := (&meter.Msg{
		Header: meter.Header{Machine: 0, CPUTime: 10},
		Body:   &meter.Send{PID: 100, Sock: 3, MsgLength: 8},
	}).AppendEncode(nil)
	stream = (&meter.Msg{
		Header: meter.Header{Machine: 0, CPUTime: 12, ProcTime: 10},
		Body:   &meter.TermProc{PID: 101},
	}).AppendEncode(stream)
	snap, events := tapStream(t, stream)
	if finds := liveConsistency(snap, events); len(finds) != 0 {
		t.Fatalf("findings on a send and an idle process's TERMPROC: %v", finds)
	}
}

// TestLiveConsistencyDetectsDrift tampers with the trace: the check
// must report the disagreement rather than pass vacuously.
func TestLiveConsistencyDetectsDrift(t *testing.T) {
	snap, events := buildTrace(t)
	finds := liveConsistency(snap, events[:len(events)-3])
	if len(finds) == 0 {
		t.Fatal("no findings on a truncated trace")
	}
	joined := strings.Join(finds, "\n")
	if !strings.Contains(joined, "events: live") {
		t.Fatalf("findings lack the event-count disagreement: %v", finds)
	}

	// A snapshot with no live sections reports all three as missing.
	finds = liveConsistency(&obs.Snapshot{}, events)
	if len(finds) != 3 {
		t.Fatalf("sectionless snapshot: %v", finds)
	}
	// A corrupt payload is a finding, not a crash.
	bad := &obs.Snapshot{Sections: []obs.Section{
		{Name: live.SectionComm, Version: live.SectionVersion, Data: []byte{0xff}},
		{Name: live.SectionPar, Version: live.SectionVersion + 7, Data: []byte{0}},
		{Name: live.SectionMatch, Version: live.SectionVersion, Data: []byte{1}},
	}}
	finds = liveConsistency(bad, events)
	if len(finds) != 3 || !strings.Contains(strings.Join(finds, "\n"), "corrupt") {
		t.Fatalf("corrupt snapshot: %v", finds)
	}
}

// TestLiveConsistencyMatch checks live.match against the offline
// matcher: a stream with a connection, stream traffic in both
// directions, a zero-length send and datagrams agrees figure for
// figure, and a live.match that counts one stream match more is
// reported.
func TestLiveConsistencyMatch(t *testing.T) {
	cli, srv := meter.InetName(0, 1024), meter.InetName(1, 7000)
	var stream []byte
	add := func(machine uint16, cpu uint32, body meter.Body) {
		stream = (&meter.Msg{Header: meter.Header{Machine: machine, CPUTime: cpu}, Body: body}).AppendEncode(stream)
	}
	add(0, 10, &meter.Send{PID: 1, Sock: 3, MsgLength: 40}) // before the handshake: waits as an orphan
	add(1, 11, &meter.Accept{PID: 2, Sock: 4, NewSock: 5, SockNameLen: 16, PeerNameLen: 16, SockName: srv, PeerName: cli})
	add(0, 12, &meter.Connect{PID: 1, Sock: 3, SockNameLen: 16, PeerNameLen: 16, SockName: cli, PeerName: srv})
	add(1, 13, &meter.Recv{PID: 2, Sock: 5, MsgLength: 25})
	add(1, 14, &meter.Recv{PID: 2, Sock: 5, MsgLength: 15})
	add(0, 15, &meter.Send{PID: 1, Sock: 3})
	add(1, 16, &meter.Send{PID: 2, Sock: 5, MsgLength: 9})
	add(0, 17, &meter.Recv{PID: 1, Sock: 3, MsgLength: 9})
	for i := uint32(0); i < 4; i++ {
		add(0, 20+i, &meter.Send{PID: 1, Sock: 6, MsgLength: 30, DestNameLen: 16, DestName: meter.InetName(1, 99)})
	}
	for i := uint32(0); i < 3; i++ {
		add(1, 30+i, &meter.Recv{PID: 2, Sock: 7, MsgLength: 30, SourceNameLen: 16, SourceName: meter.InetName(0, 1025)})
	}
	snap, events := tapStream(t, stream)
	lm, err := live.DecodeMatch(snap.Section(live.SectionMatch).Data)
	if err != nil {
		t.Fatal(err)
	}
	if want := (live.MatchState{Conns: 1, StreamMatched: 3, DgramMatched: 3, Pending: 1}); *lm != want {
		t.Fatalf("live.match %+v, want %+v", *lm, want)
	}
	if finds := liveConsistency(snap, events); len(finds) != 0 {
		t.Fatalf("findings on matching inputs: %v", finds)
	}
	for i := range snap.Sections {
		if sec := &snap.Sections[i]; sec.Name == live.SectionMatch {
			binary.LittleEndian.PutUint64(sec.Data[8:], uint64(lm.StreamMatched+1))
		}
	}
	if finds := liveConsistency(snap, events); len(finds) != 1 || !strings.Contains(finds[0], "matching: live 1 conns, stream 4") {
		t.Fatalf("findings on a live.match with one stream match too many: %v", finds)
	}
}

// TestBuildJSON checks the -json shape round-trips and carries the
// per-process rows sorted.
func TestBuildJSON(t *testing.T) {
	_, events := buildTrace(t)
	rep := buildJSON(events, nil)
	if rep.Events != 30 || rep.Sends != 30 || len(rep.Procs) != 3 {
		t.Fatalf("report: %+v", rep)
	}
	for i := 1; i < len(rep.Procs); i++ {
		if rep.Procs[i-1].Machine > rep.Procs[i].Machine {
			t.Fatalf("procs unsorted: %+v", rep.Procs)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back jsonReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Parallelism == nil || back.Parallelism.Processes != 3 {
		t.Fatalf("parallelism lost in JSON: %+v", back.Parallelism)
	}
}

// TestLiveConsistencyRetired: a collector's snapshot and its filter's
// log of 20 000 terminated processes spanning ten reordering windows —
// more processes than the collector holds rows for, most of them
// retired into machine summaries — agree: analyze -snapshot reports
// nothing.
func TestLiveConsistencyRetired(t *testing.T) {
	const procs = 20000
	var stream []byte
	for i := 0; i < procs; i++ {
		hdr := meter.Header{Machine: uint16(i % 4), CPUTime: uint32(100 + i), ProcTime: uint32(i % 70)}
		stream = (&meter.Msg{Header: hdr, Body: &meter.Send{PID: uint32(1000 + i), Sock: 3, MsgLength: uint32(i % 900),
			DestNameLen: 16, DestName: meter.InetName(uint32(i%3), 99)}}).AppendEncode(stream)
		hdr.CPUTime += 20
		stream = (&meter.Msg{Header: hdr, Body: &meter.TermProc{PID: uint32(1000 + i)}}).AppendEncode(stream)
	}
	proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(""))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var logBuf []byte
	pipe := filter.NewPipeline(proto, filter.PipelineConfig{Workers: 2, Taps: live.NewCollector(live.Config{Obs: reg})},
		filter.Sinks{Log: func(b []byte) error { logBuf = append(logBuf, b...); return nil }}, nil)
	if !pipe.NewSource().Feed(stream) {
		t.Fatal("feed refused")
	}
	pipe.Close()
	events, err := trace.ParseLog(logBuf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, reg.Snapshot().MarshalBinary(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if lc, err := live.DecodeComm(snap.Section(live.SectionComm).Data); err != nil || len(lc.Procs) > procs/5 {
		t.Fatalf("the snapshot holds %d process rows of %d (%v): the run did not retire its processes", len(lc.Procs), procs, err)
	}
	if finds := liveConsistency(snap, events); len(finds) != 0 {
		t.Fatalf("%d findings, first %q", len(finds), finds[0])
	}
}
