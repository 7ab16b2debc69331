package dpm_test

// The benchmark harness for the paper's performance claims. The paper
// publishes no measurement tables, so each benchmark regenerates the
// numbers behind one of its qualitative claims; EXPERIMENTS.md maps
// benchmarks to claims and records the measured results.
//
//	C1  BenchmarkSend*           monitoring overhead (transparency, §2.2)
//	C2  BenchmarkBuffer*         kernel buffering reduction (§4.1)
//	C3  BenchmarkDaemonExchange  per-exchange connection cost (§3.5.1)
//	C4  BenchmarkOrdering        ordering deduction cost (§4.1)
//	A1  BenchmarkMeter*          Appendix A codec cost
//	A2  BenchmarkFilterEngine    filter selection throughput (§3.4)
//	S1  BenchmarkStoreIngest     event-store write-path cost
//	S2  BenchmarkQuerySegmentPruning  footer pruning vs full scan
//	O3  BenchmarkStatsRoundTrip  what a `stats` costs per machine (ROADMAP 5c)
//	R4  BenchmarkScanTyped/Text  a scanned record, stored typed and stored as text (ROADMAP 4a)

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/analysis/live"
	"dpm/internal/core"
	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
	"dpm/internal/workloads"
)

const benchUID = 100

// benchRig is a minimal metering setup: one machine, a detached
// process with a socketpair to itself, and (optionally) a meter
// connection drained by a sink goroutine.
type benchRig struct {
	cluster *kernel.Cluster
	machine *kernel.Machine
	proc    *kernel.Process
	fd1     int
	fd2     int
}

func newBenchRig(b *testing.B, flags meter.Flag) *benchRig {
	b.Helper()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	m, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	m.AddAccount(benchUID, "user")
	b.Cleanup(c.Shutdown)

	p, err := m.SpawnDetached(benchUID, "bench")
	if err != nil {
		b.Fatal(err)
	}
	fd1, fd2, err := p.SocketPair()
	if err != nil {
		b.Fatal(err)
	}
	rig := &benchRig{cluster: c, machine: m, proc: p, fd1: fd1, fd2: fd2}

	if flags != 0 {
		// Meter connection drained by a sink process on its own
		// goroutine, standing in for the filter.
		sink, err := m.SpawnDetached(0, "sink")
		if err != nil {
			b.Fatal(err)
		}
		lfd, err := sink.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			b.Fatal(err)
		}
		if err := sink.BindPort(lfd, 0); err != nil {
			b.Fatal(err)
		}
		if err := sink.Listen(lfd, 1); err != nil {
			b.Fatal(err)
		}
		lname, err := sink.SocketName(lfd)
		if err != nil {
			b.Fatal(err)
		}
		root, err := m.SpawnDetached(0, "root")
		if err != nil {
			b.Fatal(err)
		}
		msfd, err := root.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			b.Fatal(err)
		}
		if err := root.Connect(msfd, lname); err != nil {
			b.Fatal(err)
		}
		conn, _, err := sink.Accept(lfd)
		if err != nil {
			b.Fatal(err)
		}
		if err := root.Setmeter(p.PID(), int(flags), msfd); err != nil {
			b.Fatal(err)
		}
		if err := root.Close(msfd); err != nil {
			b.Fatal(err)
		}
		go func() {
			for {
				if _, err := sink.Recv(conn, 65536); err != nil {
					return
				}
			}
		}()
	}
	return rig
}

// sendRecv is one benchmarked operation: a message sent and received
// through a socketpair — two or three meter events when metered.
func (r *benchRig) sendRecv(b *testing.B, payload []byte) {
	if _, err := r.proc.Send(r.fd1, payload); err != nil {
		b.Fatal(err)
	}
	if _, err := r.proc.Recv(r.fd2, len(payload)); err != nil {
		b.Fatal(err)
	}
}

// C1: monitoring overhead. The paper requires that measurement "do
// nothing (or at least as little as possible) to change how the events
// occur" (§2.1) and that degradation "be kept as small as possible"
// (§2.2). Compare a send/recv round trip unmetered, metered with the
// default buffering, and metered with M_IMMEDIATE.
func BenchmarkSendUnmetered(b *testing.B) {
	rig := newBenchRig(b, 0)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendRecv(b, payload)
	}
}

func BenchmarkSendMeteredBuffered(b *testing.B) {
	rig := newBenchRig(b, meter.MAll)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendRecv(b, payload)
	}
}

func BenchmarkSendMeteredImmediate(b *testing.B) {
	rig := newBenchRig(b, meter.MAll|meter.MImmediate)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendRecv(b, payload)
	}
}

// C1 ablation: the flag mask is checked per event, so metering only
// the events of interest costs less than M_ALL — selection starts in
// the kernel, before the filter ever sees a byte.
func BenchmarkSendMeteredSendFlagOnly(b *testing.B) {
	rig := newBenchRig(b, meter.MSend)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendRecv(b, payload)
	}
}

// C1 baseline: METRIC-style explicit instrumentation. The paper
// contrasts its design with METRIC, which "was not transparent;
// programmers had to explicitly insert trace calls into their
// programs" (§2.2). Here the program itself builds each trace record
// and sends it to a collector over its own socket — one extra
// user-level send per traced event. Kernel metering does the same
// recording without the extra system calls or program changes.
func BenchmarkSendExplicitTracing(b *testing.B) {
	rig := newBenchRig(b, 0) // no kernel metering
	m := rig.machine
	// App-level collector connection, owned by the traced process
	// itself (visible in its descriptor table — the transparency the
	// paper's design avoids giving up).
	sink, err := m.SpawnDetached(0, "collector")
	if err != nil {
		b.Fatal(err)
	}
	lfd, err := sink.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		b.Fatal(err)
	}
	if err := sink.BindPort(lfd, 0); err != nil {
		b.Fatal(err)
	}
	if err := sink.Listen(lfd, 1); err != nil {
		b.Fatal(err)
	}
	lname, err := sink.SocketName(lfd)
	if err != nil {
		b.Fatal(err)
	}
	tfd, err := rig.proc.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		b.Fatal(err)
	}
	if err := rig.proc.Connect(tfd, lname); err != nil {
		b.Fatal(err)
	}
	conn, _, err := sink.Accept(lfd)
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			if _, err := sink.Recv(conn, 65536); err != nil {
				return
			}
		}
	}()

	payload := make([]byte, 64)
	var enc []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The traced operation...
		rig.sendRecv(b, payload)
		// ...plus the explicit trace calls the programmer had to
		// insert: one record per event (send, receive).
		for _, body := range []meter.Body{
			&meter.Send{PID: uint32(rig.proc.PID()), Sock: 1, MsgLength: 64},
			&meter.Recv{PID: uint32(rig.proc.PID()), Sock: 2, MsgLength: 64},
		} {
			msg := meter.Msg{Header: meter.Header{Machine: m.ID()}, Body: body}
			enc = msg.AppendEncode(enc[:0])
			if _, err := rig.proc.Send(tfd, enc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// C2: kernel buffering. "The default is to buffer several messages so
// that the number of meter messages is considerably smaller than the
// number of messages sent by the metered process" (§4.1). Sweep the
// buffer threshold and report the meter-connection writes per 1000
// events.
func BenchmarkBufferThreshold(b *testing.B) {
	for _, threshold := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var sunk int64
			buf := meter.NewBuffer(threshold, func(batch []byte) { sunk += int64(len(batch)) })
			msg := &meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.Send{PID: 1, MsgLength: 64}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Add(msg, false)
			}
			b.StopTimer()
			buf.Flush()
			st := buf.Stats()
			if st.Events > 0 {
				b.ReportMetric(float64(st.Flushes)/float64(st.Events)*1000, "flushes/1000events")
				b.ReportMetric(float64(st.Bytes)/float64(st.Events), "wire-bytes/event")
			}
		})
	}
}

// C3: the temporary controller↔daemon connections. "Establishing
// these connections as they are needed does not introduce significant
// overhead" (§3.5.1). BenchmarkDaemonExchange measures a full RPC
// (connect, request, reply, close); BenchmarkStreamRoundTrip measures
// just the request/reply on an established connection, so the
// difference is the per-exchange connection cost.
func BenchmarkDaemonExchange(b *testing.B) {
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	yellow, err := c.AddMachine("yellow", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	red.AddAccount(benchUID, "user")
	yellow.AddAccount(benchUID, "user")
	b.Cleanup(c.Shutdown)
	if _, err := daemon.Install(c, red); err != nil {
		b.Fatal(err)
	}
	ctl, err := yellow.SpawnDetached(benchUID, "ctl")
	if err != nil {
		b.Fatal(err)
	}
	target, err := red.SpawnDetached(benchUID, "target")
	if err != nil {
		b.Fatal(err)
	}
	req := (&daemon.ProcReq{Type: daemon.TSetFlagsReq, PID: target.PID(), UID: benchUID, Flags: uint32(meter.MSend)}).Wire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := daemon.Exchange(ctl, "red", req)
		if err != nil || !rep.OK() {
			b.Fatalf("exchange: %v %+v", err, rep)
		}
	}
}

// BenchmarkDaemonExchangeFaultFree is BenchmarkDaemonExchange's RPC
// through the hardened path the controller takes: SessionExchange with
// the default retry policy over one persistent session, on a healthy
// fabric. Comparing the two shows what a connection per exchange costs
// beside a call with a deadline, backoff machinery and idempotency
// plumbing that takes no retries when nothing goes wrong.
func BenchmarkDaemonExchangeFaultFree(b *testing.B) {
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	yellow, err := c.AddMachine("yellow", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	red.AddAccount(benchUID, "user")
	yellow.AddAccount(benchUID, "user")
	b.Cleanup(c.Shutdown)
	if _, err := daemon.Install(c, red); err != nil {
		b.Fatal(err)
	}
	ctl, err := yellow.SpawnDetached(benchUID, "ctl")
	if err != nil {
		b.Fatal(err)
	}
	target, err := red.SpawnDetached(benchUID, "target")
	if err != nil {
		b.Fatal(err)
	}
	req := (&daemon.ProcReq{Type: daemon.TSetFlagsReq, PID: target.PID(), UID: benchUID, Flags: uint32(meter.MSend)}).Wire()
	rp := daemon.DefaultRetryPolicy()
	s := daemon.DialSession(ctl, "red", daemon.SessionConfig{})
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := daemon.SessionExchange(s, req, rp)
		if err != nil || !rep.OK() {
			b.Fatalf("exchange: %v %+v", err, rep)
		}
	}
}

func BenchmarkStreamRoundTrip(b *testing.B) {
	// The established-connection baseline for C3: a request/reply pair
	// over one long-lived stream, served by an echo process.
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	yellow, err := c.AddMachine("yellow", nil, "ether0")
	if err != nil {
		b.Fatal(err)
	}
	red.AddAccount(benchUID, "user")
	yellow.AddAccount(benchUID, "user")
	b.Cleanup(c.Shutdown)
	srv, err := red.Spawn(kernel.SpawnSpec{UID: benchUID, Name: "echo", Program: func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return 1
		}
		if err := p.BindPort(lfd, 4000); err != nil {
			return 1
		}
		if err := p.Listen(lfd, 1); err != nil {
			return 1
		}
		cfd, _, err := p.Accept(lfd)
		if err != nil {
			return 1
		}
		for {
			data, err := p.Recv(cfd, 4096)
			if err != nil {
				return 0
			}
			if _, err := p.Send(cfd, data); err != nil {
				return 0
			}
		}
	}})
	if err != nil {
		b.Fatal(err)
	}
	_ = srv
	ctl, err := yellow.SpawnDetached(benchUID, "ctl")
	if err != nil {
		b.Fatal(err)
	}
	host, _, err := c.ResolveFrom(yellow, "red")
	if err != nil {
		b.Fatal(err)
	}
	var fd int
	deadline := time.Now().Add(5 * time.Second)
	for {
		fd, err = ctl.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			b.Fatal(err)
		}
		if err = ctl.Connect(fd, meter.InetName(host, 4000)); err == nil {
			break
		}
		_ = ctl.Close(fd)
		if time.Now().After(deadline) {
			b.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Send(fd, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := ctl.Recv(fd, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// A1: the Appendix A message codec.
func BenchmarkMeterEncode(b *testing.B) {
	msg := &meter.Msg{
		Header: meter.Header{Machine: 5, CPUTime: 100, ProcTime: 10},
		Body:   &meter.Send{PID: 1, PC: 2, Sock: 3, MsgLength: 512, DestNameLen: 16, DestName: meter.InetName(9, 9)},
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = msg.AppendEncode(buf[:0])
	}
}

func BenchmarkMeterDecode(b *testing.B) {
	msg := &meter.Msg{
		Header: meter.Header{Machine: 5, CPUTime: 100, ProcTime: 10},
		Body:   &meter.Send{PID: 1, PC: 2, Sock: 3, MsgLength: 512, DestNameLen: 16, DestName: meter.InetName(9, 9)},
	}
	enc := msg.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := meter.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// A2: filter selection throughput, with the Figure 3.3/3.4 style
// rules.
func BenchmarkFilterEngine(b *testing.B) {
	for _, rules := range []struct {
		name string
		text string
	}{
		{"keep-all", ""},
		{"simple", "machine=1, cpuTime<10000\n"},
		{"selective", "machine=0, type=1, sock=4\ntype=8, sockName=peerName\nmachine=#*, type=1, pid=#*, msgLength>=512\n"},
	} {
		b.Run(rules.name, func(b *testing.B) {
			eng, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(rules.text))
			if err != nil {
				b.Fatal(err)
			}
			var stream []byte
			for i := 0; i < 16; i++ {
				msg := &meter.Msg{
					Header: meter.Header{Machine: uint16(i % 3), CPUTime: uint32(i * 100)},
					Body:   &meter.Send{PID: uint32(i), Sock: 4, MsgLength: uint32(i * 64)},
				}
				stream = msg.AppendEncode(stream)
			}
			var batch filter.Batch
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				if rest, err := eng.ProcessBatch(stream, &batch); err != nil || len(rest) != 0 {
					b.Fatal(err)
				}
			}
		})
	}
}

// C4: cost of deducing the global event ordering from a trace: one
// 4-process ring, and 64 independent rings, whose clocks are each one
// ring wide.
func BenchmarkOrdering(b *testing.B) {
	for _, c := range []struct{ n, jobs int }{
		{100, 1}, {400, 1}, {1600, 1}, {6400, 1}, {25600, 1}, {102400, 1}, {25600, 64},
	} {
		b.Run(fmt.Sprintf("jobs=%d/events=%d", c.jobs, c.n), func(b *testing.B) {
			events := syntheticJobs(c.n, c.jobs)
			mt := analysis.MatchTrace(events, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := analysis.HappenedBefore(events, mt)
				if err != nil {
					b.Fatal(err)
				}
				_ = o.OrderedFraction()
			}
		})
	}
}

// syntheticTrace builds a ring of 4 processes passing datagrams.
func syntheticTrace(n int) []trace.Event { return syntheticJobs(n, 1) }

// syntheticJobs builds jobs independent rings of 4 processes passing
// datagrams, taking turns; job j's processes run on machines 4j+1 to
// 4j+4.
func syntheticJobs(n, jobs int) []trace.Event {
	var events []trace.Event
	add := func(typ meter.Type, machine, pid int, fields map[string]uint64, names map[string]meter.Name) {
		e := trace.Event{
			Seq: len(events), Type: typ, Event: typ.String(), Machine: machine,
			CPUTime: int64(len(events)), Fields: map[string]uint64{"pid": uint64(pid)}, Names: map[string]meter.Name{},
		}
		for k, v := range fields {
			e.Fields[k] = v
		}
		for k, v := range names {
			e.Names[k] = v
		}
		events = append(events, e)
	}
	const procs = 4
	for len(events)+2 <= n {
		pair := len(events) / 2
		base, i := pair%jobs*procs, pair/jobs%procs
		from, to := base+i+1, base+(i+1)%procs+1
		add(meter.EvSend, from, from*10, map[string]uint64{"sock": 3, "msgLength": 32},
			map[string]meter.Name{"destName": meter.InetName(uint32(to), 5000)})
		add(meter.EvRecv, to, to*10, map[string]uint64{"sock": 9, "msgLength": 32},
			map[string]meter.Name{"sourceName": meter.InetName(uint32(from), 1024)})
	}
	return events
}

// C5: scaling of the metered TSP computation with worker count — the
// quantified form of the parallelism measurement the Lai & Miller
// study relied on. Each iteration runs one complete distributed solve
// (cluster bring-up included); the interesting outputs are the
// trace-measured virtual makespan and speedup, reported as metrics
// (the search's CPU time is charged to the simulated machines'
// clocks, so wall-clock ns/op mostly measures harness overhead).
func BenchmarkTSPWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var makespan, speedup float64
			for i := 0; i < b.N; i++ {
				par, err := runTSPOnce(10, workers, 3)
				if err != nil {
					b.Fatal(err)
				}
				makespan = float64(par.MakespanMillis)
				speedup = par.Speedup
			}
			b.ReportMetric(makespan, "virtual-makespan-ms")
			b.ReportMetric(speedup, "speedup")
		})
	}
}

func runTSPOnce(cities, workers int, seed int64) (*analysis.Parallelism, error) {
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		return nil, err
	}
	defer sys.Shutdown()
	if err := workloads.RegisterTSP(sys); err != nil {
		return nil, err
	}
	ctl, err := sys.NewController("yellow", io.Discard)
	if err != nil {
		return nil, err
	}
	machines := []string{"green", "blue", "yellow", "red"}
	cmds := []string{
		"filter f blue",
		"newjob t",
		"setflags t send receive termproc",
		fmt.Sprintf("addprocess t red tspmaster %d %d %d", cities, workers, seed),
	}
	for w := 0; w < workers; w++ {
		cmds = append(cmds, fmt.Sprintf("addprocess t %s tspworker red", machines[w%len(machines)]))
	}
	cmds = append(cmds, "startjob t")
	for _, cmd := range cmds {
		ctl.Exec(cmd)
	}
	if err := core.WaitJob(ctl, "t", time.Minute); err != nil {
		return nil, err
	}
	events, err := sys.WaitTrace("blue", "f", 10*time.Second, core.TermCount(workers+1))
	if err != nil {
		return nil, err
	}
	return analysis.MeasureParallelism(events), nil
}

// Ablation: filter placement (§3.4 allows the filter on a machine
// disjoint from the computation; "In situations where filter
// operations contribute significantly to the system load ... this
// flexibility may be useful"). Each iteration runs one metered
// ping-pong job with the filter either co-located with the server or
// on an otherwise idle machine.
func BenchmarkFilterPlacement(b *testing.B) {
	for _, placement := range []struct {
		name    string
		machine string
	}{
		{"colocated", "green"}, // same machine as the ponger
		{"disjoint", "blue"},   // idle machine
	} {
		b.Run(placement.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runPingPongOnce(placement.machine); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func runPingPongOnce(filterMachine string) error {
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	if err := workloads.RegisterPingPong(sys); err != nil {
		return err
	}
	ctl, err := sys.NewController("yellow", io.Discard)
	if err != nil {
		return err
	}
	for _, cmd := range []string{
		"filter f " + filterMachine,
		"newjob pp",
		"setflags pp all",
		"addprocess pp green ponger 10",
		"addprocess pp red pinger green 10",
		"startjob pp",
	} {
		ctl.Exec(cmd)
	}
	return core.WaitJob(ctl, "pp", time.Minute)
}

// Per-analysis benchmarks: the stage-3 routines over a 400-event
// trace.
func BenchmarkAnalyses(b *testing.B) {
	events := syntheticTrace(400)
	b.Run("comm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.Comm(events)
		}
	})
	b.Run("match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.MatchTrace(events, nil)
		}
	})
	b.Run("parallelism", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.MeasureParallelism(events)
		}
	})
	b.Run("waiting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.WaitingProfile(events)
		}
	})
	b.Run("callsites", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.CallSites(events)
		}
	})
	b.Run("structure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.Structure(events, analysis.MatchTrace(events, nil))
		}
	})
	b.Run("timeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analysis.Timeline(events, 72)
		}
	})
}

// S1: event-store ingest throughput — the cost a filter pays to write
// a record through the store (typed encoding, a flush per record, index
// update, rotation) rather than appending a line to the flat log:
// AppendBatch with a batch of one.
func BenchmarkStoreIngest(b *testing.B) {
	recs, bytes := storeBatchRecs()
	st, err := store.Open(store.NewMemBackend(), store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(bytes / int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendBatch(recs[i%len(recs) : i%len(recs)+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// eventRec is an event as the filter hands it to AppendBatch: its Meta,
// its line, and its slots — each key of its type's stored order it
// carries, with a value of the key's kind.
func eventRec(e *trace.Event) store.BatchRec {
	s := new(trace.Slots)
	s.Reset(e.ProcTime)
	keys, names := trace.SlotKeys(e.Type, e.Event)
	for k, key := range keys {
		if n, ok := e.Names[key]; ok && names>>k&1 != 0 {
			s.SetName(k, n)
		} else if v, ok := e.Fields[key]; ok && names>>k&1 == 0 {
			s.SetVal(k, v)
		}
	}
	m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: uint32(e.Type), PID: uint32(e.Fields["pid"])}
	return store.BatchRec{Meta: m, Line: s.AppendLine(nil, e.Type, e.Machine, e.CPUTime), Slots: s}
}

// storeBatchRecs is the record set the batched store benchmarks cycle
// through — 64 synthetic events as the filter would hand them to
// AppendBatch — and the total length of their lines.
func storeBatchRecs() (recs []store.BatchRec, lineBytes int64) {
	events := syntheticTrace(64)
	recs = make([]store.BatchRec, len(events))
	for i := range events {
		recs[i] = eventRec(&events[i])
		lineBytes += int64(len(recs[i].Line))
	}
	return recs, lineBytes
}

// S1 batched: the same ingest through AppendBatch, 16 records per call
// — the granularity the filter's per-Recv flush produces — with
// delta/varint metadata, typed records and a stored-block flush per
// batch. ns/op and allocs/op are per batch, so divide by 16 to compare
// with BenchmarkStoreIngest; compression-x is the v1-equivalent bytes
// over bytes actually on disk after sealing.
func BenchmarkStoreIngestCompressed(b *testing.B) {
	recs, bytes := storeBatchRecs()
	st, err := store.Open(store.NewMemBackend(), store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 16
	b.SetBytes(bytes / int64(len(recs)) * batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batchSize % len(recs)
		if err := st.AppendBatch(recs[off : off+batchSize]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	var raw, disk int
	for _, info := range st.Segments() {
		raw += info.Bytes
		disk += info.DiskBytes
	}
	if disk > 0 {
		b.ReportMetric(float64(raw)/float64(disk), "compression-x")
		b.ReportMetric(float64(disk), "bytes_on_disk")
	}
}

// storeSlotRecs is storeBatchRecs' 64 records as the filter hands them to
// the store: the same events as meter messages through
// Engine.ProcessBatch, the fields the events do not carry discarded, so
// that every line and Meta is storeBatchRecs' — and every record typed.
func storeSlotRecs(b *testing.B) []store.BatchRec {
	eng, err := filter.NewEngine([]byte(filter.StandardDescriptions),
		[]byte("type=1, pc=#*, destNameLen=#*\ntype=3, pc=#*, sourceNameLen=#*\n"))
	if err != nil {
		b.Fatal(err)
	}
	var stream []byte
	for _, e := range syntheticTrace(64) {
		var body meter.Body = &meter.Send{PID: uint32(e.PID()), Sock: e.Sock(), MsgLength: uint32(e.MsgLength()), DestName: e.Name("destName")}
		if e.Type == meter.EvRecv {
			body = &meter.Recv{PID: uint32(e.PID()), Sock: e.Sock(), MsgLength: uint32(e.MsgLength()), SourceName: e.Name("sourceName")}
		}
		stream = (&meter.Msg{Header: meter.Header{Machine: uint16(e.Machine), CPUTime: uint32(e.CPUTime)}, Body: body}).AppendEncode(stream)
	}
	batch := new(filter.Batch)
	if _, err := eng.ProcessBatch(stream, batch); err != nil {
		b.Fatal(err)
	}
	want, _ := storeBatchRecs()
	recs := batch.StoreRecs()
	for i, r := range recs {
		if r.Meta != want[i].Meta || !bytes.Equal(r.Line, want[i].Line) || r.Slots == nil {
			b.Fatalf("record %d: %+v %q typed %v, want %+v %q typed", i, r.Meta, r.Line, r.Slots != nil, want[i].Meta, want[i].Line)
		}
	}
	return recs
}

// BenchmarkStoreIngestSlots is BenchmarkStoreIngestCompressed's batches
// as the filter's engine hands them over (storeSlotRecs). ns/op is per
// 16-record batch; ns/record is that over 16. scripts/bench_filter.sh
// gates its allocations.
func BenchmarkStoreIngestSlots(b *testing.B) {
	const batchSize = 16
	recs := storeSlotRecs(b)
	st, err := store.Open(store.NewMemBackend(), store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batchSize % len(recs)
		if err := st.AppendBatch(recs[off : off+batchSize]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/record")
}

// S1 archiving: the store exactly as the filter opens it
// (filter.StoreConfig: 30 s archive threshold), with cpuTime advancing
// so that segments really go cold and the archival tier runs on the
// appending goroutine, at rotation — which is where it runs in the
// filter. ns/op is per 16-record batch and ns/record that over 16;
// archive-x is the tier-1 raw/disk ratio, archive_bytes its disk bytes,
// archived_share the part of all records that ended in tier 1. Two
// record sets: "repeating" is BenchmarkStoreIngestCompressed's batches,
// 1 ms apart, comparable directly with it, and they repeat so well
// (archive-x ≈ 340) that every DEFLATE level reads alike; "varied" are
// records that vary as ingest_flood's do (floodRecs), on which the level
// shows.
func BenchmarkStoreIngestArchiving(b *testing.B) {
	recs, _ := storeBatchRecs()
	steps := make([]uint32, len(recs))
	for i := range steps {
		steps[i] = 1
	}
	b.Run("repeating", func(b *testing.B) { benchArchiving(b, recs, steps) })
	recs, steps = floodRecs(b, 4096)
	b.Run("varied", func(b *testing.B) { benchArchiving(b, recs, steps) })
}

// floodRecs is n records as ingest_flood's filter hands them to the
// store, with copies of their lines and slots, and the cpuTime step
// after each: sends from two
// machines in runs of a few dozen, as meter buffers arrive, from
// processes replaced every 2 048 records (a new job), their pc advancing
// 4 a send and their procTime 0-3 ms, with seeded payload lengths of
// 32-95 bytes and steps of 0-2 ms.
func floodRecs(b *testing.B, n int) ([]store.BatchRec, []uint32) {
	rng := rand.New(rand.NewSource(1))
	eng, err := filter.NewEngine([]byte(filter.StandardDescriptions), nil)
	if err != nil {
		b.Fatal(err)
	}
	var stream []byte
	var pid, pc, proc [2]uint32
	var now uint32
	steps := make([]uint32, n)
	m := 0
	for i := range steps {
		if i%2048 == 0 {
			for k := range pid {
				pid[k], pc[k] = uint32(100+rng.Intn(30000)), uint32(rng.Intn(1<<16))*4
			}
		}
		if rng.Intn(32) == 0 {
			m ^= 1
		}
		pc[m] += 4
		proc[m] += uint32(rng.Intn(4))
		msg := meter.Msg{
			Header: meter.Header{Machine: uint16(m + 1), CPUTime: now, ProcTime: proc[m]},
			Body: &meter.Send{PID: pid[m], PC: pc[m], Sock: 3, MsgLength: uint32(32 + rng.Intn(64)),
				DestNameLen: 16, DestName: meter.InetName(3, 7700)},
		}
		stream = msg.AppendEncode(stream)
		steps[i] = uint32(rng.Intn(3))
		now += steps[i]
	}
	batch := new(filter.Batch)
	if _, err := eng.ProcessBatch(stream, batch); err != nil {
		b.Fatal(err)
	}
	recs := batch.StoreRecs()
	if len(recs) != n {
		b.Fatalf("%d records kept of %d", len(recs), n)
	}
	for i, r := range recs {
		s := *r.Slots
		recs[i] = store.BatchRec{Meta: r.Meta, Line: append([]byte(nil), r.Line...), Slots: &s}
	}
	return recs, steps
}

// benchArchiving appends recs, cycled in 16-record batches, to a store
// opened as the filter opens it, the clock moving steps[i] after recs[i].
// It respells a copy of recs and leaves recs as they were.
func benchArchiving(b *testing.B, recs []store.BatchRec, steps []uint32) {
	recs = append([]store.BatchRec(nil), recs...)
	st, err := store.Open(store.NewMemBackend(), filter.StoreConfig(nil))
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 16
	var lineBytes int64
	for _, r := range recs {
		lineBytes += int64(len(r.Line))
	}
	b.SetBytes(lineBytes / int64(len(recs)) * batchSize)
	b.ReportAllocs()
	// A record's line says the cpuTime its Meta says, as every line the
	// filter hands the store does — the line is the record's size — so
	// the line is respelled with the clock: everything before the number,
	// the number, everything after.
	type spelling struct{ head, tail []byte }
	spell := make([]spelling, len(recs))
	for i, r := range recs {
		at := bytes.Index(r.Line, []byte(" cpuTime=")) + len(" cpuTime=")
		end := at + bytes.IndexByte(r.Line[at:], ' ')
		spell[i] = spelling{r.Line[:at:at], r.Line[end:]}
	}
	var lines [batchSize][]byte
	var now uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * batchSize % len(recs)
		batch := recs[off : off+batchSize]
		for j := range batch {
			batch[j].Meta.Time = now
			now += steps[off+j]
			sp := spell[off+j]
			lines[j] = append(strconv.AppendUint(append(lines[j][:0], sp.head...), uint64(batch[j].Meta.Time), 10), sp.tail...)
			batch[j].Line = lines[j]
		}
		if err := st.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/record")
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	var raw, disk, archived, all int
	for _, info := range st.Segments() {
		all += int(info.Index.Count)
		if info.Tier == 1 {
			raw += info.Bytes
			disk += info.DiskBytes
			archived += int(info.Index.Count)
		}
	}
	if disk > 0 {
		b.ReportMetric(float64(raw)/float64(disk), "archive-x")
		b.ReportMetric(float64(disk), "archive_bytes")
		b.ReportMetric(float64(archived)/float64(all), "archived_share")
	}
}

// S2: segment pruning. A selective query (tight time range plus a
// machine predicate) over a multi-segment store should scan only the
// segments whose footer indexes intersect the predicate envelope;
// compare against the same query with pruning disabled, which decodes
// every record in the store. The pruned/full-scan ratio is the store's
// answer to shipping the whole log on every question.
func BenchmarkQuerySegmentPruning(b *testing.B) {
	// Small segments so the fixed event count spreads over many of them.
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{SegmentCap: 2048})
	if err != nil {
		b.Fatal(err)
	}
	events := syntheticTrace(4000)
	for i := range events {
		if err := st.AppendBatch([]store.BatchRec{eventRec(&events[i])}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		b.Fatal(err)
	}
	const rules = "machine=2,cpuTime>=1000,cpuTime<1200,type=1"
	for _, mode := range []struct {
		name    string
		noPrune bool
	}{{"pruned", false}, {"full-scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var st query.Stats
			for i := 0; i < b.N; i++ {
				q, err := query.Compile(rules)
				if err != nil {
					b.Fatal(err)
				}
				q.NoPrune = mode.noPrune
				res, err := query.Run(rd, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Matched == 0 {
					b.Fatal("selective query matched nothing")
				}
				st = res.Stats
			}
			b.ReportMetric(float64(st.Segments), "segments")
			b.ReportMetric(float64(st.Scanned), "segments-scanned")
		})
	}
}

// A2 parallel: ingest throughput of the filter's pipeline at 1/2/4/8
// workers. Each op is one 16-message chunk through decode → select →
// format (the same unit as BenchmarkFilterEngine), spread over
// 2×workers sources, each fed from its own goroutine as filter.Main's
// connection goroutines do, so at most `workers` chunks are processed
// at once; the log sink is a no-op so the measurement is the execution
// layer, not a sink bottleneck. Scaling beyond 1 worker requires a
// multi-core host.
func BenchmarkFilterEngineParallel(b *testing.B) {
	proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte("machine=1, cpuTime<10000\n"))
	if err != nil {
		b.Fatal(err)
	}
	var stream []byte
	for i := 0; i < 16; i++ {
		msg := &meter.Msg{
			Header: meter.Header{Machine: uint16(i % 3), CPUTime: uint32(i * 100)},
			Body:   &meter.Send{PID: uint32(i), Sock: 4, MsgLength: uint32(i * 64)},
		}
		stream = msg.AppendEncode(stream)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pipe := filter.NewPipeline(proto, filter.PipelineConfig{Workers: workers}, filter.Sinks{
				Log: func([]byte) error { return nil },
			}, nil)
			srcs := make([]*filter.Source, 2*workers)
			for i := range srcs {
				srcs[i] = pipe.NewSource()
			}
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for s, src := range srcs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := s; i < b.N; i += len(srcs) {
						if !src.Feed(stream) {
							b.Error("pipeline refused feed")
							return
						}
					}
				}()
			}
			wg.Wait()
			pipe.Close()
			b.StopTimer()
			received := pipe.Obs().Counter("filter.received").Load()
			if bad := pipe.Obs().Counter("filter.stream_errors").Load(); received != int64(16*b.N) || bad != 0 {
				b.Fatalf("pipeline processed %d records of %d, %d stream errors", received, 16*b.N, bad)
			}
		})
	}
}

// S2 parallel: full-scan query throughput over the
// BenchmarkQuerySegmentPruning store. The match-all full scan is the
// scan-dominated case parallel segment execution targets. The read
// executor sizes its pool from GOMAXPROCS, so the core sweep is
// `-cpu 1,2,4` (scripts/bench_filter.sh) and the row name records it;
// output is byte-identical across worker counts
// (TestParallelRunEquivalence), so only wall-clock moves.
func BenchmarkQueryParallel(b *testing.B) {
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{SegmentCap: 2048})
	if err != nil {
		b.Fatal(err)
	}
	events := syntheticTrace(4000)
	for i := range events {
		if err := st.AppendBatch([]store.BatchRec{eventRec(&events[i])}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.Compile("")
	if err != nil {
		b.Fatal(err)
	}
	q.NoPrune = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := query.Run(rd, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Matched != len(events) {
			b.Fatalf("scan returned %d records, want %d", res.Stats.Matched, len(events))
		}
	}
	// The fixture events are most of this benchmark's live heap. Keep
	// them reachable for the whole run — as they were while workers=N
	// sub-benchmark closures captured them — or the collector's heap
	// goal halves, GC cycles double, and ns/op stops being comparable
	// with the archived rows for a reason that has nothing to do with
	// the executor.
	runtime.KeepAlive(events)
}

// O2: live streaming analysis overhead. The §5 operators are meant to
// be cheap enough to leave on, so the gate compares the full filter
// ingest path (decode → select → format → log sink) with the live
// collector tapped in against the identical pipeline without taps.
// The stream alternates named sends and matching receives across two
// machines, so the tap path exercises its heaviest operator — the
// online matcher's datagram pairing — not just counter bumps.
// scripts/bench_filter.sh gates live-on at 1.05x live-off.
func BenchmarkFilterIngestLive(b *testing.B) {
	proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(""))
	if err != nil {
		b.Fatal(err)
	}
	var stream []byte
	for i := 0; i < 8; i++ {
		send := &meter.Msg{
			Header: meter.Header{Machine: 0, CPUTime: uint32(100 + i), ProcTime: uint32(i)},
			Body: &meter.Send{PID: uint32(10 + i%2), Sock: 3, MsgLength: 64,
				DestNameLen: 16, DestName: meter.InetName(1, 5000)},
		}
		stream = send.AppendEncode(stream)
		recv := &meter.Msg{
			Header: meter.Header{Machine: 1, CPUTime: uint32(100 + i), ProcTime: uint32(i)},
			Body: &meter.Recv{PID: uint32(20 + i%2), Sock: 7, MsgLength: 64,
				SourceNameLen: 16, SourceName: meter.InetName(0, 1024)},
		}
		stream = recv.AppendEncode(stream)
	}
	for _, mode := range []struct {
		name string
		live bool
	}{{"live=off", false}, {"live=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			reg := obs.NewRegistry()
			cfg := filter.PipelineConfig{Workers: 2, Obs: reg}
			if mode.live {
				cfg.Taps = live.NewCollector(live.Config{Obs: reg})
			}
			pipe := filter.NewPipeline(proto, cfg, filter.Sinks{
				Log: func([]byte) error { return nil },
			}, nil)
			srcs := make([]*filter.Source, 4)
			for i := range srcs {
				srcs[i] = pipe.NewSource()
			}
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !srcs[i%len(srcs)].Feed(stream) {
					b.Fatal("pipeline refused feed")
				}
			}
			pipe.Close() // drain inside the timed region
			b.StopTimer()
			received := pipe.Obs().Counter("filter.received").Load()
			if bad := pipe.Obs().Counter("filter.stream_errors").Load(); received != int64(16*b.N) || bad != 0 {
				b.Fatalf("pipeline processed %d records of %d, %d stream errors", received, 16*b.N, bad)
			}
		})
	}
}

// BenchmarkTraceParse measures log parsing (stage 2 → stage 3
// hand-off).
func BenchmarkTraceParse(b *testing.B) {
	events := syntheticTrace(400)
	var log []byte
	for i := range events {
		log = append(log, events[i].Format()...)
		log = append(log, '\n')
	}
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ParseLog(log); err != nil {
			b.Fatal(err)
		}
	}
}

// scanFixture is the store BenchmarkScanTyped scans: 16 384 SEND
// records of the shape bench/'s query_mix preloads — eight senders on
// four machines, each walking msgLength through 16..2015 in a stride of
// its own — as the filter hands them over. The rule reads msgLength and selects nothing: no zone map can prune it,
// every record is decoded, admitted and matched, none is shipped.
func scanFixture(b *testing.B) (segs []*store.ReaderSegment, q *query.Query, records int) {
	b.Helper()
	const n = 16384
	be := store.NewMemBackend()
	cfg := filter.StoreConfig(nil)
	cfg.Shards, cfg.ArchiveAfter = 1, 0
	st, err := store.Open(be, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	var at, step [8]int
	for i := range at {
		at[i], step[i] = rng.Intn(2000), 2*rng.Intn(400)+201
	}
	var batch []store.BatchRec
	var line []byte
	for i := 0; i < n; i++ {
		s := rng.Intn(8)
		at[s] = (at[s] + step[s]) % 2000
		m := store.Meta{Machine: uint16(1 + s/2), Time: uint32(1000 + i/4), Type: uint32(meter.EvSend), PID: uint32(2 + s)}
		line = fmt.Appendf(line[:0], "SEND machine=%d cpuTime=%d procTime=%d pid=%d pc=%d sock=3 msgLength=%d destNameLen=16 destName=inet:%d:6100",
			m.Machine, m.Time, i/64*10, m.PID, 16384+rng.Intn(4)*12, 16+at[s], 167772161+rng.Intn(2))
		ev, err := trace.ParseOne(line)
		if err != nil {
			b.Fatal(err)
		}
		if batch = append(batch, eventRec(&ev)); len(batch) == 64 {
			if err := st.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		b.Fatal(err)
	}
	if q, err = query.Compile("msgLength>=99999"); err != nil {
		b.Fatal(err)
	}
	return rd.Shards()[0], q, n
}

// scanAll runs the query's segment scan over every segment and returns
// the summed statistics.
func scanAll(b *testing.B, segs []*store.ReaderSegment, q *query.Query) (sum query.Stats) {
	for _, rs := range segs {
		st, err := q.ScanSegment(rs, func(*trace.View, uint8) { b.Fatal("a record matched") })
		if err != nil {
			b.Fatal(err)
		}
		sum.Records, sum.Typed = sum.Records+st.Records, sum.Typed+st.Typed
	}
	return sum
}

// BenchmarkScanTyped is what the one read executor pays per scanned
// record: ns/record, archived; scripts/bench_filter.sh gates its
// allocations.
func BenchmarkScanTyped(b *testing.B) {
	segs, q, n := scanFixture(b)
	if st := scanAll(b, segs, q); st.Records != n || st.Typed != n {
		b.Fatalf("fixture: %d records scanned, %d read; want %d", st.Records, st.Typed, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAll(b, segs, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}

// statsYardstickBytes is the wire size BenchmarkStatsRoundTrip's
// snapshot had in version 1 of the live sections, the size its gate's
// archived x-sha256 figures were hashed over.
const statsYardstickBytes = 1529285

// BenchmarkStatsRoundTrip is what one machine's share of a `stats`
// costs once its filter holds live.Config's default MaxProcs of open
// processes: the registry captured (the live sections encoded), the
// snapshot marshalled, parsed back and rendered — 16 384 processes on
// six machines, all 36 machine pairs in the matrix, ~0.23 MB on the
// wire. Their records span 1.5 s of cpuTime, inside one reordering
// window, so none of them retires. ns/op and B/op are archived; the gate is x-sha256, as
// the host runs at two speeds, so the round trip is held against a yardstick timed in this
// process in alternating chunks, each side at its best chunk. The
// yardstick is a SHA-256 over a fixed statsYardstickBytes — work a
// change to the stats path leaves alone. It is not the wire itself:
// version 2 of the live sections shrank the wire 5.7 times, and a
// yardstick that shrank with it would read a faster round trip as a
// slower one.
func BenchmarkStatsRoundTrip(b *testing.B) {
	const procs, machines = 16384, 6
	proto, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte(""))
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	pipe := filter.NewPipeline(proto, filter.PipelineConfig{Workers: 1, Obs: reg,
		Taps: live.NewCollector(live.Config{Obs: reg})}, filter.Sinks{Log: func([]byte) error { return nil }}, nil)
	src := pipe.NewSource()
	rng := rand.New(rand.NewSource(21))
	var stream []byte
	for i, pid := range rng.Perm(procs) {
		machine := uint16(i % machines)
		hdr := meter.Header{Machine: machine, CPUTime: uint32(100 + i/16), ProcTime: uint32(i % 97)}
		stream = (&meter.Msg{Header: hdr, Body: &meter.Send{PID: uint32(1 + pid), Sock: 3, MsgLength: uint32(1 + rng.Intn(4096)),
			DestNameLen: 16, DestName: meter.InetName(uint32(i/machines%machines), 5000)}}).AppendEncode(stream[:0])
		hdr.CPUTime += uint32(rng.Intn(400))
		stream = (&meter.Msg{Header: hdr, Body: &meter.TermProc{PID: uint32(1 + pid)}}).AppendEncode(stream)
		if !src.Feed(append([]byte(nil), stream...)) {
			b.Fatal("pipeline refused feed")
		}
	}
	pipe.Close()

	var wire []byte
	roundTrip := func() {
		wire = reg.Snapshot().MarshalBinary()
		s, err := obs.ParseSnapshot(wire)
		if err != nil {
			b.Fatal(err)
		}
		s.Render(io.Discard)
	}
	roundTrip()
	if got, _ := reg.Snapshot().Get("live.procs_seen"); got != procs {
		b.Fatalf("collector holds %d processes, want %d", got, procs)
	}
	best := func(iters int, fn func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		return time.Since(start) / time.Duration(iters)
	}
	var sink [sha256.Size]byte
	yardstick := make([]byte, statsYardstickBytes)
	yard, trip := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for chunk := 0; chunk < 10; chunk++ {
		yard = min(yard, best(8, func() { sink = sha256.Sum256(yardstick) }))
		trip = min(trip, best(4, roundTrip))
	}
	_ = sink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.ReportMetric(float64(len(wire)), "wire_bytes")
	b.ReportMetric(float64(yard)/float64(trip), "x-sha256")
}
