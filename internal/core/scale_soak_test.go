package core_test

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dpm/internal/filter"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/netsim"
	"dpm/internal/workloads"
)

// TestScaleSoak is the cluster-density soak: it boots DPM_SCALE_MACHINES
// simulated machines (default 1000) — every one metered — drives
// sustained cross-machine datagram traffic through the delivery fabric
// and the meter streams through real filter engines, and pins the
// simulation's resource ceilings:
//
//   - goroutines: one per live process and none per idle machine, so
//     growth is at most the processes spawned plus the fabric's ticker
//     and lanes;
//   - stack plus heap at most 24 KiB per machine;
//   - idle heap at most 64 KiB per machine;
//
// and conservation: once the sources are killed and the sinks stop
// receiving, every datagram sent was received or counted as shed.
//
// It lives in package core_test so it can borrow the workloads traffic
// programs without an import cycle. CI runs it under a hard timeout,
// with and without the race detector; see .github/workflows/ci.yml.
func TestScaleSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("scale soak")
	}
	machines := 1000
	if v := os.Getenv("DPM_SCALE_MACHINES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 8 {
			t.Fatalf("bad DPM_SCALE_MACHINES %q", v)
		}
		machines = n
	}
	const (
		filterMachines = 4
		sinkPort       = 7100
		uid            = 100
		// fabricGoroutines is the delivery fabric's ticker and lanes,
		// with room to spare; nothing else may grow with the cluster.
		fabricGoroutines = 8
	)
	leaves := machines - filterMachines

	var baseMem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&baseMem)
	baseGoroutines := runtime.NumGoroutine()

	bootStart := time.Now()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0", netsim.WithLatency(2*time.Millisecond, time.Millisecond))
	defer c.Shutdown()

	// Filter tier: each filter machine runs one collector process that
	// accepts meter-stream connections and runs every byte through a
	// compiled filter engine.
	var col tier
	filterNames := make([]meter.Name, filterMachines)
	for f := 0; f < filterMachines; f++ {
		fm, err := c.AddMachine(fmt.Sprintf("filter-%d", f), nil, "ether0")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := filter.NewEngine([]byte(filter.StandardDescriptions), []byte("pid>=0\n"))
		if err != nil {
			t.Fatal(err)
		}
		filterNames[f] = meter.InetName(fm.PrimaryHostID(), 7200)
		streams := (leaves - f + filterMachines - 1) / filterMachines // leaves i with i%filterMachines == f
		prog := newCollector(eng, 7200, streams, &col)
		if _, err := fm.Spawn(kernel.SpawnSpec{UID: 0, Name: "collector", Program: prog}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for every tier member to be accepting before the leaves dial
	// in.
	waitFor(t, "collectors listening", func() bool { return col.listening.Load() == filterMachines })

	// Leaf tier: every leaf machine runs a metered traffic source and a
	// sink. Sources send to the next leaf's sink — a ring of
	// cross-machine datagrams through the fabric — and their syscalls
	// are metered to one of the filter machines.
	stats := &workloads.TrafficStats{}
	perLeaf := 5000.0 / float64(leaves) // ~5k datagrams/s offered, whatever the scale
	if perLeaf < 1 {
		perLeaf = 1
	}
	leafMachines := make([]*kernel.Machine, leaves)
	for i := 0; i < leaves; i++ {
		m, err := c.AddMachine(fmt.Sprintf("leaf-%04d", i), nil, "ether0")
		if err != nil {
			t.Fatal(err)
		}
		m.AddAccount(uid, "user")
		leafMachines[i] = m
	}
	// Every sink is bound before any source starts: a datagram to an
	// unbound port is dropped uncounted, and would break conservation.
	sink := workloads.NewTrafficSink(sinkPort, stats)
	for _, m := range leafMachines {
		if _, err := m.Spawn(kernel.SpawnSpec{UID: uid, Name: "sink", Program: sink}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "sinks bound", func() bool {
		for _, m := range leafMachines {
			if !m.PortBound(kernel.SockDgram, sinkPort) {
				return false
			}
		}
		return true
	})
	gens := make([]*kernel.Process, leaves)
	for i, m := range leafMachines {
		dest := meter.InetName(leafMachines[(i+1)%leaves].PrimaryHostID(), sinkPort)
		gen, err := m.Spawn(kernel.SpawnSpec{
			UID: uid, Name: "gen", Program: workloads.NewTrafficSource(perLeaf, dest, 64, stats),
		})
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = gen
		// Meter the source's send/receive traffic to a filter machine,
		// exactly as setmeter(2) wires a monitored process. Immediate
		// delivery, not the 8-message kernel buffer: at 10k machines a
		// leaf offers well under one datagram per second, and a buffered
		// meter stream would not flush once inside the soak window.
		root, err := m.SpawnDetached(0, "root")
		if err != nil {
			t.Fatal(err)
		}
		msfd, err := root.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Connect(msfd, filterNames[i%filterMachines]); err != nil {
			t.Fatal(err)
		}
		if err := root.Setmeter(gen.PID(), int(meter.MSend|meter.MReceive|meter.MImmediate), msfd); err != nil {
			t.Fatal(err)
		}
		if err := root.Close(msfd); err != nil {
			t.Fatal(err)
		}
	}
	spawned := filterMachines + 2*leaves
	// Booted once every meter stream is accepted.
	waitFor(t, "meter streams accepted", func() bool { return col.accepted.Load() == int64(leaves) })
	bootMS := time.Since(bootStart).Milliseconds()

	// Idle ceilings: everything is booted and waiting. The heap bill
	// per machine must fit the 64 KiB budget, and heap plus the
	// processes' stacks 24 KiB.
	runtime.GC()
	var idleMem runtime.MemStats
	runtime.ReadMemStats(&idleMem)
	idlePerMachine := int64(idleMem.HeapAlloc-baseMem.HeapAlloc) / int64(machines)
	if idlePerMachine > 64*1024 {
		t.Fatalf("idle heap %d bytes/machine, budget is 64 KiB", idlePerMachine)
	}
	stackPerMachine := (int64(idleMem.StackInuse) - int64(baseMem.StackInuse)) / int64(machines)
	if idlePerMachine+stackPerMachine > 24*1024 {
		t.Fatalf("heap %d + stack %d bytes/machine, budget is 24 KiB", idlePerMachine, stackPerMachine)
	}

	// Goroutine ceiling: one per live process, plus the fabric.
	grew := runtime.NumGoroutine() - baseGoroutines
	if grew > spawned+fabricGoroutines {
		t.Fatalf("%d machines running %d processes grew goroutines by %d, want <= %d",
			machines, spawned, grew, spawned+fabricGoroutines)
	}

	// Soak: sustained traffic through fabric and filters.
	soak := 3 * time.Second
	time.Sleep(soak)
	windowReceived := stats.Received.Load()
	filtered := col.filtered.Load()
	if windowReceived < int64(leaves) {
		t.Fatalf("soak moved %d datagrams end to end (sent %d), want >= %d", windowReceived, stats.Sent.Load(), leaves)
	}
	if filtered < int64(leaves) {
		t.Fatalf("filters processed %d meter records, want >= %d", filtered, leaves)
	}

	runtime.GC()
	var soakMem runtime.MemStats
	runtime.ReadMemStats(&soakMem)
	soakPerMachine := int64(soakMem.HeapAlloc-baseMem.HeapAlloc) / int64(machines)

	// Conservation: stop the sources, let the fabric and the sinks'
	// queues drain until the count stops moving, then account for every
	// datagram sent.
	for i, gen := range gens {
		if err := leafMachines[i].Signal(gen.PID(), kernel.SIGKILL); err != nil {
			t.Fatal(err)
		}
	}
	for _, gen := range gens {
		gen.WaitExit()
	}
	sent := stats.Sent.Load()
	shed := func() (n int64) {
		for _, m := range leafMachines {
			n += m.Obs().Counter("mem.shed_dgrams").Load()
		}
		return n
	}
	received := stats.Received.Load()
	deadline := time.Now().Add(30 * time.Second)
	for still := 0; still < 10 && received+shed() != sent && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		if now := stats.Received.Load(); now == received {
			still++
		} else {
			received, still = now, 0
		}
	}
	shedTotal := shed()
	if lost := sent - received - shedTotal; lost != 0 {
		t.Fatalf("sent %d, received %d, shed %d: %d datagrams unaccounted for", sent, received, shedTotal, lost)
	}

	t.Logf("machines=%d boot_ms=%d idle_heap_per_machine=%d stack_per_machine=%d soak_heap_per_machine=%d goroutines_grew=%d processes=%d sent=%d received_in_window=%d received=%d shed=%d filtered=%d throughput=%.0f/s",
		machines, bootMS, idlePerMachine, stackPerMachine, soakPerMachine, grew, spawned, sent, windowReceived, received, shedTotal, filtered,
		float64(windowReceived)/soak.Seconds())
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// tier is what the filter tier's collectors report to the soak.
type tier struct {
	listening atomic.Int64 // collectors accepting connections
	accepted  atomic.Int64 // meter streams accepted
	filtered  atomic.Int64 // meter records run through the engines
}

// newCollector builds a filter machine's ingest: a process that
// accepts the given number of meter streams, then runs their bytes
// through a filter engine until every stream has ended. One Select over
// the connections stands where the seed spent a drainer goroutine per
// connection; it costs O(connections) a wakeup. Accepting first keeps
// boot O(connections) too: a listener in the Select set would cost a
// pass over every connection accepted so far for each new one.
func newCollector(eng *filter.Engine, port uint16, streams int, col *tier) kernel.Program {
	return func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return 1
		}
		if err := p.BindPort(lfd, port); err != nil {
			return 1
		}
		if err := p.Listen(lfd, streams); err != nil {
			return 1
		}
		col.listening.Add(1)
		fds := make([]int, 0, streams)
		for len(fds) < streams {
			conn, _, err := p.Accept(lfd)
			if err != nil {
				return 1
			}
			fds = append(fds, conn)
			col.accepted.Add(1)
		}
		carries := make(map[int][]byte)
		var batch filter.Batch
		for len(fds) > 0 {
			ready, err := p.Select(fds)
			if err != nil {
				return 1
			}
			for _, fd := range ready {
				data, _, err := p.RecvFrom(fd, 65536)
				if err != nil { // end of stream: the metered source exited
					_ = p.Close(fd) // the descriptor is ours and open
					fds = slices.DeleteFunc(fds, func(f int) bool { return f == fd })
					delete(carries, fd)
					continue
				}
				buf := data
				if carry := carries[fd]; len(carry) > 0 {
					buf = append(carry, data...)
				}
				before := eng.Received
				batch.Reset()
				rest, err := eng.ProcessBatch(buf, &batch)
				if err != nil {
					carries[fd] = nil
					continue
				}
				col.filtered.Add(int64(eng.Received - before))
				carries[fd] = append(carries[fd][:0], rest...)
			}
		}
		return 0
	}
}
