package controller

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpm/internal/analysis/live"
	"dpm/internal/daemon"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestStatsCommand: the stats command polls every machine's
// meterdaemon over the wire, merges the snapshots, and renders the
// aggregate report with counters and histogram quantiles.
func TestStatsCommand(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)

	// A status probe first, so every machine has served at least one
	// list request and the merged report has a known nonzero counter.
	ctl.Exec("status")
	ctl.Exec("stats")
	text := out.String()
	if !strings.Contains(text, "stats: 4/4 machines reporting") {
		t.Fatalf("stats header:\n%s", text)
	}
	for _, want := range []string{
		"daemon.req.list",  // counted by the probed daemons
		"daemon.req.stats", // counted by serving this very command
		"daemon.rtt.list",  // controller-side round-trip histogram
		"p50", "p95", "p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stats report lacks %q:\n%s", want, text)
		}
	}

	// Narrowed to one machine the report is that machine's alone.
	ctl.Exec("stats red")
	if !strings.Contains(out.String(), "stats: 1/1 machines reporting (red)") {
		t.Errorf("single-machine stats:\n%s", out.String())
	}

	// An unknown target is an error, not a hang.
	ctl.Exec("stats nosuch")
	if !strings.Contains(out.String(), "stats: no machine or job named 'nosuch'") {
		t.Errorf("bad target:\n%s", out.String())
	}
}

// TestStatsJobTarget: a job name narrows the poll to the machines the
// job's processes and its filter run on.
func TestStatsJobTarget(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red B")

	ctl.Exec("stats foo")
	text := out.String()
	if !strings.Contains(text, "stats: 2/2 machines reporting (red blue)") {
		t.Fatalf("job-scoped stats:\n%s", text)
	}
}

// TestStatsUnderPartition: a machine cut off mid-poll degrades the
// report — it is listed as missing, the survivors still merge — and
// the command returns within the retry policy instead of hanging.
func TestStatsUnderPartition(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)

	cutFrom(t, c, ctl, "green")
	ctl.Exec("stats")
	text := out.String()
	if !strings.Contains(text, "stats: 3/4 machines reporting") {
		t.Fatalf("degraded header:\n%s", text)
	}
	if !strings.Contains(text, "stats: degraded, missing green") {
		t.Fatalf("missing list:\n%s", text)
	}
	if !strings.Contains(text, "daemon.req.stats") {
		t.Errorf("degraded report still renders survivors:\n%s", text)
	}
}

// TestStatsRoundTripNoAllocBeyondCopies gates what one `stats` of a
// machine whose filter holds live.Config's default MaxProcs of open
// processes allocates, end to end, in units of the snapshot's wire size
// (~0.22 MB; ~1.5 MB in version 1 of the live sections). The daemon
// captures each section straight into the reply frame, whose array the
// frame free list lends, behind the registry's own lists; the reply is
// sent once into the receiver's socket buffer and received into another
// lent array, which the session lends on to the controller with the
// reply read in place from it (TestSessionCallNoAllocBeyondReply, in
// internal/daemon); the controller renders the report from the reply's
// bytes into one buffer and gives the array back. Rendering reads the
// parallelism rows into the sweep's start and end arrays, 16 bytes a
// process, about 1.2 wire sizes: about 1.3 in all, gated at 1.5. Before
// each section was captured into the frame, the collector encoded it
// into a buffer of its own and copied it out: 2.3. Before the session
// lent its frames, Data was decoded as a copy: 3.3. The copies this
// path made before it wrote a reply once and read it once came to about
// 7.4: the snapshot marshalled into a string, the frame received into a
// buffer of its own, Data copied to bytes to parse; with version 1's
// rows the same command allocated 7.65 of its 1.5 MB wire sizes, and
// before the stats path was made linear over 16: buffers grown by
// reallocation, the message encoded and then framed, the sections
// copied out of a copy, every process row decoded to be counted.
func TestStatsRoundTripNoAllocBeyondCopies(t *testing.T) {
	c, ctl, _ := newSystem(t)
	red, _ := c.Machine("red")
	coll := live.NewCollector(live.Config{Obs: red.Obs()})
	defer coll.Close()
	const procs = 16384
	tap := coll.NewTap()
	m := &store.Meta{Type: uint32(meter.EvTermProc)}
	var rec trace.Slots
	// Every record lies within one reordering window, so no process
	// retires and the reply carries all of them.
	for i := 0; i < procs; i++ {
		m.Machine, m.Time, m.PID = uint16(i%6), uint32(100+(i*7919)%1500), uint32(1+(i*7919)%procs)
		rec.Reset(int64(i % 90))
		tap.TapRecord(m, &rec)
	}
	tap.TapFlush()

	ctl.Exec("stats red") // the session comes up; the collector's cells are put in order
	// Two replies lent at once leave the frame free list the two arrays
	// a stats takes when its send and its receipt overlap; otherwise the
	// first overlap inside the runs allocates a third (2.6 wire sizes).
	release(ctl.broadcast([]string{"red", "red"}, &daemon.StatsReq{UID: ctl.uid}))
	replyBytes := red.Obs().Counter("daemon.stats_reply_bytes")
	const calls = 4
	var before, after runtime.MemStats
	sent := replyBytes.Load()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ctl.Exec("stats red")
	}
	runtime.ReadMemStats(&after)
	wire := float64(replyBytes.Load()-sent) / calls
	// The gate is only as good as the reply is large: it must carry a
	// row for every process in both big sections.
	res := ctl.broadcast([]string{"red"}, &daemon.StatsReq{UID: ctl.uid})
	if len(res) != 1 || res[0].Err != nil || !res[0].Rep.OK() {
		t.Fatalf("stats request: %+v", res)
	}
	snap, err := obs.ParseSnapshot([]byte(res[0].Rep.Data))
	if err != nil {
		t.Fatal(err)
	}
	comm, err := live.DecodeComm(snap.Section(live.SectionComm).Data)
	if err != nil {
		t.Fatal(err)
	}
	par, err := live.DecodePar(snap.Section(live.SectionPar).Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comm.Procs) != procs || len(par.Procs) != procs {
		t.Fatalf("a stats reply carries %d and %d process rows, want %d each", len(comm.Procs), len(par.Procs), procs)
	}
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.2f wire sizes (of %.0f bytes) allocated per stats", perCall/wire, wire)
	if perCall > 1.5*wire {
		t.Errorf("one stats allocates %.2f times its %.0f-byte snapshot, want at most 1.5", perCall/wire, wire)
	}
}

// TestStatsNoAllocGrowthWithAge gates what a `stats` costs as a filter
// ages: a collector fed 60 000 short terminated processes replies with,
// and allocates for, what it did after 1 000. Process i runs on machine
// i%6, makes one receive call and terminates 30 ms later, and cpuTime
// advances 5 ms a process, so both runs pass the reordering window, and
// both stop 25 processes after a settle: the same number of processes
// is open, and the rest are summed per machine.
func TestStatsNoAllocGrowthWithAge(t *testing.T) {
	c, ctl, out := newSystem(t)
	red, _ := c.Machine("red")
	coll := live.NewCollector(live.Config{Obs: red.Obs()})
	defer coll.Close()
	tap := coll.NewTap()
	var (
		m   store.Meta
		rec trace.Slots
	)
	var fed int
	feed := func(to int) {
		for ; fed < to; fed++ {
			m.Machine, m.PID = uint16(fed%6), uint32(100+fed)
			rec.Reset(int64(fed % 90))
			for _, ev := range []struct {
				ty meter.Type
				at int
			}{{meter.EvRecvCall, 100}, {meter.EvTermProc, 130}} {
				m.Time, m.Type = uint32(ev.at+5*fed), uint32(ev.ty)
				tap.TapRecord(&m, &rec)
			}
			tap.TapFlush()
		}
	}
	replyBytes := red.Obs().Counter("daemon.stats_reply_bytes")
	cost := func() (wire, alloc float64, text string) {
		const calls = 24
		ctl.Exec("stats red")
		out.mu.Lock()
		out.buf.Reset()
		out.buf.Grow(1 << 20)
		out.mu.Unlock()
		var before, after runtime.MemStats
		sent := replyBytes.Load()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			ctl.Exec("stats red")
		}
		runtime.ReadMemStats(&after)
		return float64(replyBytes.Load()-sent) / calls, float64(after.TotalAlloc-before.TotalAlloc) / calls, out.String()
	}
	feed(1000)
	youngWire, youngAlloc, _ := cost()
	feed(60000)
	oldWire, oldAlloc, text := cost()
	t.Logf("after 1 000 processes: %.0f bytes sent and %.0f allocated per stats; after 60 000: %.0f and %.0f",
		youngWire, youngAlloc, oldWire, oldAlloc)
	if oldWire > 1.1*youngWire {
		t.Errorf("a stats reply grew from %.0f to %.0f bytes, want at most 10%% more", youngWire, oldWire)
	}
	if oldAlloc > 1.1*youngAlloc {
		t.Errorf("a stats allocates %.0f bytes after 60 000 processes, %.0f after 1 000; want at most 10%% more", oldAlloc, youngAlloc)
	}
	for _, want := range []string{"live communication: 120000 events, 60000 procs,", "live parallelism: 60000 procs (0 running)"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats lacks %q:\n%s", want, text)
		}
	}
	if seen, _ := red.Obs().Snapshot().Get("live.procs_seen"); seen != 60000 {
		t.Errorf("live.procs_seen %d, want 60000", seen)
	}
}

// newCluster is newSystem with n machines, m0 to m(n-1), the
// controller on the last.
func newCluster(t *testing.T, n int) (*kernel.Cluster, *Controller, *syncWriter) {
	t.Helper()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	for i := 0; i < n; i++ {
		m, err := c.AddMachine(fmt.Sprintf("m%d", i), nil, "ether0")
		if err != nil {
			t.Fatal(err)
		}
		m.AddAccount(testUID, "user")
		if _, err := daemon.Install(c, m); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(c.Shutdown)
	out := &syncWriter{}
	ctl, err := New(c, fmt.Sprintf("m%d", n-1), testUID, out)
	if err != nil {
		t.Fatal(err)
	}
	return c, ctl, out
}

// feedLive gives machine m a live collector that has seen a few
// processes exchange datagrams, some of them on the same (machine, pid)
// as another machine's, so that a cluster-wide stats merges sections.
func feedLive(t *testing.T, m *kernel.Machine, i int) {
	t.Helper()
	coll := live.NewCollector(live.Config{Obs: m.Obs()})
	t.Cleanup(coll.Close)
	tap := coll.NewTap()
	// pid, sock, msgLength and destName at their places in SEND's
	// stored order.
	send := &store.Meta{Type: uint32(meter.EvSend)}
	var rec trace.Slots
	for p := 0; p < 6; p++ {
		send.Machine, send.Time, send.PID = uint16(i%4), uint32(100+10*p), uint32(10+p)
		rec.Reset(0)
		rec.SetVal(0, uint64(10+p))
		rec.SetVal(2, 3)
		rec.SetVal(3, 64)
		rec.SetName(5, meter.Name{2, 0, byte(p), byte(i)})
		tap.TapRecord(send, &rec)
	}
	tap.TapFlush()
}

// TestStatsClusterNoAllocBeyondReport gates what one cluster-wide
// `stats` of twelve small machines allocates against the length of the
// report it prints. Each registry holds what its daemon and kernel
// register; three machines also have live sections, which the report
// merges. The report path — the twelve replies merged and rendered
// where they landed, into the report's buffer — allocates at most twice
// the report: the buffer is one length, and no snapshot is built of any
// reply. The whole command, the round trips to twelve daemons included,
// allocates at most seven times the report, not twice: each round trip
// costs its Reply, the one copy of its snapshot's bytes, the handler's
// copy of the request and the goroutines on either end, about 1.2 kB a
// machine. It read 6.0 to 6.3 times; 8.7 when a message and field list
// stood between each request or reply and its frame, and 31 before the
// report was rendered from the replies' bytes.
func TestStatsClusterNoAllocBeyondReport(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	c, ctl, out := newCluster(t, 12)
	var targets []string
	for i, m := range c.Machines() {
		if i < 3 {
			feedLive(t, m, i)
		}
		targets = append(targets, m.Name())
	}
	for i := 0; i < 4; i++ {
		ctl.Exec("stats") // sessions up, free lists and frame sizes warm
	}
	const calls = 24
	out.mu.Lock()
	out.buf.Reset()
	out.buf.Grow(1 << 20)
	out.mu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ctl.Exec("stats")
	}
	runtime.ReadMemStats(&after)
	text := out.String()
	report := float64(len(text)) / calls
	if !strings.Contains(text, "stats: 12/12 machines reporting") || !strings.Contains(text, "live communication: 18 events, ") ||
		strings.Contains(text, "WARNING") {
		t.Fatalf("cluster stats:\n%s", text[:len(text)/calls])
	}
	command := float64(after.TotalAlloc-before.TotalAlloc) / calls

	// The report path is the least of five windows: MemStats counts
	// what every goroutine allocates, and the cluster's heartbeats and
	// live collectors only ever add to a window, most to one that a
	// loaded host stretches.
	res := ctl.broadcast(targets, &daemon.StatsReq{UID: ctl.uid})
	defer release(res)
	path := math.Inf(1)
	for w := 0; w < 5; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			var buf bytes.Buffer
			buf.Grow(int(report) + int(report)/16) // as cmdStats sizes it
			statsReport(&buf, targets, res)
		}
		runtime.ReadMemStats(&after)
		path = min(path, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	t.Logf("a %.0f-byte report: the command allocates %.0f bytes (%.2f times), the report path %.0f (%.2f times)",
		report, command, command/report, path, path/report)
	if path > 2*report {
		t.Errorf("merging and rendering twelve replies allocates %.0f bytes, %.2f times the %.0f-byte report; want at most 2", path, path/report, report)
	}
	if command > 7*report {
		t.Errorf("one cluster stats allocates %.0f bytes, %.2f times its %.0f-byte report; want at most 7", command, command/report, report)
	}
}

// TestConcurrentStats runs cluster-wide stats commands on one
// controller from several goroutines at once, as a workload that polls
// beside its queries does: every report is whole and agrees with the
// others on what does not move.
func TestConcurrentStats(t *testing.T) {
	c, ctl, _ := newCluster(t, 6)
	for i, m := range c.Machines() {
		feedLive(t, m, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var buf bytes.Buffer
				res := ctl.broadcast([]string{"m0", "m1", "m2", "m3", "m4", "m5"}, &daemon.StatsReq{UID: ctl.uid})
				statsReport(&buf, []string{"m0", "m1", "m2", "m3", "m4", "m5"}, res)
				release(res)
				text := buf.String()
				if !strings.Contains(text, "stats: 6/6 machines reporting") ||
					!strings.Contains(text, "live communication: 36 events, 24 procs, sends 36 (2304 B)") {
					t.Errorf("concurrent stats:\n%s", text)
					return
				}
			}
		}()
	}
	wg.Wait()
}
