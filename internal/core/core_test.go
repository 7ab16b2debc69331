package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/analysis/live"
	"dpm/internal/controller"
	"dpm/internal/daemon"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// testOut is a threadsafe writer for controller output.
type testOut struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *testOut) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *testOut) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func (w *testOut) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Reset()
}

const pongPort = 7000

// registerPingPong installs a stream client/server pair: ponger
// listens, echoes one message with a reply prefix, and exits; pinger
// connects (with retry while the server comes up), sends, awaits the
// reply, and exits.
func registerPingPong(t *testing.T, s *System) {
	t.Helper()
	if err := s.RegisterWorkload("ponger", func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return 1
		}
		if err := p.BindPort(lfd, pongPort); err != nil {
			return 1
		}
		if err := p.Listen(lfd, 4); err != nil {
			return 1
		}
		cfd, _, err := p.Accept(lfd)
		if err != nil {
			return 1
		}
		data, err := p.Recv(cfd, 256)
		if err != nil {
			return 1
		}
		p.Compute(20 * time.Millisecond)
		if _, err := p.Send(cfd, append([]byte("re: "), data...)); err != nil {
			return 1
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWorkload("pinger", func(p *kernel.Process) int {
		args := p.Args()
		server := "green"
		if len(args) > 0 {
			server = args[0]
		}
		host, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), server)
		if err != nil {
			return 1
		}
		name := meter.InetName(host, pongPort)
		var fd int
		for i := 0; ; i++ {
			fd, err = p.Socket(meter.AFInet, kernel.SockStream)
			if err != nil {
				return 1
			}
			if err = p.Connect(fd, name); err == nil {
				break
			}
			_ = p.Close(fd)
			if i > 5000 {
				return 1
			}
			time.Sleep(time.Millisecond)
		}
		p.Compute(30 * time.Millisecond)
		if _, err := p.Send(fd, []byte("hello")); err != nil {
			return 1
		}
		if _, err := p.Recv(fd, 256); err != nil {
			return 1
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
}

func newTestSystem(t *testing.T) (*System, *controller.Controller, *testOut) {
	t.Helper()
	s, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	checkConserved(t, s)
	registerPingPong(t, s)
	out := &testOut{}
	ctl, err := s.NewController("yellow", out)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl, out
}

// checkConserved has the test end by checking that the counters of
// every machine of s, merged, keep obs's conservation table. A snapshot
// can catch a flush or a query between a law's sides, so a residual
// must last two seconds to fail the test.
func checkConserved(t *testing.T, s *System) {
	t.Cleanup(func() {
		var r []obs.NamedValue
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			merged := &obs.Snapshot{}
			for _, m := range s.Cluster.Machines() {
				merged.Merge(m.Obs().Snapshot())
			}
			if r = merged.Residuals(); len(r) == 0 {
				return
			}
		}
		t.Errorf("conservation laws broken at the end of the test: %v", r)
	})
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func jobDone(ctl *controller.Controller, job string) func() bool {
	return func() bool {
		for _, j := range ctl.Jobs() {
			if j.Name != job {
				continue
			}
			for _, p := range j.Procs {
				if p.State != controller.StateKilled {
					return false
				}
			}
			return true
		}
		return false
	}
}

// TestPipelineStages reproduces Figure 2.1: metering extracts events
// in the kernel, filtering selects and stores them, and analysis
// extracts information from the collected data — three separable
// stages exercised end to end.
func TestPipelineStages(t *testing.T) {
	s, ctl, _ := newTestSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo green ponger")
	ctl.Exec("addprocess foo red pinger green")
	ctl.Exec("setflags foo all")
	ctl.Exec("startjob foo")
	waitFor(t, "job completion", jobDone(ctl, "foo"))

	// Stage 2 output: the filter's log on blue.
	waitFor(t, "trace to fill", func() bool {
		evs, err := s.ReadTrace("blue", "f1")
		if err != nil {
			return false
		}
		term := 0
		for _, e := range evs {
			if e.Type == meter.EvTermProc {
				term++
			}
		}
		return term >= 2
	})
	events, err := s.ReadTrace("blue", "f1")
	if err != nil {
		t.Fatal(err)
	}

	// Stage 3: every analysis produces sensible results.
	st := analysis.Comm(events)
	if st.Sends < 2 || st.Recvs < 2 {
		t.Fatalf("comm stats = %+v", st)
	}
	conns := analysis.MatchTrace(events, nil).Conns
	if len(conns) != 1 {
		t.Fatalf("connections = %+v", conns)
	}
	matches := analysis.MatchTrace(events, s.MatchOptions()).Matches
	if len(matches) < 2 {
		t.Fatalf("matches = %+v", matches)
	}
	order, err := analysis.HappenedBefore(events, &analysis.Matching{Matches: matches, Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	if frac := order.OrderedFraction(); frac < 0.5 {
		t.Fatalf("ordered fraction = %v", frac)
	}
	rec := analysis.RecoverRecipients(events, analysis.MatchTrace(events, nil).Conns)
	if len(rec) < 2 {
		t.Fatalf("recovered recipients = %v", rec)
	}
	g := analysis.Structure(events, analysis.MatchTrace(events, s.MatchOptions()))
	if len(g.Procs) != 2 || len(g.Edges) < 2 {
		t.Fatalf("structure = %+v", g)
	}

	// The live operators attached to the filter agree with the offline
	// analysis of the filter's own log — the streaming counterpart of
	// stage 3, computed as the records flowed through. Poll until the
	// asynchronous log sink catches up with the taps.
	blue, err := s.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live/offline convergence", func() bool {
		evs, rerr := s.ReadTrace("blue", "f1")
		if rerr != nil {
			return false
		}
		sec := blue.Obs().Snapshot().Section(live.SectionComm)
		if sec == nil {
			return false
		}
		lc, derr := live.DecodeComm(sec.Data)
		if derr != nil {
			t.Fatalf("live comm: %v", derr)
		}
		off := analysis.Comm(evs)
		return lc.Events == int64(off.Events) && lc.Sends == int64(off.Sends) &&
			lc.Recvs == int64(off.Recvs) && lc.BytesSent == off.BytesSent &&
			lc.BytesRecvd == off.BytesRecvd
	})
	sec := blue.Obs().Snapshot().Section(live.SectionPar)
	if sec == nil {
		t.Fatal("no live.par section on blue")
	}
	lp, err := live.DecodePar(sec.Data)
	if err != nil {
		t.Fatal(err)
	}
	events, err = s.ReadTrace("blue", "f1")
	if err != nil {
		t.Fatal(err)
	}
	curve, off := lp.Curve(), analysis.MeasureParallelism(events)
	if curve.Processes != off.Processes || curve.TotalCPUMillis != off.TotalCPUMillis ||
		curve.MakespanMillis != off.MakespanMillis {
		t.Fatalf("live curve %+v, offline %+v", curve, off)
	}
}

// TestTopology reproduces Figure 3.1: during a metering session the
// live structure is metered processes with hidden meter connections,
// a filter process receiving them, meterdaemons on each machine, and
// the control process.
func TestTopology(t *testing.T) {
	s, ctl, _ := newTestSystem(t)
	// Daemons listen on every machine.
	for _, mn := range []string{"red", "green", "blue", "yellow"} {
		m, _ := s.Machine(mn)
		if !m.PortBound(kernel.SockStream, daemon.Port) {
			t.Fatalf("no meterdaemon listening on %s", mn)
		}
	}
	ctl.Exec("filter f1 blue")
	blue, _ := s.Machine("blue")
	fpid := ctl.Filters()[0].PID
	if _, err := blue.Proc(fpid); err != nil {
		t.Fatal("filter process not running on blue")
	}
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo green ponger")
	green, _ := s.Machine("green")
	procPID := ctl.Jobs()[0].Procs[0].PID
	proc, err := green.Proc(procPID)
	if err != nil {
		t.Fatal(err)
	}
	// The meter connection exists and is invisible to the process.
	msid := proc.MeterSocketID()
	if msid == 0 {
		t.Fatal("metered process has no meter socket")
	}
	if proc.HasSocketFD(msid) {
		t.Fatal("meter socket visible in descriptor table")
	}
	// Kill the suspended process via its daemon so shutdown is clean.
	ctl.Exec("stopjob foo")
	ctl.Exec("removejob foo")
}

// TestSessionStages walks the Figures 4.3–4.6 progression: filter
// creation, process A, process B, then communication under metering.
func TestSessionStages(t *testing.T) {
	s, ctl, _ := newTestSystem(t)

	// Figure 4.3: filter created on blue.
	ctl.Exec("filter f1 blue")
	blue, _ := s.Machine("blue")
	waitFor(t, "filter port", func() bool {
		return blue.PortBound(kernel.SockStream, ctl.Filters()[0].Port)
	})

	// Figure 4.4: process A created (suspended) on red.
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red pinger green")
	if st := ctl.Jobs()[0].Procs[0].State; st != controller.StateNew {
		t.Fatalf("A state = %v, want new", st)
	}

	// Figure 4.5: process B added on green.
	ctl.Exec("addprocess foo green ponger")
	if n := len(ctl.Jobs()[0].Procs); n != 2 {
		t.Fatalf("%d processes", n)
	}

	// Figure 4.6: metering set, processes run, meter messages flow to
	// the filter.
	ctl.Exec("setflags foo send receive accept connect")
	ctl.Exec("startjob foo")
	waitFor(t, "completion", jobDone(ctl, "foo"))
	waitFor(t, "trace", func() bool {
		evs, err := s.ReadTrace("blue", "f1")
		return err == nil && len(evs) >= 6
	})
	events, _ := s.ReadTrace("blue", "f1")
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Event)
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"CONNECT", "ACCEPT", "SEND", "RECEIVE"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace lacks %s: %s", want, joined)
		}
	}
}

// TestFilterPlacement reproduces the section 3.4 flexibility claims: a
// filter may run on a machine disjoint from the computation, and one
// filter may collect data from several computations.
func TestFilterPlacement(t *testing.T) {
	s, ctl, _ := newTestSystem(t)
	// blue runs only the filter; the computation is on red and green.
	ctl.Exec("filter shared blue")
	ctl.Exec("newjob one")
	ctl.Exec("newjob two")
	for _, job := range []string{"one", "two"} {
		ctl.Exec("setflags " + job + " send receive")
	}
	ctl.Exec("addprocess one green ponger")
	ctl.Exec("addprocess one red pinger green")
	ctl.Exec("startjob one")
	waitFor(t, "job one", jobDone(ctl, "one"))
	// A second computation into the same filter: ponger runs on red
	// this time.
	ctl.Exec("addprocess two red ponger")
	ctl.Exec("addprocess two yellow pinger red")
	ctl.Exec("startjob two")
	waitFor(t, "job two", jobDone(ctl, "two"))

	waitFor(t, "combined trace", func() bool {
		evs, err := s.ReadTrace("blue", "shared")
		if err != nil {
			return false
		}
		machines := make(map[int]bool)
		for _, e := range evs {
			machines[e.Machine] = true
		}
		return len(machines) >= 3
	})
}

func TestMultiNetworkMeteringEndToEnd(t *testing.T) {
	// A multi-homed gateway carries the filter; the computation runs
	// on a machine that reaches the gateway only through netA while
	// the controller sits on netB. Socket-name resolution must build
	// per-network addresses (the section 3.5.4 rule) through the whole
	// stack.
	s, err := NewSystem(Config{
		Machines: []string{"alpha", "gw", "beta"},
		Networks: map[string][]string{
			"netA": {"alpha", "gw"},
			"netB": {"gw", "beta"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	checkConserved(t, s)
	registerPingPong(t, s)
	// The gateway has two host ids.
	gw, _ := s.Machine("gw")
	alpha, _ := s.Machine("alpha")
	beta, _ := s.Machine("beta")
	if gw.PrimaryHostID() == alpha.PrimaryHostID() || alpha.PrimaryHostID() == beta.PrimaryHostID() {
		t.Fatal("host ids not distinct")
	}

	out := &testOut{}
	ctl, err := s.NewController("beta", out)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f1 gw")
	ctl.Exec("newjob x")
	ctl.Exec("setflags x all")
	ctl.Exec("addprocess x gw ponger")
	ctl.Exec("addprocess x alpha pinger gw")
	ctl.Exec("startjob x")
	waitFor(t, "multi-network job", jobDone(ctl, "x"))
	events, err := s.WaitTrace("gw", "f1", 10*time.Second, TermCount(2))
	if err != nil {
		t.Fatal(err)
	}
	st := analysis.Comm(events)
	if st.Sends < 2 || st.Recvs < 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The analysis host map handles the gateway's primary address.
	if len(analysis.MatchTrace(events, nil).Conns) != 1 {
		t.Fatalf("connections = %+v", analysis.MatchTrace(events, nil).Conns)
	}
}

func TestClockSkewDefault(t *testing.T) {
	s, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	red, _ := s.Machine("red")
	green, _ := s.Machine("green")
	if red.Clock().Now() == green.Clock().Now() {
		t.Fatal("default clocks perfectly synchronized; skew expected")
	}
	s2, err := NewSystem(Config{Machines: []string{"a", "b"}, PerfectClocks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	a, _ := s2.Machine("a")
	b, _ := s2.Machine("b")
	if a.Clock().Now() != b.Clock().Now() {
		t.Fatal("PerfectClocks still skewed")
	}
}

func TestRunScript(t *testing.T) {
	_, ctl, out := newTestSystem(t)
	err := RunScript(ctl, []string{"filter f1 blue", "newjob foo", "die"})
	if err != nil {
		t.Fatal(err)
	}
	if !ctl.Closed() {
		t.Fatal("script die did not close controller")
	}
	if !strings.Contains(out.String(), "filter 'f1' ... created") {
		t.Fatalf("output = %q", out.String())
	}
	// A script without die reports an error.
	s2, err := NewSystem(Config{Machines: []string{"m1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	ctl2, err := s2.NewController("m1", &testOut{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunScript(ctl2, []string{"help"}); err == nil {
		t.Fatal("script without die succeeded")
	}
}

func TestNewSystemBadConfig(t *testing.T) {
	// A network naming an unknown machine.
	if _, err := NewSystem(Config{
		Machines: []string{"a"},
		Networks: map[string][]string{"net": {"a", "ghost"}},
	}); err == nil {
		t.Fatal("unknown machine in network accepted")
	}
	// Duplicate machine names.
	if _, err := NewSystem(Config{Machines: []string{"a", "a"}}); err == nil {
		t.Fatal("duplicate machine accepted")
	}
}

func TestReadTraceErrors(t *testing.T) {
	s, err := NewSystem(Config{Machines: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if _, err := s.ReadTrace("ghost", "f"); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := s.ReadTrace("m", "nofilter"); err == nil {
		t.Fatal("missing log accepted")
	}
}

func TestRegisterWorkloadUnknownMachine(t *testing.T) {
	s, err := NewSystem(Config{Machines: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if err := s.RegisterWorkload("x", func(*kernel.Process) int { return 0 }, "ghost"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestWaitJobUnknownTimesOut(t *testing.T) {
	_, ctl, _ := newTestSystem(t)
	if err := WaitJob(ctl, "nonexistent", 50*time.Millisecond); err == nil {
		t.Fatal("WaitJob for unknown job succeeded")
	}
}

func TestWaitTraceTimeout(t *testing.T) {
	s, _, _ := newTestSystem(t)
	if _, err := s.WaitTrace("blue", "nofilter", 50*time.Millisecond, TermCount(1)); err == nil {
		t.Fatal("WaitTrace for missing log succeeded")
	}
}

func TestTermCountPredicate(t *testing.T) {
	pred := TermCount(2)
	var evs []trace.Event
	if pred(evs) {
		t.Fatal("empty trace satisfied TermCount(2)")
	}
	for i := 0; i < 2; i++ {
		evs = append(evs, trace.Event{Type: meter.EvTermProc})
	}
	if !pred(evs) {
		t.Fatal("two termprocs did not satisfy TermCount(2)")
	}
}

func TestRegisterWorkloadSelectedMachines(t *testing.T) {
	s, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if err := s.RegisterWorkload("only-red", func(*kernel.Process) int { return 0 }, "red"); err != nil {
		t.Fatal(err)
	}
	red, _ := s.Machine("red")
	green, _ := s.Machine("green")
	if !red.FS().Exists("/bin/only-red") {
		t.Fatal("missing on red")
	}
	if green.FS().Exists("/bin/only-red") {
		t.Fatal("present on green")
	}
}
