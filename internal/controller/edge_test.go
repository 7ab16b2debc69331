package controller

import (
	"strconv"
	"strings"
	"testing"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

func TestCommandsOnUnknownJob(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	for _, cmd := range []string{
		"addprocess nojob red A",
		"acquire nojob red 5",
		"setflags nojob send",
		"startjob nojob",
		"stopjob nojob",
		"removejob nojob",
		"removeprocess nojob red 5",
	} {
		ctl.Exec(cmd)
	}
	if got := strings.Count(out.String(), "no job 'nojob'"); got != 7 {
		t.Fatalf("%d 'no job' messages:\n%s", got, out.String())
	}
}

func TestUsageMessages(t *testing.T) {
	_, ctl, out := newSystem(t)
	for _, cmd := range []string{
		"newjob",
		"addprocess onlyjob",
		"acquire a b",
		"setflags onlyjob",
		"startjob",
		"stopjob",
		"removejob",
		"removeprocess a b",
		"getlog onlyone",
		"source",
	} {
		ctl.Exec(cmd)
	}
	if got := strings.Count(out.String(), "usage:"); got != 10 {
		t.Fatalf("%d usage messages:\n%s", got, out.String())
	}
}

func TestAddProcessUnknownMachine(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("addprocess j mars A")
	if !strings.Contains(out.String(), "not created") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestAcquireUnknownPid(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("acquire j red 98765")
	if !strings.Contains(out.String(), "not acquired") {
		t.Fatalf("output = %q", out.String())
	}
	ctl.Exec("acquire j red notanumber")
	if !strings.Contains(out.String(), "bad process identifier") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestGetLogBeforeAnyTrace(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("getlog f1 dest")
	if !strings.Contains(out.String(), "getlog:") {
		t.Fatalf("output = %q", out.String())
	}
	ctl.Exec("getlog nosuch dest")
	if !strings.Contains(out.String(), "no filter 'nosuch'") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestSetFlagsBadFlag(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("setflags j bogusflag")
	if !strings.Contains(out.String(), "unknown flag") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestFilterOnUnknownMachine(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 mars")
	if !strings.Contains(out.String(), "not created") {
		t.Fatalf("output = %q", out.String())
	}
	if len(ctl.Filters()) != 0 {
		t.Fatal("failed filter recorded")
	}
}

func TestFilterWithExplicitFiles(t *testing.T) {
	// The five-argument form: filter name machine filterfile
	// descriptions templates (section 4.3). A selective template keeps
	// only send events.
	c, ctl, _ := newSystem(t)
	blue, _ := c.Machine("blue")
	if err := blue.FS().Create("/etc/sendonly", testUID, fsys.DefaultMode, []byte("type=1\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter fsel blue /bin/filter /etc/meter/descriptions /etc/sendonly")
	if len(ctl.Filters()) != 1 {
		t.Fatal("filter not created")
	}
	ctl.Exec("newjob j")
	ctl.Exec("setflags j all")
	ctl.Exec("addprocess j red A green")
	ctl.Exec("addprocess j green B")
	ctl.Exec("startjob j")
	waitFor(t, "job", jobDone(ctl, "j"))
	waitFor(t, "selective trace", func() bool {
		data, err := blue.FS().Read("/usr/tmp/fsel.log", 0)
		if err != nil || len(data) == 0 {
			return false
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if !strings.HasPrefix(line, "SEND ") {
				t.Fatalf("non-send record with send-only template: %q", line)
			}
		}
		return true
	})
}

func TestStopJobIgnoresAcquired(t *testing.T) {
	c, ctl, out := newSystem(t)
	red, _ := c.Machine("red")
	victim, err := red.SpawnDetached(testUID, "server")
	if err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("acquire j red " + strconv.Itoa(victim.PID()))
	ctl.Exec("stopjob j")
	if !strings.Contains(out.String(), "not stopped (acquired)") {
		t.Fatalf("output = %q", out.String())
	}
	// And startjob cannot start it either.
	ctl.Exec("startjob j")
	if !strings.Contains(out.String(), "not started (acquired)") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestPsListsProcesses(t *testing.T) {
	c, ctl, out := newSystem(t)
	red, _ := c.Machine("red")
	server, err := red.SpawnDetached(testUID, "someserver")
	if err != nil {
		t.Fatal(err)
	}
	ctl.Exec("ps red")
	text := out.String()
	if !strings.Contains(text, strconv.Itoa(server.PID())+" "+strconv.Itoa(testUID)+" someserver") {
		t.Fatalf("ps output lacks server:\n%s", text)
	}
	if !strings.Contains(text, "meterdaemon") {
		t.Fatalf("ps output lacks daemon:\n%s", text)
	}
	ctl.Exec("ps mars")
	if !strings.Contains(out.String(), "ps: ") {
		t.Fatal("ps of unknown machine did not error")
	}
	ctl.Exec("ps")
	if !strings.Contains(out.String(), "usage: ps") {
		t.Fatal("no usage message")
	}
}

func TestStdinRoundTrip(t *testing.T) {
	// The full interactive loop of section 3.5.2: user input flows
	// controller → daemon → process stdin; the process's reply flows
	// stdout → gateway → daemon → controller.
	c, ctl, out := newSystem(t)
	c.RegisterProgram("parrot", func(p *kernel.Process) int {
		data, err := p.Read(0, 256)
		if err != nil {
			return 1
		}
		p.Printf("parrot says: %s", data)
		return 0
	})
	red, _ := c.Machine("red")
	if err := red.FS().CreateExecutable("/bin/parrot", testUID, "parrot"); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob talk")
	ctl.Exec("addprocess talk red parrot")
	pid := ctl.Jobs()[0].Procs[0].PID
	ctl.Exec("startjob talk")
	ctl.Exec("stdin talk red " + strconv.Itoa(pid) + " hello there")
	waitFor(t, "parrot reply", func() bool {
		return strings.Contains(out.String(), "parrot says: hello there")
	})
	waitFor(t, "parrot exit", jobDone(ctl, "talk"))
}

func TestStdinErrors(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("stdin j red 99 hi")
	if !strings.Contains(out.String(), "no process 99") {
		t.Fatalf("output = %q", out.String())
	}
	ctl.Exec("stdin j red notanumber hi")
	if !strings.Contains(out.String(), "bad process identifier") {
		t.Fatalf("output = %q", out.String())
	}
	ctl.Exec("stdin j red")
	if !strings.Contains(out.String(), "usage: stdin") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestStdinToAcquiredProcessRefused(t *testing.T) {
	// An acquired process was not created by the daemon; its stdio is
	// untouched ("no changes are made to the handling of the
	// processes' I/O", section 3.5.2), so stdin forwarding must be
	// refused, not misdelivered.
	c, ctl, out := newSystem(t)
	red, _ := c.Machine("red")
	server, err := red.SpawnDetached(testUID, "srv")
	if err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("acquire j red " + strconv.Itoa(server.PID()))
	ctl.Exec("stdin j red " + strconv.Itoa(server.PID()) + " boo")
	if !strings.Contains(out.String(), "not created by this meterdaemon") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestJobsUnknownName(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.Exec("jobs ghost")
	if !strings.Contains(out.String(), "no job 'ghost'") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestSinkAppendsAcrossCommands(t *testing.T) {
	c, ctl, _ := newSystem(t)
	yellow, _ := c.Machine("yellow")
	ctl.Exec("sink /usr/log1")
	ctl.Exec("filter f1 blue")
	ctl.Exec("filter f1 blue") // duplicate: second message
	ctl.Exec("sink")
	data, err := yellow.FS().Read("/usr/log1", testUID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "created") || !strings.Contains(string(data), "already exists") {
		t.Fatalf("sink file = %q", data)
	}
}

func TestMeterFlagsReachKernel(t *testing.T) {
	// setflags on a job must change the actual kernel flag mask of its
	// processes.
	c, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("addprocess j red A green")
	red, _ := c.Machine("red")
	pid := ctl.Jobs()[0].Procs[0].PID
	proc, err := red.Proc(pid)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Exec("setflags j send accept")
	if got := proc.MeterFlags(); got != meter.MSend|meter.MAccept {
		t.Fatalf("kernel flags = %b", got)
	}
	ctl.Exec("setflags j -accept fork")
	if got := proc.MeterFlags(); got != meter.MSend|meter.MFork {
		t.Fatalf("kernel flags = %b", got)
	}
	ctl.Exec("stopjob j")
	ctl.Exec("removejob j")
}

// TestCreateCyclesLeakNothing: a meterdaemon that has created, run and
// seen off three hundred processes holds the descriptors and the
// machine the bound datagram ports they had before the first — the
// per-child gateway socket (section 3.5.2) lives as long as the child,
// not as long as the daemon.
func TestCreateCyclesLeakNothing(t *testing.T) {
	c, ctl, _ := newSystem(t)
	c.RegisterProgram("quick", func(p *kernel.Process) int { return 0 })
	red, _ := c.Machine("red")
	if err := red.FS().CreateExecutable("/bin/quick", testUID, "quick"); err != nil {
		t.Fatal(err)
	}
	var md *kernel.Process
	for _, p := range red.Procs() {
		if p.Name() == "meterdaemon" {
			md = p
		}
	}
	if md == nil {
		t.Fatal("no meterdaemon on red")
	}
	dgramPorts := func() int {
		n := 0
		for port := 1; port <= 0xffff; port++ {
			if red.PortBound(kernel.SockDgram, uint16(port)) {
				n++
			}
		}
		return n
	}
	ctl.Exec("filter f1 blue")
	cycle := func() {
		ctl.Exec("newjob j")
		ctl.Exec("addprocess j red quick")
		ctl.Exec("startjob j")
		waitFor(t, "quick to exit", jobDone(ctl, "j"))
		ctl.Exec("removejob j")
	}
	cycle() // the daemon's session and notification connections come up
	fds, ports := md.NumFDs(), dgramPorts()
	for i := 0; i < 300; i++ {
		cycle()
	}
	waitFor(t, "descriptors and ports to return to baseline", func() bool {
		return md.NumFDs() == fds && dgramPorts() == ports
	})
}
