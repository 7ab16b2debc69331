package daemon

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

const testUID = 100

// testRig is a two-machine cluster with meterdaemons, the standard
// filter installed, and a controller-side detached process with a
// notification listener.
type testRig struct {
	t          *testing.T
	c          *kernel.Cluster
	red, green *kernel.Machine
	ctl        *kernel.Process // issues Exchange calls (on machine "yellow")
	yellow     *kernel.Machine
	notifyPort uint16
	notifyCh   chan any
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	green, err := c.AddMachine("green", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	yellow, err := c.AddMachine("yellow", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*kernel.Machine{red, green, yellow} {
		m.AddAccount(testUID, "user")
		if _, err := Install(c, m); err != nil {
			t.Fatal(err)
		}
		if err := filter.Install(c, m, 0); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(c.Shutdown)

	ctl, err := yellow.SpawnDetached(testUID, "controller")
	if err != nil {
		t.Fatal(err)
	}

	// Notification listener: a goroutine-driven detached process that
	// accepts daemon-initiated connections and surfaces their
	// messages.
	notify, err := yellow.SpawnDetached(testUID, "controller-notify")
	if err != nil {
		t.Fatal(err)
	}
	nfd, err := notify.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := notify.BindPort(nfd, 0); err != nil {
		t.Fatal(err)
	}
	if err := notify.Listen(nfd, 16); err != nil {
		t.Fatal(err)
	}
	nname, err := notify.SocketName(nfd)
	if err != nil {
		t.Fatal(err)
	}
	_, notifyPort := nname.Inet()

	// Daemons hold their notification connection open and send many
	// messages on it, so each accepted connection is drained until EOF
	// on its own goroutine.
	ch := make(chan any, 64)
	go func() {
		for {
			conn, _, err := notify.Accept(nfd)
			if err != nil {
				return
			}
			notify.Go(func() {
				defer func() { _ = notify.Close(conn) }()
				ReadNotices(notify, conn, func(sc StateChange) {
					// Its strings last only until this returns.
					sc.Machine, sc.Reason = strings.Clone(sc.Machine), strings.Clone(sc.Reason)
					ch <- sc
				}, func(d IOData) { ch <- d })
			})
		}
	}()

	return &testRig{t: t, c: c, red: red, green: green, yellow: yellow,
		ctl: ctl, notifyPort: notifyPort, notifyCh: ch}
}

// createFilter creates a standard filter process via the daemon on
// machine and returns its listen port.
func (r *testRig) createFilter(machine, name string, port uint16) int {
	r.t.Helper()
	req := &CreateReq{
		Filename: "/bin/filter",
		Params:   []string{name, strconv.Itoa(int(port))},
		UID:      0, // filters run as root in the rig (they own the standard files)
	}
	rep, err := Exchange(r.ctl, machine, req.Wire())
	if err != nil {
		r.t.Fatal(err)
	}
	if !rep.OK() {
		r.t.Fatalf("filter create failed: %s", rep.Status)
	}
	// The filter is created suspended; start it.
	r.signal(machine, rep.PID, 0, TStartReq)
	m, _ := r.c.Machine(machine)
	deadline := time.Now().Add(2 * time.Second)
	for !m.PortBound(kernel.SockStream, port) {
		if time.Now().After(deadline) {
			r.t.Fatal("filter never bound")
		}
		time.Sleep(time.Millisecond)
	}
	return rep.PID
}

func (r *testRig) signal(machine string, pid, uid int, typ MsgType) *Reply {
	r.t.Helper()
	rep, err := Exchange(r.ctl, machine, (&ProcReq{Type: typ, PID: pid, UID: uid}).Wire())
	if err != nil {
		r.t.Fatal(err)
	}
	return rep
}

// pingProgram registers a workload that sends one datagram message to
// itself and exits.
func registerPing(c *kernel.Cluster) {
	c.RegisterProgram("ping", func(p *kernel.Process) int {
		rfd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if err := p.BindPort(rfd, 0); err != nil {
			return 1
		}
		name, err := p.SocketName(rfd)
		if err != nil {
			return 1
		}
		sfd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if _, err := p.SendTo(sfd, []byte("ping"), name); err != nil {
			return 1
		}
		if _, err := p.Recv(rfd, 100); err != nil {
			return 1
		}
		return 0
	})
}

func TestRemoteCreateStartTerminate(t *testing.T) {
	// The Figure 3.5 scenario: the controller on machine yellow (here,
	// the rig's control process) drives process control on machine
	// red through red's meterdaemon.
	r := newRig(t)
	registerPing(r.c)
	if err := r.red.FS().CreateExecutable("/bin/ping", testUID, "ping"); err != nil {
		t.Fatal(err)
	}
	r.createFilter("green", "f1", 9000)

	req := &CreateReq{
		Filename:    "/bin/ping",
		FilterPort:  9000,
		FilterHost:  "green",
		MeterFlags:  uint32(meter.MAll | meter.MImmediate),
		ControlPort: r.notifyPort,
		ControlHost: "yellow",
		UID:         testUID,
	}
	rep, err := Exchange(r.ctl, "red", req.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.PID == 0 {
		t.Fatalf("create reply = %+v", rep)
	}

	// The process is suspended; no state change may arrive yet.
	select {
	case m := <-r.notifyCh:
		t.Fatalf("premature notification: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}

	if rep := r.signal("red", rep.PID, testUID, TStartReq); !rep.OK() {
		t.Fatalf("start failed: %s", rep.Status)
	}

	// Termination must be reported by a daemon-initiated connection.
	select {
	case m := <-r.notifyCh:
		sc, _ := m.(StateChange)
		if sc.Machine != "red" || sc.PID != rep.PID || sc.Reason != "normal" || sc.Status != 0 {
			t.Fatalf("state change = %+v", sc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no termination notification")
	}

	// The filter's log on green must contain the ping's events;
	// retrieve it with a getfile exchange as getlog would.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep, err := Exchange(r.ctl, "green", (&ProcReq{Type: TGetFileReq, UID: 0, Path: filter.LogPath("f1")}).Wire())
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() && strings.Contains(rep.Data, "SEND") && strings.Contains(rep.Data, "TERMPROC") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace incomplete: %+v", rep)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCreateMissingExecutable(t *testing.T) {
	r := newRig(t)
	rep, err := Exchange(r.ctl, "red", (&CreateReq{Filename: "/bin/nothing", UID: testUID}).Wire())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("create of missing executable succeeded")
	}
}

func TestCreateWithoutAccount(t *testing.T) {
	r := newRig(t)
	registerPing(r.c)
	if err := r.red.FS().CreateExecutable("/bin/ping", testUID, "ping"); err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&CreateReq{Filename: "/bin/ping", UID: 555}).Wire())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Status, "no account") {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestSignalPermissionDenied(t *testing.T) {
	r := newRig(t)
	registerPing(r.c)
	if err := r.red.FS().CreateExecutable("/bin/ping", testUID, "ping"); err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&CreateReq{Filename: "/bin/ping", UID: testUID}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("create: %v %+v", err, rep)
	}
	if got := r.signal("red", rep.PID, 555, TKillReq); got.OK() {
		t.Fatal("foreign uid killed another user's process")
	}
	if got := r.signal("red", rep.PID, testUID, TKillReq); !got.OK() {
		t.Fatalf("owner kill failed: %s", got.Status)
	}
}

func TestStopAndStartViaDaemon(t *testing.T) {
	r := newRig(t)
	// The spinner computes forever (virtual time costs no wall time);
	// only signals end it.
	r.c.RegisterProgram("spinner", func(p *kernel.Process) int {
		for {
			p.Compute(time.Millisecond)
		}
	})
	if err := r.red.FS().CreateExecutable("/bin/spinner", testUID, "spinner"); err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&CreateReq{
		Filename: "/bin/spinner", UID: testUID,
		ControlHost: "yellow", ControlPort: r.notifyPort,
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("create: %v %+v", err, rep)
	}
	pid := rep.PID
	if got := r.signal("red", pid, testUID, TStartReq); !got.OK() {
		t.Fatal(got.Status)
	}
	if got := r.signal("red", pid, testUID, TStopReq); !got.OK() {
		t.Fatal(got.Status)
	}
	// While stopped, no termination notification.
	select {
	case <-r.notifyCh:
		t.Fatal("stopped process terminated")
	case <-time.After(30 * time.Millisecond):
	}
	if got := r.signal("red", pid, testUID, TStartReq); !got.OK() {
		t.Fatal(got.Status)
	}
	if got := r.signal("red", pid, testUID, TKillReq); !got.OK() {
		t.Fatal(got.Status)
	}
	select {
	case m := <-r.notifyCh:
		sc, _ := m.(StateChange)
		if sc.PID != pid || sc.Reason != "killed" {
			t.Fatalf("state change = %+v", sc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no termination after kill")
	}
}

func TestAcquireRunningProcess(t *testing.T) {
	// Section 4.3's acquire: meter an already-executing server without
	// touching its execution state.
	r := newRig(t)
	r.createFilter("green", "facq", 9100)
	started := make(chan int, 1)
	server, err := r.red.Spawn(kernel.SpawnSpec{UID: testUID, Name: "server", Program: func(p *kernel.Process) int {
		rfd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if err := p.BindPort(rfd, 8800); err != nil {
			return 1
		}
		started <- p.PID()
		for {
			data, src, err := p.RecvFrom(rfd, 100)
			if err != nil {
				return 0
			}
			if string(data) == "quit" {
				return 0
			}
			if _, err := p.SendTo(rfd, data, src); err != nil {
				return 1
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	pid := <-started

	rep, err := Exchange(r.ctl, "red", (&ProcReq{
		Type: TAcquireReq, PID: pid, UID: testUID,
		Flags: uint32(meter.MAll | meter.MImmediate), FilterPort: 9100, FilterHost: "green",
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("acquire: %v %+v", err, rep)
	}

	// Drive the server; its events must reach the filter log.
	client, err := r.red.SpawnDetached(testUID, "client")
	if err != nil {
		t.Fatal(err)
	}
	cfd, _ := client.Socket(meter.AFInet, kernel.SockDgram)
	if _, err := client.SendTo(cfd, []byte("echo"), meter.InetName(r.red.PrimaryHostID(), 8800)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep, err := Exchange(r.ctl, "green", (&ProcReq{Type: TGetFileReq, UID: 0, Path: filter.LogPath("facq")}).Wire())
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() && strings.Contains(rep.Data, "RECEIVE") && strings.Contains(rep.Data, "SEND") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acquired process produced no trace: %+v", rep)
		}
		time.Sleep(time.Millisecond)
	}
	// Send quit so the server exits before cluster shutdown.
	if _, err := client.SendTo(cfd, []byte("quit"), meter.InetName(r.red.PrimaryHostID(), 8800)); err != nil {
		t.Fatal(err)
	}
	server.WaitExit()
}

func TestAcquireForeignProcessDenied(t *testing.T) {
	r := newRig(t)
	r.red.AddAccount(200, "other")
	victim, err := r.red.SpawnDetached(200, "victim")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&ProcReq{
		Type: TAcquireReq, PID: victim.PID(), UID: testUID,
		Flags: uint32(meter.MAll), FilterPort: 9000, FilterHost: "green",
	}).Wire())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("acquired another user's process")
	}
}

func TestSetFlagsViaDaemon(t *testing.T) {
	r := newRig(t)
	target, err := r.red.SpawnDetached(testUID, "t")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&ProcReq{
		Type: TSetFlagsReq, PID: target.PID(), UID: testUID,
		Flags: uint32(meter.MSend | meter.MFork),
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("setflags: %v %+v", err, rep)
	}
	if target.MeterFlags() != meter.MSend|meter.MFork {
		t.Fatalf("flags = %b", target.MeterFlags())
	}
}

func TestStdoutForwardedToController(t *testing.T) {
	r := newRig(t)
	r.c.RegisterProgram("talker", func(p *kernel.Process) int {
		p.Printf("hello from talker")
		return 0
	})
	if err := r.red.FS().CreateExecutable("/bin/talker", testUID, "talker"); err != nil {
		t.Fatal(err)
	}
	var md *kernel.Process
	for _, p := range r.red.Procs() {
		if p.Name() == "meterdaemon" {
			md = p
		}
	}
	fds := md.NumFDs()
	rep, err := Exchange(r.ctl, "red", (&CreateReq{
		Filename: "/bin/talker", UID: testUID,
		ControlHost: "yellow", ControlPort: r.notifyPort,
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("create: %v %+v", err, rep)
	}
	// The daemon has closed its own descriptor for the child's gateway
	// socket by the time it replies; the suspended child's references
	// keep the socket — and the path below — alive.
	// (The exchange's own connection closes just after the reply.)
	for deadline := time.Now().Add(2 * time.Second); md.NumFDs() != fds; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon holds %d descriptors after a create, %d before", md.NumFDs(), fds)
		}
	}
	r.signal("red", rep.PID, testUID, TStartReq)
	var sawOutput bool
	deadline := time.After(2 * time.Second)
	for !sawOutput {
		select {
		case m := <-r.notifyCh:
			if iod, ok := m.(IOData); ok {
				if iod.Data == "hello from talker" && iod.PID == rep.PID {
					sawOutput = true
				}
			}
		case <-deadline:
			t.Fatal("stdout never forwarded")
		}
	}
}

func TestStdinRedirectedFromFile(t *testing.T) {
	r := newRig(t)
	echoed := make(chan string, 1)
	r.c.RegisterProgram("stdin-reader", func(p *kernel.Process) int {
		data, err := p.Read(0, 100)
		if err != nil {
			echoed <- "ERR " + err.Error()
			return 1
		}
		echoed <- string(data)
		return 0
	})
	if err := r.red.FS().CreateExecutable("/bin/stdin-reader", testUID, "stdin-reader"); err != nil {
		t.Fatal(err)
	}
	if err := r.red.FS().Create("/tmp/input", testUID, fsys.DefaultMode, []byte("redirected input")); err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&CreateReq{
		Filename: "/bin/stdin-reader", UID: testUID, StdinFile: "/tmp/input",
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("create: %v %+v", err, rep)
	}
	r.signal("red", rep.PID, testUID, TStartReq)
	select {
	case got := <-echoed:
		if got != "redirected input" {
			t.Fatalf("stdin = %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stdin reader never ran")
	}
}

func TestGetFileMissing(t *testing.T) {
	r := newRig(t)
	rep, err := Exchange(r.ctl, "red", (&ProcReq{Type: TGetFileReq, UID: testUID, Path: "/no/such"}).Wire())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("getfile of missing file succeeded")
	}
}
