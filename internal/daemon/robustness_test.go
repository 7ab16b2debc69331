package daemon

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

func TestDaemonSurvivesGarbageConnection(t *testing.T) {
	r := newRig(t)
	red, _ := r.c.Machine("red")
	// Open a raw connection and send bytes that decode to nothing.
	prober, err := red.SpawnDetached(testUID, "prober")
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := prober.Socket(meter.AFInet, kernel.SockStream)
	if err := prober.Connect(fd, meter.InetName(red.PrimaryHostID(), Port)); err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 64)
	garbage[0] = 3 // size field below minimum: corrupt
	if _, err := prober.Send(fd, garbage); err != nil {
		t.Fatal(err)
	}
	if err := prober.Close(fd); err != nil {
		t.Fatal(err)
	}
	// The daemon must still answer real requests.
	target, err := red.SpawnDetached(testUID, "t")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&ProcReq{Type: TSetFlagsReq, PID: target.PID(), UID: testUID, Flags: 1}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("daemon dead after garbage: %v %+v", err, rep)
	}
}

func TestDaemonUnknownRequestType(t *testing.T) {
	r := newRig(t)
	rep, err := Exchange(r.ctl, "red", &WireMsg{Type: 99, Fields: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(rep.Status, "unknown request") {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestDaemonAbandonedConnection(t *testing.T) {
	// A controller that connects and goes away without sending a
	// request must not wedge the daemon.
	r := newRig(t)
	red, _ := r.c.Machine("red")
	ghost, err := red.SpawnDetached(testUID, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := ghost.Socket(meter.AFInet, kernel.SockStream)
	if err := ghost.Connect(fd, meter.InetName(red.PrimaryHostID(), Port)); err != nil {
		t.Fatal(err)
	}
	if err := ghost.Close(fd); err != nil {
		t.Fatal(err)
	}
	target, err := red.SpawnDetached(testUID, "t")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&ProcReq{Type: TSetFlagsReq, PID: target.PID(), UID: testUID, Flags: 1}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("daemon wedged by abandoned connection: %v %+v", err, rep)
	}
}

func TestConcurrentExchanges(t *testing.T) {
	// Several controllers issuing requests at once: the daemon serves
	// one connection at a time but every request completes.
	r := newRig(t)
	red, _ := r.c.Machine("red")
	yellow, _ := r.c.Machine("yellow")
	target, err := red.SpawnDetached(testUID, "t")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		ctl, err := yellow.SpawnDetached(testUID, "ctl")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				rep, err := Exchange(ctl, "red", (&ProcReq{Type: TSetFlagsReq, PID: target.PID(), UID: testUID, Flags: 1}).Wire())
				if err != nil || !rep.OK() {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent exchange failed: %v", err)
	}
}

func TestExchangeNoDaemonMachine(t *testing.T) {
	r := newRig(t)
	if _, err := Exchange(r.ctl, "mars", &WireMsg{Type: TStartReq}); err == nil {
		t.Fatal("exchange with unknown machine succeeded")
	}
}

func TestSignalRequestsForUnknownPid(t *testing.T) {
	r := newRig(t)
	for _, typ := range []MsgType{TStartReq, TStopReq, TKillReq, TSetFlagsReq, TReleaseReq} {
		rep, err := Exchange(r.ctl, "red", (&ProcReq{Type: typ, PID: 99999, UID: testUID}).Wire())
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatalf("%v for unknown pid succeeded", typ)
		}
	}
}

func TestListViaDaemon(t *testing.T) {
	r := newRig(t)
	target, err := r.red.SpawnDetached(testUID, "listed-proc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&ProcReq{Type: TListReq, UID: testUID}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("list: %v %+v", err, rep)
	}
	want := strconv.Itoa(target.PID()) + " " + strconv.Itoa(testUID) + " listed-proc"
	if !strings.Contains(rep.Data, want) {
		t.Fatalf("list lacks %q:\n%s", want, rep.Data)
	}
	if !strings.Contains(rep.Data, "meterdaemon") {
		t.Fatalf("list lacks the daemon itself:\n%s", rep.Data)
	}
}

func TestStdinViaDaemon(t *testing.T) {
	r := newRig(t)
	r.c.RegisterProgram("echoer", func(p *kernel.Process) int {
		data, err := p.Read(0, 256)
		if err != nil {
			return 1
		}
		p.Printf("got:%s", data)
		return 0
	})
	if err := r.red.FS().CreateExecutable("/bin/echoer", testUID, "echoer"); err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&CreateReq{
		Filename: "/bin/echoer", UID: testUID,
		ControlHost: "yellow", ControlPort: r.notifyPort,
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("create: %v %+v", err, rep)
	}
	pid := rep.PID
	r.signal("red", pid, testUID, TStartReq)
	srep, err := Exchange(r.ctl, "red", (&ProcReq{Type: TStdinReq, PID: pid, UID: testUID, Path: "typed line"}).Wire())
	if err != nil || !srep.OK() {
		t.Fatalf("stdin: %v %+v", err, srep)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case m := <-r.notifyCh:
			if iod, ok := m.(IOData); ok {
				if iod.Data == "got:typed line" && iod.PID == pid {
					return
				}
			}
		case <-deadline:
			t.Fatal("echo never arrived")
		}
	}
}

func TestStdinUnknownPidViaDaemon(t *testing.T) {
	r := newRig(t)
	rep, err := Exchange(r.ctl, "red", (&ProcReq{Type: TStdinReq, PID: 4242, UID: testUID, Path: "x"}).Wire())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("stdin to unknown pid succeeded")
	}
}

func TestReleaseViaDaemon(t *testing.T) {
	r := newRig(t)
	r.createFilter("green", "frel", 9200)
	target, err := r.red.SpawnDetached(testUID, "t")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Exchange(r.ctl, "red", (&ProcReq{
		Type: TAcquireReq, PID: target.PID(), UID: testUID,
		Flags: uint32(meter.MAll), FilterPort: 9200, FilterHost: "green",
	}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("acquire: %v %+v", err, rep)
	}
	if target.MeterSocketID() == 0 {
		t.Fatal("not metered after acquire")
	}
	rep, err = Exchange(r.ctl, "red", (&ProcReq{Type: TReleaseReq, PID: target.PID(), UID: testUID}).Wire())
	if err != nil || !rep.OK() {
		t.Fatalf("release: %v %+v", err, rep)
	}
	if target.MeterSocketID() != 0 {
		t.Fatal("meter connection survives release")
	}
	if target.MeterFlags() != 0 {
		t.Fatal("flags survive release")
	}
}
