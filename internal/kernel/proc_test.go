package kernel

import (
	"errors"
	"testing"
	"time"

	"dpm/internal/meter"
)

func TestSpawnRunsAndExits(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "worker", Program: func(p *Process) int {
		p.Compute(time.Millisecond)
		return 7
	}})
	if err != nil {
		t.Fatal(err)
	}
	status, reason := p.WaitExit()
	if status != 7 || reason != ReasonNormal {
		t.Fatalf("exit = (%d, %s), want (7, normal)", status, reason)
	}
}

func TestSpawnRequiresAccount(t *testing.T) {
	_, red, _ := newTestCluster(t)
	_, err := red.Spawn(SpawnSpec{UID: 999, Name: "x", Program: func(*Process) int { return 0 }})
	if !errors.Is(err, ErrNoAccount) {
		t.Fatalf("err = %v, want ErrNoAccount", err)
	}
}

func TestSuperuserNeedsNoAccount(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p, err := red.Spawn(SpawnSpec{UID: 0, Name: "daemon", Program: func(*Process) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitExit()
}

func TestSuspendedProcessWaitsForSigcont(t *testing.T) {
	// The paper's "new" state: suspended prior to the execution of the
	// first instruction (section 4.2).
	_, red, _ := newTestCluster(t)
	ran := make(chan struct{})
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Suspended: true, Program: func(p *Process) int {
		close(ran)
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
		t.Fatal("suspended process executed before start")
	case <-time.After(30 * time.Millisecond):
	}
	if err := red.Signal(p.PID(), SIGCONT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("process never started after SIGCONT")
	}
	p.WaitExit()
}

func TestKillSuspendedProcess(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Suspended: true, Program: func(p *Process) int {
		t.Error("killed suspended process body ran")
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := red.Signal(p.PID(), SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, reason := p.WaitExit()
	if reason != ReasonKilled {
		t.Fatalf("reason = %s, want killed", reason)
	}
}

func TestStopAndContinue(t *testing.T) {
	_, red, _ := newTestCluster(t)
	const iters = 50
	step := make(chan int) // unbuffered: the program cannot run ahead
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(p *Process) int {
		for i := 0; i < iters; i++ {
			p.Compute(10 * time.Microsecond)
			step <- i
		}
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	seen := <-step
	if err := red.Signal(p.PID(), SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// The program stops at its next checkpoint; at most one iteration
	// already in flight can still arrive.
	select {
	case seen = <-step:
	case <-time.After(50 * time.Millisecond):
	}
	select {
	case v := <-step:
		t.Fatalf("iteration %d arrived while stopped", v)
	case <-time.After(50 * time.Millisecond):
	}
	if err := red.Signal(p.PID(), SIGCONT); err != nil {
		t.Fatal(err)
	}
	for v := range step {
		seen = v
		if v == iters-1 {
			break
		}
	}
	if seen != iters-1 {
		t.Fatalf("last iteration = %d", seen)
	}
	status, reason := p.WaitExit()
	if status != 0 || reason != ReasonNormal {
		t.Fatalf("exit = (%d, %s)", status, reason)
	}
}

func TestKillBlockedInRecv(t *testing.T) {
	_, red, _ := newTestCluster(t)
	blocked := make(chan int)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(p *Process) int {
		fd1, _, err := p.SocketPair()
		if err != nil {
			t.Error(err)
			return 1
		}
		blocked <- fd1
		_, _ = p.Recv(fd1, 10) // no one ever writes; unblocked only by kill
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	time.Sleep(10 * time.Millisecond)
	if err := red.Signal(p.PID(), SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, reason := p.WaitExit()
	if reason != ReasonKilled {
		t.Fatalf("reason = %s, want killed", reason)
	}
}

func TestOnExitNotification(t *testing.T) {
	_, red, _ := newTestCluster(t)
	got := make(chan string, 1)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(*Process) int { return 3 }})
	if err != nil {
		t.Fatal(err)
	}
	p.OnExit(func(_ *Process, status int, reason string) {
		if status == 3 {
			got <- reason
		}
	})
	select {
	case r := <-got:
		if r != ReasonNormal {
			t.Fatalf("reason = %s", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnExit never fired")
	}
}

// TestOnExitWatchersInOrder: every watcher registered before a process
// exits runs once, in the order registered, and one registered after
// runs at once.
func TestOnExitWatchersInOrder(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Suspended: true, Program: func(*Process) int { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan int, 8)
	for i := range 3 {
		p.OnExit(func(*Process, int, string) { ran <- i })
	}
	if err := red.Signal(p.PID(), SIGCONT); err != nil {
		t.Fatal(err)
	}
	for want := range 3 {
		select {
		case got := <-ran:
			if got != want {
				t.Fatalf("watcher %d ran in place %d", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("watcher %d never ran", want)
		}
	}
	p.OnExit(func(*Process, int, string) { ran <- 3 })
	if got := <-ran; got != 3 {
		t.Fatalf("watcher %d ran after exit, want 3", got)
	}
	select {
	case got := <-ran:
		t.Fatalf("watcher %d ran twice", got)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestProcessExitReleasesSockets(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(p *Process) int {
		fd, err := p.Socket(meter.AFInet, SockStream)
		if err != nil {
			t.Error(err)
			return 1
		}
		if err := p.BindPort(fd, 6000); err != nil {
			t.Error(err)
			return 1
		}
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitExit()
	// The bound port must have been released at exit.
	q := detached(t, red)
	fd, _ := q.Socket(meter.AFInet, SockStream)
	if err := q.BindPort(fd, 6000); err != nil {
		t.Fatalf("port still bound after process exit: %v", err)
	}
}

func TestExecRunsExecutable(t *testing.T) {
	c, red, _ := newTestCluster(t)
	c.RegisterProgram("hello", func(p *Process) int { return 42 })
	if err := red.FS().CreateExecutable("/bin/hello", testUID, "hello"); err != nil {
		t.Fatal(err)
	}
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "launcher", Program: func(p *Process) int {
		if err := p.Exec("/bin/hello", "arg1"); err != nil {
			t.Errorf("exec: %v", err)
			return 1
		}
		return 0 // unreachable: exec does not return on success
	}})
	if err != nil {
		t.Fatal(err)
	}
	status, _ := p.WaitExit()
	if status != 42 {
		t.Fatalf("status = %d, want 42 from exec'd program", status)
	}
	if p.Name() != "/bin/hello" {
		t.Fatalf("name = %q after exec", p.Name())
	}
}

func TestExecMissingFile(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	if err := p.Exec("/bin/nonesuch"); err == nil {
		t.Fatal("exec of missing file succeeded")
	}
}

func TestSpawnFromPath(t *testing.T) {
	c, red, _ := newTestCluster(t)
	c.RegisterProgram("prog", func(p *Process) int { return 5 })
	if err := red.FS().CreateExecutable("/bin/prog", testUID, "prog"); err != nil {
		t.Fatal(err)
	}
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "prog", Path: "/bin/prog"})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := p.WaitExit(); status != 5 {
		t.Fatalf("status = %d", status)
	}
}

func TestCPUTimeCharged(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(p *Process) int {
		p.Compute(35 * time.Millisecond)
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitExit()
	if got := p.cpu.QuantizedMillis(); got != 30 {
		t.Fatalf("quantized CPU = %d ms, want 30 (10ms granularity)", got)
	}
}

func TestSignalUnknownPid(t *testing.T) {
	_, red, _ := newTestCluster(t)
	if err := red.Signal(424242, SIGKILL); !errors.Is(err, ErrSearch) {
		t.Fatalf("err = %v, want ErrSearch", err)
	}
}

func TestForkInheritsDescriptors(t *testing.T) {
	_, red, _ := newTestCluster(t)
	result := make(chan string, 1)
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "parent", Program: func(p *Process) int {
		fd1, fd2, err := p.SocketPair()
		if err != nil {
			t.Error(err)
			return 1
		}
		_, err = p.Fork(func(child *Process) int {
			// The child gains access to the parent's sockets (3.1).
			d, err := child.Recv(fd2, 100)
			if err != nil {
				t.Errorf("child recv: %v", err)
				return 1
			}
			result <- string(d)
			return 0
		})
		if err != nil {
			t.Error(err)
			return 1
		}
		if _, err := p.Send(fd1, []byte("to child")); err != nil {
			t.Error(err)
			return 1
		}
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.WaitExit()
	select {
	case got := <-result:
		if got != "to child" {
			t.Fatalf("child received %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("child never received")
	}
}

func TestDetachedKillReturnsError(t *testing.T) {
	_, red, _ := newTestCluster(t)
	p := detached(t, red)
	red.Signal(p.PID(), SIGKILL)
	if _, err := p.Socket(meter.AFInet, SockStream); !errors.Is(err, ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
}

// TestProcessGoKilledWorker verifies the auxiliary-goroutine contract:
// a goroutine launched with Process.Go may issue syscalls, and when the
// process is killed the goroutine's kill unwind is absorbed — the
// process exits, and cluster shutdown does not hang waiting for it.
func TestProcessGoKilledWorker(t *testing.T) {
	_, red, _ := newTestCluster(t)
	started := make(chan struct{})
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(p *Process) int {
		p.Go(func() {
			close(started)
			for {
				p.Compute(time.Millisecond) // unwinds with killedPanic on kill
			}
		})
		for {
			p.Compute(time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := red.Signal(p.PID(), SIGKILL); err != nil {
		t.Fatal(err)
	}
	if _, reason := p.WaitExit(); reason != ReasonKilled {
		t.Fatalf("reason = %s, want killed", reason)
	}
	// t.Cleanup's c.Shutdown hanging on the worker's wg registration
	// would fail the test by deadlock; reaching here is the assertion.
}

// TestProcessGoOutlivesNormalExit verifies that a Go goroutine finishing
// normally releases its shutdown registration.
func TestProcessGoOutlivesNormalExit(t *testing.T) {
	_, red, _ := newTestCluster(t)
	ran := make(chan struct{})
	p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Program: func(p *Process) int {
		p.Go(func() {
			p.Compute(time.Millisecond)
			close(ran)
		})
		<-ran
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if status, reason := p.WaitExit(); status != 0 || reason != ReasonNormal {
		t.Fatalf("exit = (%d, %s), want (0, normal)", status, reason)
	}
}
