package workloads

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/controller"
	"dpm/internal/core"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

type out struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *out) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *out) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func newSys(t *testing.T) (*core.System, *controller.Controller, *out) {
	t.Helper()
	s, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	for _, reg := range []func(*core.System) error{RegisterPingPong, RegisterEcho, RegisterTSP} {
		if err := reg(s); err != nil {
			t.Fatal(err)
		}
	}
	w := &out{}
	ctl, err := s.NewController("yellow", w)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctl, w
}

func waitJob(t *testing.T, ctl *controller.Controller, job string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := false
		for _, j := range ctl.Jobs() {
			if j.Name != job {
				continue
			}
			done = true
			for _, p := range j.Procs {
				if p.State != controller.StateKilled {
					done = false
				}
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed", job)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPingPongMetered(t *testing.T) {
	s, ctl, _ := newSys(t)
	ctl.Exec("filter f blue")
	ctl.Exec("newjob pp")
	ctl.Exec("setflags pp all")
	ctl.Exec("addprocess pp green ponger 3")
	ctl.Exec("addprocess pp red pinger green 3")
	ctl.Exec("startjob pp")
	waitJob(t, ctl, "pp")
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, err := s.ReadTrace("blue", "f")
		if err == nil {
			st := analysis.Comm(events)
			if st.Sends >= 6 && st.Recvs >= 6 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("ping-pong trace incomplete")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTSPDistributedMatchesSequential(t *testing.T) {
	// The Lai & Miller workload: a 10-city instance solved by a master
	// on red and workers on green and blue, metered end to end. The
	// distributed answer must equal the sequential solver's.
	s, ctl, w := newSys(t)
	const cities, seed = 10, 4
	// Sanity: the solver is deterministic across several seeds before
	// the distributed run uses one of them.
	for sd := int64(1); sd <= 3; sd++ {
		a, _, _ := SolveSequential(NewTSPInstance(9, sd))
		b, _, _ := SolveSequential(NewTSPInstance(9, sd))
		if a != b {
			t.Fatalf("seed %d: nondeterministic solver", sd)
		}
	}
	want, _, _ := SolveSequential(NewTSPInstance(cities, seed))

	ctl.Exec("filter f blue")
	ctl.Exec("newjob tsp")
	ctl.Exec("setflags tsp all")
	ctl.Exec("addprocess tsp red tspmaster " + strconv.Itoa(cities) + " 2 " + strconv.Itoa(seed))
	ctl.Exec("addprocess tsp green tspworker red")
	ctl.Exec("addprocess tsp blue tspworker red")
	ctl.Exec("startjob tsp")
	waitJob(t, ctl, "tsp")

	// The master's stdout is forwarded through the daemon gateway to
	// the controller output.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(w.String(), "tsp best cost=") {
		if time.Now().After(deadline) {
			t.Fatalf("no master output; controller saw:\n%s", w.String())
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(w.String(), "tsp best cost="+strconv.Itoa(want)+" ") {
		t.Fatalf("distributed cost differs from sequential %d:\n%s", want, w.String())
	}

	// The trace shows real parallelism: two workers computing.
	deadline = time.Now().Add(5 * time.Second)
	for {
		events, err := s.ReadTrace("blue", "f")
		if err == nil {
			term := 0
			for _, e := range events {
				if e.Type == meter.EvTermProc {
					term++
				}
			}
			if term >= 3 {
				par := analysis.MeasureParallelism(events)
				if par.Processes != 3 {
					t.Fatalf("parallelism saw %d processes", par.Processes)
				}
				if len(analysis.MatchTrace(events, nil).Conns) != 2 {
					t.Fatalf("expected 2 connections, got %d", len(analysis.MatchTrace(events, nil).Conns))
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("tsp trace incomplete")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEchoAcquire(t *testing.T) {
	// A server started outside the measurement system is acquired and
	// metered (section 4.3), then released by removejob while it
	// continues to run.
	s, ctl, _ := newSys(t)
	red, err := s.Machine("red")
	if err != nil {
		t.Fatal(err)
	}
	server, err := red.Spawn(kernel.SpawnSpec{UID: core.DefaultUID, Name: "echoserver", Path: "/bin/echoserver"})
	if err != nil {
		t.Fatal(err)
	}

	ctl.Exec("filter f blue")
	ctl.Exec("newjob watch")
	ctl.Exec("setflags watch send receive")
	ctl.Exec("acquire watch red " + strconv.Itoa(server.PID()))
	if st := ctl.Jobs()[0].Procs[0].State; st != controller.StateAcquired {
		t.Fatalf("state = %v, want acquired", st)
	}

	// Drive the server with an unmetered client.
	client, err := red.Spawn(kernel.SpawnSpec{UID: core.DefaultUID, Name: "echoclient", Path: "/bin/echoclient", Args: []string{"red", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := client.WaitExit(); status != 0 {
		t.Fatalf("client exited %d", status)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		events, err := s.ReadTrace("blue", "f")
		if err == nil {
			st := analysis.Comm(events)
			if st.Recvs >= 4 && st.Sends >= 4 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("acquired server produced no trace")
		}
		time.Sleep(time.Millisecond)
	}

	// removejob releases the acquired process but leaves it running.
	ctl.Exec("removejob watch")
	if exited, _, _ := server.Exited(); exited {
		t.Fatal("server terminated by removejob")
	}
	if server.MeterSocketID() != 0 {
		t.Fatal("meter connection not taken down")
	}

	// Shut the server down cleanly.
	shooter, err := red.SpawnDetached(core.DefaultUID, "shooter")
	if err != nil {
		t.Fatal(err)
	}
	fd, _ := shooter.Socket(meter.AFInet, kernel.SockDgram)
	if _, err := shooter.SendTo(fd, []byte("quit"), meter.InetName(red.PrimaryHostID(), EchoPort)); err != nil {
		t.Fatal(err)
	}
	server.WaitExit()
}
