package workloads

import (
	"testing"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// TestTrafficSourceToSink runs a source process on one machine
// against a sink process on another: cross-machine datagrams, counts
// on both ends.
func TestTrafficSourceToSink(t *testing.T) {
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	src, err := c.AddMachine("src", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.AddMachine("dst", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	src.AddAccount(100, "user")
	dst.AddAccount(100, "user")
	t.Cleanup(c.Shutdown)

	stats := &TrafficStats{}
	if _, err := dst.Spawn(kernel.SpawnSpec{UID: 100, Name: "sink", Program: NewTrafficSink(7100, stats)}); err != nil {
		t.Fatal(err)
	}
	// Datagrams to an unbound port are dropped uncounted.
	deadline := time.Now().Add(10 * time.Second)
	for !dst.PortBound(kernel.SockDgram, 7100) {
		if time.Now().After(deadline) {
			t.Fatal("sink never bound its port")
		}
		time.Sleep(time.Millisecond)
	}
	dest := meter.InetName(dst.PrimaryHostID(), 7100)
	gen, err := src.Spawn(kernel.SpawnSpec{UID: 100, Name: "gen", Program: NewTrafficSource(500, dest, 64, stats)})
	if err != nil {
		t.Fatal(err)
	}

	for stats.Received.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("sink received %d datagrams (sent %d), want >= 20",
				stats.Received.Load(), stats.Sent.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := src.Signal(gen.PID(), kernel.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if _, reason := gen.WaitExit(); reason != kernel.ReasonKilled {
		t.Fatalf("source exit reason = %s, want killed", reason)
	}
	if sent := stats.Sent.Load(); sent < 20 {
		t.Fatalf("source sent %d, want >= 20", sent)
	}
}

// TestFanOutFanIn runs the microservice call tree through the full
// system: a frontend on red scatters to backends on green and blue and
// gathers every reply, with the computation metered through a filter.
func TestFanOutFanIn(t *testing.T) {
	s, ctl, _ := newSys(t)
	if err := RegisterTraffic(s); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f blue")
	ctl.Exec("newjob fan")
	ctl.Exec("setflags fan send receive termproc")
	ctl.Exec("addprocess fan green fan-backend")
	ctl.Exec("addprocess fan blue fan-backend")
	ctl.Exec("startjob fan")

	// Datagrams to an unbound port are silently dropped; wait for the
	// backends before the first scatter so round 0 is answerable.
	for _, name := range []string{"green", "blue"} {
		bm, err := s.Cluster.Machine(name)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !bm.PortBound(kernel.SockDgram, FanPort) {
			if time.Now().After(deadline) {
				t.Fatalf("backend on %s never bound port %d", name, FanPort)
			}
			time.Sleep(time.Millisecond)
		}
	}

	m, err := s.Cluster.Machine("red")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn(kernel.SpawnSpec{
		UID: 100, Name: "fan-frontend", Program: FrontendMain,
		Args: []string{"green", "blue", "4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, reason := p.WaitExit()
	if status != 0 || reason != kernel.ReasonNormal {
		t.Fatalf("frontend exit = (%d, %s): %d rounds short of a full reply set",
			status, reason, status)
	}
}
