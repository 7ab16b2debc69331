package controller

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"dpm/internal/daemon"
	"dpm/internal/kernel"
)

// fastSessionCfg shortens the session liveness timings so fault tests
// observe suspect/down transitions in milliseconds.
var fastSessionCfg = daemon.SessionConfig{
	HeartbeatInterval: 25 * time.Millisecond,
	HeartbeatTimeout:  50 * time.Millisecond,
	HelloTimeout:      250 * time.Millisecond,
	Backoff: daemon.RetryPolicy{
		BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
	},
	DownAfter:    3,
	CircuitAfter: 1000,
	CircuitHold:  500 * time.Millisecond,
}

// TestBroadcastDegradedSlots is the acceptance run for degraded
// fan-out: with warm sessions to every machine, red crashes and green
// is partitioned away, and the very next broadcast must come back
// within the retry deadline carrying an error slot for each of them
// and a real reply from blue — degraded, never hung, never missing a
// machine.
func TestBroadcastDegradedSlots(t *testing.T) {
	c, ctl, _ := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)
	ctl.SetSessionConfig(fastSessionCfg)

	// A job with a process on red, for the startjob below.
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red B")

	// Warm the sessions so the faults strike established connections:
	// the session layer still believes both machines are up when the
	// broadcast below goes out.
	ctl.Exec("status")

	if err := c.CrashMachine("red"); err != nil {
		t.Fatal(err)
	}
	cutFrom(t, c, ctl, "green")

	hosts := []string{"red", "green", "blue"}
	start := time.Now()
	res := ctl.broadcast(hosts, func(string) *daemon.WireMsg {
		return (&daemon.ProcReq{Type: daemon.TListReq, UID: testUID}).Wire()
	})
	elapsed := time.Since(start)

	// Bounded by the retry policy, not by any machine's silence. The
	// deadline here is generous — the point is "milliseconds, not
	// minutes"; the slot checks below carry the real assertions.
	if elapsed > 2*time.Second {
		t.Fatalf("degraded broadcast took %v, want bounded by retry deadline", elapsed)
	}
	if len(res) != len(hosts) {
		t.Fatalf("broadcast returned %d slots for %d hosts", len(res), len(hosts))
	}
	for i, h := range hosts {
		if res[i].Host != h {
			t.Fatalf("slot %d is %q, want %q (order must be deterministic)", i, res[i].Host, h)
		}
	}
	if res[0].Err == nil {
		t.Error("crashed red produced no error slot")
	}
	if res[1].Err == nil {
		t.Error("partitioned green produced no error slot")
	}
	if res[2].Err != nil || res[2].Rep == nil || !res[2].Rep.OK() {
		t.Errorf("healthy blue slot = {rep %v err %v}, want ok reply", res[2].Rep, res[2].Err)
	}
	degraded := ctl.machine.Obs().Counter("broadcast.degraded")
	n := degraded.Load()
	if n == 0 {
		t.Error("broadcast.degraded counter not bumped")
	}

	// startjob fans out through the same gather: the process on the
	// crashed machine is a failed slot.
	ctl.Exec("startjob foo")
	if degraded.Load() == n {
		t.Error("startjob with a process on a crashed machine did not bump broadcast.degraded")
	}
}

// TestSoakSessionFlap flaps the controller↔green link while status
// and stats broadcasts run back to back. Every broadcast must
// complete within the retry deadline and report every machine —
// green as reachable or unreachable depending on where the flap
// caught it, but never silently absent — and after the final heal
// the reachability record converges to empty.
func TestSoakSessionFlap(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)
	ctl.SetSessionConfig(fastSessionCfg)
	ctl.Exec("status") // warm sessions

	n, err := c.Network("ether0")
	if err != nil {
		t.Fatal(err)
	}
	yellow := ctl.machine.PrimaryHostID()
	green, err := c.Machine("green")
	if err != nil {
		t.Fatal(err)
	}
	greenID := green.PrimaryHostID()

	stop := make(chan struct{})
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for {
			select {
			case <-stop:
				n.Heal()
				return
			default:
			}
			n.Partition(yellow, greenID)
			time.Sleep(7 * time.Millisecond)
			n.Heal()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		before := len(out.String())
		start := time.Now()
		ctl.Exec("status")
		ctl.Exec("stats")
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("round %d: broadcasts took %v under flapping link", i, elapsed)
		}
		delta := out.String()[before:]
		for _, m := range []string{"yellow", "red", "green", "blue"} {
			if !strings.Contains(delta, "machine "+m+":") {
				t.Fatalf("round %d: status is missing machine %s:\n%s", i, m, delta)
			}
		}
	}
	close(stop)
	<-flapDone

	// Healed world: the next sweeps converge the reachability record.
	waitFor(t, "reachability converged after flapping", func() bool {
		ctl.Exec("status")
		return len(ctl.Unreachable()) == 0
	})
}

// benchSystem builds a star of n machines plus a controller hub, all
// with daemons, for fan-out benchmarks.
func benchSystem(b *testing.B, n int) (*kernel.Cluster, *Controller, []string) {
	b.Helper()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	names := make([]string, 0, n)
	for i := 0; i <= n; i++ {
		name := "hub"
		if i > 0 {
			name = fmt.Sprintf("m%02d", i)
			names = append(names, name)
		}
		m, err := c.AddMachine(name, nil, "ether0")
		if err != nil {
			b.Fatal(err)
		}
		m.AddAccount(testUID, "user")
		if _, err := daemon.Install(c, m); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(c.Shutdown)
	ctl, err := New(c, "hub", testUID, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	return c, ctl, names
}

// BenchmarkBroadcast16 measures a 16-machine status sweep: the
// scatter-gather fan-out against the sequential one-machine-at-a-time
// baseline it replaced. The concurrent sweep should cost about one
// round trip; the sequential loop, sixteen.
func BenchmarkBroadcast16(b *testing.B) {
	mk := func(string) *daemon.WireMsg {
		return (&daemon.ProcReq{Type: daemon.TListReq, UID: testUID}).Wire()
	}
	b.Run("one-rtt", func(b *testing.B) {
		_, ctl, hosts := benchSystem(b, 16)
		ctl.broadcast(hosts, mk) // warm sessions
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctl.exchange(hosts[0], mk(hosts[0])); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scatter-gather", func(b *testing.B) {
		_, ctl, hosts := benchSystem(b, 16)
		ctl.broadcast(hosts, mk) // warm sessions
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := ctl.broadcast(hosts, mk)
			for _, r := range res {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		_, ctl, hosts := benchSystem(b, 16)
		ctl.broadcast(hosts, mk) // warm sessions
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, h := range hosts {
				if _, err := ctl.exchange(h, mk(h)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
