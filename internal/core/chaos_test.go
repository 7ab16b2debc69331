package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"dpm/internal/controller"
	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestChaosSoak drives concurrent metered jobs while a fault injector
// randomly crashes and restarts one machine and cuts and heals the
// controller's link to another. Invariants checked at the end, with
// the fabric healed:
//
//   - the control plane never wedges (the test completes),
//   - no create was ever duplicated on the surviving machine,
//   - the reachability record converges to "everything reachable",
//   - the filter's trace still parses (a torn tail is tolerated,
//     corruption is not).
func TestChaosSoak(t *testing.T) {
	s, ctl, out := newTestSystem(t)
	ctl.SetRetryPolicy(daemon.RetryPolicy{
		MaxAttempts: 3, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 10 * time.Millisecond, ReplyTimeout: 500 * time.Millisecond,
	})

	// beacon runs until killed, sending steadily so metering exercises
	// the filter connection throughout the faults.
	s.Cluster.RegisterProgram("beacon", func(p *kernel.Process) int {
		f1, f2, err := p.SocketPair()
		if err != nil {
			return 1
		}
		for {
			if _, err := p.Send(f1, []byte("b")); err != nil {
				return 1
			}
			if _, err := p.Recv(f2, 4); err != nil {
				return 1
			}
			p.Compute(200 * time.Microsecond)
		}
	})
	for _, mn := range []string{"red", "green"} {
		m, err := s.Machine(mn)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FS().CreateExecutable("/bin/beacon", s.UID, "beacon"); err != nil {
			t.Fatal(err)
		}
	}

	// Controller and filter live on yellow, which is never faulted.
	// red gets crashed and restarted; the yellow↔green link gets cut
	// and healed.
	ctl.Exec("filter f yellow")

	iterations := 8
	if testing.Short() {
		iterations = 4
	}

	stop := make(chan struct{})
	faultDone := make(chan struct{})
	var crashes, restarts int
	go func() {
		defer close(faultDone)
		rng := rand.New(rand.NewSource(42))
		redDown, cut := false, false
		for {
			select {
			case <-stop:
				// Leave the world healed and whole.
				if cut {
					s.Heal()
				}
				if redDown {
					if err := s.RestartMachine("red"); err != nil {
						t.Error(err)
					} else {
						restarts++
					}
				}
				return
			default:
			}
			switch rng.Intn(4) {
			case 0:
				if !redDown {
					if err := s.CrashMachine("red"); err != nil {
						t.Error(err)
						return
					}
					redDown = true
					crashes++
				}
			case 1:
				if redDown {
					if err := s.RestartMachine("red"); err != nil {
						t.Error(err)
						return
					}
					redDown = false
					restarts++
				}
			case 2:
				if !cut {
					if err := s.Partition("yellow", "green"); err != nil {
						t.Error(err)
						return
					}
					cut = true
				}
			case 3:
				if cut {
					s.Heal()
					cut = false
				}
			}
			time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		}
	}()

	for i := 0; i < iterations; i++ {
		job := fmt.Sprintf("job%d", i)
		ctl.Exec("newjob " + job)
		ctl.Exec("setflags " + job + " send receive termproc")
		ctl.Exec("addprocess " + job + " green beacon")
		ctl.Exec("addprocess " + job + " red beacon")
		ctl.Exec("startjob " + job)
		ctl.Exec("status")
		ctl.Exec("jobs")
		ctl.Exec("jobs " + job)
	}
	close(stop)
	<-faultDone

	// With everything healed and restarted, a status sweep must
	// converge the reachability record to empty.
	ctl.Exec("status")
	if got := ctl.Unreachable(); len(got) != 0 {
		t.Fatalf("Unreachable() = %v after heal and restart\n%s", got, out.String())
	}

	// No double-create: green was never crashed, so every beacon its
	// daemon ever created is still alive there, and the count must
	// match the controller's records exactly — a retried create that
	// double-created would leave an extra live process.
	green, err := s.Machine("green")
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, p := range green.Procs() {
		if p.Name() == "/bin/beacon" {
			live++
		}
	}
	recorded := 0
	pids := make(map[int]bool)
	for _, j := range ctl.Jobs() {
		for _, p := range j.Procs {
			if p.Machine == "green" {
				recorded++
				if pids[p.PID] {
					t.Fatalf("duplicate pid %d recorded on green", p.PID)
				}
				pids[p.PID] = true
			}
		}
	}
	if live != recorded {
		t.Fatalf("green has %d live beacons but the controller recorded %d creates\n%s",
			live, recorded, out.String())
	}
	if recorded == 0 {
		t.Fatalf("no green creates survived the soak — faults starved the control plane\n%s", out.String())
	}

	// The fault counters saw every injected fault.
	stats := s.FaultStats()
	if int(stats.Crashes) != crashes || int(stats.Restarts) != restarts {
		t.Fatalf("FaultStats = %+v, injected %d crashes %d restarts", stats, crashes, restarts)
	}

	// With the fabric healed, one more job must go through cleanly —
	// and guarantees the filter has events to log, however unlucky the
	// random faults were for the earlier startjobs.
	ctl.Exec("newjob final")
	ctl.Exec("setflags final send receive")
	ctl.Exec("addprocess final green beacon")
	ctl.Exec("startjob final")
	waitFor(t, "final job running", func() bool {
		for _, j := range ctl.Jobs() {
			if j.Name == "final" && len(j.Procs) == 1 {
				return j.Procs[0].State == controller.StateRunning
			}
		}
		return false
	})

	// Quiesce the load generators before the verification scans below:
	// every beacon spins at full tilt until told otherwise, and on a
	// small machine a dozen of them starve the store reader while
	// growing the very store it is trying to scan. Stopping the jobs
	// freezes both trace sinks at a matched point without killing
	// anything the invariants above counted.
	for _, j := range ctl.Jobs() {
		ctl.Exec("stopjob " + j.Name)
	}

	// The filter's trace parses; a tail torn by a crash is tolerated.
	var logged []trace.Event
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, err := s.ReadTrace("yellow", "f")
		if (err == nil || errors.Is(err, trace.ErrTruncated)) && len(events) > 0 {
			logged = events
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no parseable trace: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	// The filter dual-writes through the event store (store first, flat
	// log second within each batch), so everything the flat log showed
	// must be queryable from the store — the soak's proof that the
	// store-backed sink survives the same faults the log does.
	be := store.NewFsysBackend(yellow(t, s).FS(), s.UID, filter.StorePath("f"))
	matchAll, err := query.Compile("")
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		var stored int
		rd, rerr := store.OpenReader(be)
		if rerr == nil {
			if res, qerr := query.Run(rd, matchAll); qerr == nil {
				stored = res.Stats.Matched
			}
		}
		if stored >= len(logged) && stored > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d events, flat log had %d", stored, len(logged))
		}
		time.Sleep(time.Millisecond)
	}

	// The stats command works over the healed fabric: every machine
	// reports, and the merged report carries the daemon's request
	// accounting with round-trip quantiles.
	ctl.Exec("stats")
	text := out.String()
	if !strings.Contains(text, "stats: 4/4 machines reporting") {
		t.Fatalf("stats after heal:\n%s", text)
	}
	for _, want := range []string{"daemon.req.create", "daemon.rtt.create", "p99"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats report lacks %q", want)
		}
	}

	// The live-analysis sections rode through every crash, restart and
	// partition of the soak: the filter on yellow kept its collector,
	// and the merged report renders the streaming §5 operators.
	for _, want := range []string{"live communication:", "live parallelism:", "live matching:"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats report lacks live section %q", want)
		}
	}

	// Under a fresh partition the stats command degrades instead of
	// hanging — and the reachable side still merges and renders its
	// live sections.
	if err := s.Partition("yellow", "green"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	ctl.Exec("stats")
	partText := out.String()
	s.Heal()
	if !strings.Contains(partText, "stats: 3/4 machines reporting") ||
		!strings.Contains(partText, "stats: degraded, missing green") {
		t.Fatalf("stats under partition:\n%s", partText)
	}
	for _, want := range []string{"live communication:", "live parallelism:"} {
		if !strings.Contains(partText, want) {
			t.Errorf("partitioned stats report lacks %q", want)
		}
	}

	// The per-machine registries agree with the injected fault history
	// (FaultStats is now a view over the same counters), and the merge
	// of all machines exports for CI when DPM_STATS_OUT names a file.
	var merged *obs.Snapshot
	for _, m := range s.Cluster.Machines() {
		snap := m.Obs().Snapshot()
		snap.Machine = m.Name()
		if merged == nil {
			merged = snap
		} else {
			merged.Merge(snap)
		}
	}
	if v, _ := merged.Get("faults.crashes"); int(v) != crashes {
		t.Errorf("merged faults.crashes = %d, injected %d", v, crashes)
	}
	if v, ok := merged.Get("filter.received"); !ok || v <= 0 {
		t.Errorf("merged filter.received = %d, want > 0", v)
	}
	if path := os.Getenv("DPM_STATS_OUT"); path != "" {
		if err := os.WriteFile(path, merged.EncodeJSON(), 0o644); err != nil {
			t.Errorf("DPM_STATS_OUT: %v", err)
		}
	}

	// Controller shutdown kills the filter over the wire; the filter's
	// deferred export then writes its machine's snapshot beside the
	// logs, where post-mortem tooling (dpstat) can read it.
	ctl.Exec("die")
	ctl.Exec("die") // armed: active beacons still exist
	waitFor(t, "filter stats export", func() bool {
		data, err := yellow(t, s).FS().Read(filter.StatsPath("f"), fsys.Superuser)
		if err != nil {
			return false
		}
		snap, err := obs.ParseSnapshotJSON(data)
		if err != nil {
			return false
		}
		v, ok := snap.Get("filter.received")
		return ok && v > 0
	})
}

// yellow fetches the controller's machine, failing the test on error.
func yellow(t *testing.T, s *System) *kernel.Machine {
	t.Helper()
	m, err := s.Machine("yellow")
	if err != nil {
		t.Fatal(err)
	}
	return m
}
