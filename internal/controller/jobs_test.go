package controller

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/kernel"
)

// deepJobs copies the job table under the lock, field by field — what
// Jobs must equal whenever it is called.
func deepJobs(ctl *Controller) []*Job {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	out := make([]*Job, 0, len(ctl.jobOrder))
	for _, n := range ctl.jobOrder {
		j := ctl.jobs[n]
		f := *j.Filter
		cp := &Job{Name: j.Name, Filter: &f, Flags: j.Flags}
		for _, p := range j.Procs {
			pc := *p
			cp.Procs = append(cp.Procs, &pc)
		}
		out = append(out, cp)
	}
	return out
}

// TestJobsSnapshotNoRace reads a job's filter record from Jobs while
// getlog advances that filter's offset. Jobs used to hand out the
// table's own FilterInfo, which getlog writes under the lock, so the
// reader raced with it (go test -race reports it).
func TestJobsSnapshotNoRace(t *testing.T) {
	c, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	blue, err := c.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if js := ctl.Jobs(); len(js) > 0 {
				_ = js[0].Filter.LogOffset
			}
		}
	}()
	const rounds, line = 20, "line\n"
	for i := 0; i < rounds; i++ {
		if err := blue.FS().Append(filter.LogPath("f1"), testUID, []byte(line)); err != nil {
			t.Fatal(err)
		}
		ctl.Exec("getlog f1 out")
	}
	close(done)
	wg.Wait()
	if got := ctl.Jobs()[0].Filter.LogOffset; got != rounds*len(line) {
		t.Fatalf("the snapshot's LogOffset is %d after the last getlog, want %d", got, rounds*len(line))
	}
}

// TestJobsSnapshotTracksEveryChange: Jobs keeps the snapshot it built
// until the table changes, and every change drops it. After each
// command or notice that changes a job, a process or a job's filter,
// Jobs equals a deep copy of the table taken under the lock — with a
// snapshot built just before the change, so a change that failed to
// drop it would show the old one. The notices go straight to their
// handlers, so that nothing else changes the table between the
// snapshot and the notice.
func TestJobsSnapshotTracksEveryChange(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	blue, _ := c.Machine("blue")
	red, _ := c.Machine("red")
	victim, err := red.SpawnDetached(testUID, "server")
	if err != nil {
		t.Fatal(err)
	}
	pidOf := func(name, machine string) int {
		for _, j := range deepJobs(ctl) {
			for _, p := range j.Procs {
				if p.Name == name && p.Machine == machine {
					return p.PID
				}
			}
		}
		t.Fatalf("no process %s on %s", name, machine)
		return 0
	}
	exec := func(cmd string) func() { return func() { ctl.Exec(cmd) } }
	steps := []struct {
		name string
		run  func()
	}{
		{"newjob", exec("newjob j")},
		{"newjob, empty", exec("newjob k")},
		{"setflags, no processes", exec("setflags j send")},
		{"getlog", func() {
			if err := blue.FS().Append(filter.LogPath("f1"), testUID, []byte("line\n")); err != nil {
				t.Fatal(err)
			}
			ctl.Exec("getlog f1 out")
		}},
		{"addprocess", exec("addprocess j green B")},
		{"acquire", exec("acquire j red " + strconv.Itoa(victim.PID()))},
		{"startjob", exec("startjob j")},
		{"stopjob", exec("stopjob j")},
		{"setflags", exec("setflags j receive")},
		{"exit notice", func() {
			ctl.applyStateChange(daemon.StateChange{Machine: "green", PID: pidOf("B", "green"), Reason: "exit 0"})
		}},
		{"lost notice", func() { ctl.noteExchange("red", daemon.ErrExhausted) }},
		{"removeprocess, lost", exec("removeprocess j red " + strconv.Itoa(victim.PID()))},
		{"removeprocess, killed", func() { ctl.Exec("removeprocess j green " + strconv.Itoa(pidOf("B", "green"))) }},
		{"addprocess again", exec("addprocess j red B")},
		{"startjob again", exec("startjob j")},
		{"stopjob again", exec("stopjob j")},
		{"removejob, empty", exec("removejob k")},
		{"removejob, killing", exec("removejob j")},
	}
	for _, st := range steps {
		before := ctl.Jobs()
		st.run()
		got, want := ctl.Jobs(), deepJobs(ctl)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s, Jobs() is not the table:\n got %s\nwant %s", st.name, describeJobs(got), describeJobs(want))
		}
		if reflect.DeepEqual(before, want) {
			t.Fatalf("%s changed nothing Jobs() shows:\n%s", st.name, out.String())
		}
	}
	if len(ctl.Jobs()) != 0 {
		t.Fatalf("jobs left after removejob: %s", describeJobs(ctl.Jobs()))
	}
}

func describeJobs(js []*Job) string {
	s := ""
	for _, j := range js {
		s += "job " + j.Name + " flags " + strconv.Itoa(int(j.Flags)) + " filter log " + strconv.Itoa(j.Filter.LogOffset) + ":"
		for _, p := range j.Procs {
			s += " " + p.Name + "@" + p.Machine + "=" + p.State.String()
		}
		s += "; "
	}
	return s
}

// TestSetFlagsNoAllocBeyondReplies gates a whole `setflags` of a
// six-process job, one process on each of six machines, with the
// controller and the daemons in this one process: the command's
// scatter and gather, six requests each written into its call's frame,
// six daemons reading them out of theirs and answering from a Reply
// value, and six replies read with their "ok" the constant into
// Replies the command gives back. The requests, targets and slots come
// from a recycled scratch, the broadcast's goroutines run one body made
// once, and the daemons copy each request into a recycled one; each
// per-process line boxes its name for fmt. It reads 410-460 bytes and
// 19.1-19.5 allocations, gated at 0.75 kB and 22; with the scratch made
// per call it read 1.7 kB and 30, gated at 2.25 kB and 34; with a Reply and a daemon-side copy and closure per
// request, and the targets grown one by one, it read 3.4 kB and 54,
// gated at 4 kB and 70; with a message and field list between each
// request or reply and its frame it read 7.4 kB and 132.
func TestSetFlagsNoAllocBeyondReplies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	c, ctl, out := newCluster(t, 7)
	c.RegisterProgram("idle", func(*kernel.Process) int { return 0 })
	machines := c.Machines()
	if err := filter.Install(c, machines[6], 0); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f m6")
	ctl.Exec("newjob j")
	for _, m := range machines[:6] {
		if err := m.FS().CreateExecutable("/bin/idle", testUID, "idle"); err != nil {
			t.Fatal(err)
		}
		ctl.Exec(fmt.Sprintf("addprocess j %s /bin/idle", m.Name()))
	}
	if n := len(ctl.Jobs()[0].Procs); n != 6 {
		t.Fatalf("job has %d processes, want 6:\n%s", n, out.String())
	}
	flags := []string{"setflags j send", "setflags j -send"}
	for i := 0; i < 50; i++ {
		ctl.Exec(flags[i%2]) // sessions up, free lists and tables warm
	}
	const calls = 100
	out.mu.Lock()
	out.buf.Reset()
	out.buf.Grow(1 << 20)
	out.mu.Unlock()
	var before, after runtime.MemStats
	runtime.GC() // now, so that none falls inside the runs and empties the pools
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ctl.Exec(flags[i%2])
	}
	runtime.ReadMemStats(&after)
	if text := out.String(); strings.Count(text, "Flags set\n") != 6*calls {
		t.Fatalf("setflags:\n%s", text)
	}
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
	allocs := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("one setflags of six processes allocates %.0f bytes in %.1f allocations", bytes, allocs)
	if bytes > 768 || allocs > 22 {
		t.Errorf("one setflags allocates %.0f bytes in %.1f allocations; want at most 0.75 kB and 22", bytes, allocs)
	}
}

// TestStartJobNoAllocBeyondReplies gates a whole `startjob` of a
// six-process job, one process on each of six machines, both ends
// counted: the command's scatter and gather, six requests each written
// into its call's frame, six daemons each continuing its process, and
// the per-process report. The processes wait on a socket, so a
// `stopjob` between two measured `startjob`s makes each a restart of
// six stopped processes. The command takes its requests, targets and
// slots from a recycled scratch. It reads 340-350 bytes in 18.0-18.2
// allocations, gated at 0.5 kB and 20: the daemons' dispatch of the
// six requests, and the name and verb each per-process line boxes for
// fmt; with its scratch made per call it read 1.6 kB in 30.
func TestStartJobNoAllocBeyondReplies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	c, ctl, out := newCluster(t, 7)
	c.RegisterProgram("wait", func(p *kernel.Process) int {
		if _, b, err := p.SocketPair(); err == nil {
			_, _ = p.Recv(b, 1) // until killed
		}
		return 0
	})
	machines := c.Machines()
	if err := filter.Install(c, machines[6], 0); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f m6")
	ctl.Exec("newjob j")
	for _, m := range machines[:6] {
		if err := m.FS().CreateExecutable("/bin/wait", testUID, "wait"); err != nil {
			t.Fatal(err)
		}
		ctl.Exec(fmt.Sprintf("addprocess j %s /bin/wait", m.Name()))
	}
	if n := len(ctl.Jobs()[0].Procs); n != 6 {
		t.Fatalf("job has %d processes, want 6:\n%s", n, out.String())
	}
	ctl.Exec("startjob j")
	for i := 0; i < 50; i++ { // sessions up, free lists and tables warm
		ctl.Exec("stopjob j")
		ctl.Exec("startjob j")
	}
	const calls = 100
	out.mu.Lock()
	out.buf.Reset()
	out.buf.Grow(1 << 20)
	out.mu.Unlock()
	var bytes, allocs uint64
	runtime.GC() // now, so that none falls inside the runs
	for i := 0; i < calls; i++ {
		ctl.Exec("stopjob j")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ctl.Exec("startjob j")
		runtime.ReadMemStats(&after)
		bytes, allocs = bytes+after.TotalAlloc-before.TotalAlloc, allocs+after.Mallocs-before.Mallocs
	}
	if text := out.String(); strings.Count(text, "' started.\n") != 6*calls {
		t.Fatalf("startjob:\n%s", text)
	}
	b, a := float64(bytes)/calls, float64(allocs)/calls
	t.Logf("one startjob of six processes allocates %.0f bytes in %.1f allocations", b, a)
	if b > 512 || a > 20 {
		t.Errorf("one startjob allocates %.0f bytes in %.1f allocations; want at most 0.5 kB and 20", b, a)
	}
}

// TestApplyStateChangeNoAlloc gates the controller's half of a
// termination notice (the daemon's half is the daemon package's
// TestStateChangeNoAllocBeyondDgramCopy): applying a state change finds
// the process by the notice's machine and pid, marks it killed and
// prints the DONE line, all without allocating. The strings of a notice
// are read in place from the frame it came in, so nothing of it may be
// kept; fmt boxed the line's three strings, 48 bytes a notice.
func TestApplyStateChangeNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	_, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob j")
	ctl.Exec("addprocess j red B")
	js := ctl.Jobs()
	if len(js) != 1 || len(js[0].Procs) != 1 {
		t.Fatalf("jobs %s:\n%s", describeJobs(js), out.String())
	}
	sc := daemon.StateChange{Machine: "red", PID: js[0].Procs[0].PID, Reason: "normal"}
	out.mu.Lock()
	out.buf.Reset()
	out.buf.Grow(1 << 16)
	out.mu.Unlock()
	if a := testing.AllocsPerRun(100, func() { ctl.applyStateChange(sc) }); a != 0 {
		t.Errorf("applying a state change allocates %.1f times, want 0", a)
	}
	if want := "DONE: process B in job 'j' terminated: reason: normal\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("output %q, want lines of %q", out.String(), want)
	}
}
