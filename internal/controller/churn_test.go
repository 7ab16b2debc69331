package controller

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dpm/internal/filter"
	"dpm/internal/kernel"
)

// churnWorker is a short process that talks to itself over a socketpair
// and exits.
func churnWorker(p *kernel.Process) int {
	a, b, err := p.SocketPair()
	if err != nil {
		return 1
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Send(a, []byte("churn")); err != nil {
			return 1
		}
		if _, err := p.Recv(b, 5); err != nil {
			return 1
		}
	}
	return 0
}

// TestJobChurnNoAllocGrowthWithAge: a job costs the controller, the
// daemons and the filter what it cost when they were young, and leaves
// nothing behind. Five hundred six-process jobs, one process on each of
// six machines, go through newjob, addprocess, setflags, startjob, the
// wait for all six to end, and removejob. The bytes and allocations a
// job costs over jobs 450–500 must be within 10 % of those over jobs
// 50–100, and the bytes at most 26 kB a job: it reads about 22 kB in
// 420 allocations in either window, where the same jobs cost about
// 39 kB in 590 before a process, its sockets, a request's dispatch and
// a reply stopped allocating per call. After every removejob the job
// table is empty, and every machine's process table and socket count
// are what they were after the first job.
func TestJobChurnNoAllocGrowthWithAge(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	c, ctl, out := newCluster(t, 8)
	c.RegisterProgram("worker", churnWorker)
	machines := c.Machines()
	if err := filter.Install(c, machines[6], 0); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f m6")
	for _, m := range machines[:6] {
		if err := m.FS().CreateExecutable("/bin/worker", testUID, "worker"); err != nil {
			t.Fatal(err)
		}
	}

	type footprint struct {
		procs   int
		sockets int64
	}
	footprints := func() []footprint {
		fp := make([]footprint, len(machines))
		for i, m := range machines {
			fp[i].procs = len(m.Procs())
			fp[i].sockets, _ = m.Footprint()
		}
		return fp
	}
	const jobs = 500
	cmds := make([][]string, jobs)
	for j := range cmds {
		name := fmt.Sprintf("j%d", j)
		cmds[j] = []string{"newjob " + name}
		for w := 0; w < 6; w++ {
			cmds[j] = append(cmds[j], fmt.Sprintf("addprocess %s m%d /bin/worker", name, w))
		}
		cmds[j] = append(cmds[j], "setflags "+name+" termproc", "startjob "+name)
	}
	// job runs job j and returns the bytes and allocations it cost, the
	// wait for its processes included and the checks after it not.
	job := func(j int) (bytes, allocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, cmd := range cmds[j] {
			ctl.Exec(cmd)
		}
		name := cmds[j][0][len("newjob "):]
		deadline := time.Now().Add(10 * time.Second)
		for !jobEnded(ctl, name) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not end:\n%s", name, out.String())
			}
			runtime.Gosched()
		}
		ctl.Exec("removejob " + name)
		runtime.ReadMemStats(&after)
		if text := out.String(); strings.Count(text, "reason: normal") != 6 || strings.Count(text, "' removed\n") != 6 {
			t.Fatalf("job %s:\n%s", name, text)
		}
		out.mu.Lock()
		out.buf.Reset()
		out.mu.Unlock()
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	// The first job dials the sessions and notification connections
	// that the later ones reuse; the filter holds no connection between
	// jobs, so its machine is back where it was once the filter has
	// closed the first job's meter connections. Where it was is taken
	// once the filter, which starts after the filter command returns,
	// has made its listening socket.
	filters := ctl.Filters()
	if len(filters) != 1 {
		t.Fatalf("the controller knows %d filters, want 1:\n%s", len(filters), out.String())
	}
	for deadline := time.Now().Add(10 * time.Second); !machines[6].PortBound(kernel.SockStream, filters[0].Port); {
		if time.Now().After(deadline) {
			t.Fatalf("filter f never listened on port %d", filters[0].Port)
		}
		runtime.Gosched()
	}
	filterMachine := footprints()[6]
	job(0)
	base := footprints()
	for deadline := time.Now().Add(10 * time.Second); base[6] != filterMachine; base = footprints() {
		if time.Now().After(deadline) {
			t.Fatalf("the filter machine holds %v after the first job, not the %v before it", base[6], filterMachine)
		}
		runtime.Gosched()
	}
	type window struct{ bytes, allocs uint64 }
	var young, old window
	for j := 1; j < jobs; j++ {
		b, a := job(j)
		switch {
		case j >= 50 && j < 100:
			young.bytes, young.allocs = young.bytes+b, young.allocs+a
		case j >= 450:
			old.bytes, old.allocs = old.bytes+b, old.allocs+a
		}
		if n := len(ctl.Jobs()); n != 0 {
			t.Fatalf("after removejob %d the job table holds %d jobs", j, n)
		}
		deadline := time.Now().Add(10 * time.Second)
		for fp := footprints(); !slices.Equal(fp, base); fp = footprints() {
			if time.Now().After(deadline) {
				t.Fatalf("after job %d the machines' processes and sockets are %v, not the %v after the first", j, fp, base)
			}
			runtime.Gosched()
		}
	}
	per := func(w window) (float64, float64) { return float64(w.bytes) / 50, float64(w.allocs) / 50 }
	yb, ya := per(young)
	ob, oa := per(old)
	t.Logf("a job costs %.0f bytes in %.1f allocations over jobs 50-100, %.0f bytes in %.1f over jobs 450-500", yb, ya, ob, oa)
	if ob > 1.1*yb || oa > 1.1*ya {
		t.Errorf("a job costs %.0f bytes in %.1f allocations over jobs 450-500, more than 10%% over the %.0f in %.1f over jobs 50-100", ob, oa, yb, ya)
	}
	if yb > 26<<10 || ob > 26<<10 {
		t.Errorf("a job costs %.0f and %.0f bytes; want at most 26 kB", yb, ob)
	}
}

// jobEnded reports whether every process of the job has ended.
func jobEnded(ctl *Controller, name string) bool {
	for _, j := range ctl.Jobs() {
		if j.Name != name {
			continue
		}
		for _, p := range j.Procs {
			if p.State != StateKilled {
				return false
			}
		}
		return true
	}
	return false
}
