package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpm/internal/controller"
	"dpm/internal/core"
	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
)

// terminal is a controller's output device. The controller's command
// goroutine and its notification drainers both write to it, so it
// locks; take drains it so thousands of commands do not accumulate.
type terminal struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (t *terminal) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

func (t *terminal) take() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.buf.String()
	t.buf.Reset()
	return s
}

// rig is one booted cluster with a controller on it.
type rig struct {
	sys  *core.System
	ctl  *controller.Controller
	term *terminal
	tr   *tracer
	// home is the controller's machine, where query results land.
	home *kernel.Machine
}

// boot starts a system of the named machines with the controller on
// the last one. Clocks keep their default skew: the monitor is meant
// to cope with it.
func boot(tr *tracer, machines ...string) (*rig, error) {
	sys, err := core.NewSystem(core.Config{Machines: machines})
	if err != nil {
		return nil, err
	}
	r := &rig{sys: sys, term: &terminal{}, tr: tr}
	r.ctl, err = sys.NewController(machines[len(machines)-1], r.term)
	if err != nil {
		sys.Shutdown()
		return nil, err
	}
	r.home = r.machine(machines[len(machines)-1])
	return r, nil
}

func (r *rig) shutdown() { r.sys.Shutdown() }

func (r *rig) machine(name string) *kernel.Machine {
	m, err := r.sys.Machine(name)
	if err != nil {
		panic(err) // a bug: the harness names only machines it booted
	}
	return m
}

// exec runs one controller command and returns what it printed.
// Termination notices that arrived meanwhile are returned with it.
func (r *rig) exec(cmd string) string {
	r.ctl.Exec(cmd)
	return r.term.take()
}

// timed is exec under a controller-layer span, returning the command's
// duration as the user at the terminal would see it.
func (r *rig) timed(class, cmd string) (string, time.Duration) {
	sp := r.tr.begin("controller", class, 0)
	start := time.Now()
	r.ctl.Exec(cmd)
	d := time.Since(start)
	sp.end()
	return r.term.take(), d
}

// script runs set-up commands, failing on the first whose output shows
// the controller refused it.
func (r *rig) script(cmds ...string) error {
	for _, c := range cmds {
		out := r.exec(c)
		for _, bad := range []string{" not ", "no filter", "no job", "usage:", "unknown"} {
			if strings.Contains(out, bad) {
				return fmt.Errorf("%q: %s", c, strings.TrimSpace(out))
			}
		}
	}
	return nil
}

func (r *rig) counter(machine, name string) int64 {
	return r.machine(machine).Obs().Counter(name).Load()
}

// waitCounter polls a counter on a machine's registry until it reaches
// want. Reading one atomic is cheap enough to do every half
// millisecond without disturbing what is being measured.
func (r *rig) waitCounter(machine, name string, want int64, timeout time.Duration) error {
	c := r.machine(machine).Obs().Counter(name)
	deadline := time.Now().Add(timeout)
	for c.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s on %s stuck at %d of %d after %v", name, machine, c.Load(), want, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// waitJob spins until every process of the job is killed. It yields
// instead of sleeping: core.WaitJob's 1 ms sleep would dominate a job
// that lasts a fraction of that.
func waitJob(ctl *controller.Controller, job string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for spins := 0; ; spins++ {
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
			return nil
		}
		if spins%64 == 63 && time.Now().After(deadline) {
			return fmt.Errorf("job %q not finished after %v", job, timeout)
		}
		runtime.Gosched()
	}
}

// awaitJob waits for every process of the job to be killed without
// competing for a processor with what is being measured: where jobs
// last seconds, looking every half millisecond is soon enough.
func awaitJob(ctl *controller.Controller, job string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := false
		for _, j := range ctl.Jobs() {
			if j.Name != job {
				continue
			}
			done = true
			for _, p := range j.Procs {
				done = done && p.State == controller.StateKilled
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %q not finished after %v", job, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// diskBytes is what a filter has written on its machine's simulated
// file system: every store segment plus the flat log.
func (r *rig) diskBytes(machine, filterName string) (storeBytes, logBytes int64) {
	fs := r.machine(machine).FS()
	for _, p := range fs.List(filter.StorePath(filterName) + "/") {
		if f, err := fs.Stat(p); err == nil {
			storeBytes += int64(len(f.Data))
		}
	}
	if f, err := fs.Stat(filter.LogPath(filterName)); err == nil {
		logBytes = int64(len(f.Data))
	}
	return storeBytes, logBytes
}

// resultFile is the user reading back what a query left on the
// controller's machine. A missing file reads as empty, which fails the
// comparison with the reference.
func (r *rig) resultFile(dest string) []byte {
	if dest == "" {
		return nil
	}
	data, err := r.home.FS().Read("/usr/"+dest, r.sys.UID)
	if err != nil {
		return nil
	}
	return data
}

// readLog reads a filter's flat log once it holds want lines. The log
// has its own writer behind the store's, so it can trail the
// store.appends counter by a batch or two; after a few seconds it is
// returned as it is, for the caller's count to fail on.
func (r *rig) readLog(machine, filterName string, want int64) ([]byte, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := r.machine(machine).FS().Read(filter.LogPath(filterName), fsys.Superuser)
		if err == nil && int64(bytes.Count(data, []byte{'\n'})) >= want || time.Now().After(deadline) {
			return data, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// usage is a reading of the process-wide meters a measured phase is
// charged against.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// phase is the difference of two usage readings: what a measured phase
// cost, and when it ran.
type phase struct {
	from, to time.Time
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
}

func (u usage) since(start usage) phase {
	return phase{from: start.at, to: u.at, wall: u.at.Sub(start.at), cpu: u.cpu - start.cpu, alloc: u.alloc - start.alloc}
}

// statsComplete reports whether a cluster-wide stats command heard
// from every machine.
func statsComplete(out string, machines int) bool {
	return strings.Contains(out, fmt.Sprintf("stats: %d/%d machines reporting", machines, machines))
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // a hash's Write cannot fail
	return h.Sum64()
}
