package controller

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"dpm/internal/agg"
	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
)

// This file implements the control commands of the user's manual
// (section 4.3), with the output shapes of the Appendix B transcript.

func (c *Controller) cmdHelp() {
	c.printf(`Commands:
  help                                               this menu
  filter [name [machine [filterfile [descr [tmpl]]]]] create a filter, or list filters
  newjob name [filtername]                           create a job
  addprocess name machine processfile [parms...]     add a process to a job
  acquire name machine pid                           meter an existing process
  setflags name flag1 [flag2...]                     set metering flags on a job
  startjob name                                      start a job's processes
  stopjob name                                       stop a job's processes
  removejob name                                     remove a completed job
  removeprocess name machine pid                     remove one process
  jobs [name...]                                     show job status
  status                                             show per-machine reachability
  stats [machine|jobname]                            show merged per-machine metrics
  ps machine                                         list a machine's processes
  stdin jobname machine pid word...                  send input to a process
  getlog filtername destfile                         retrieve a filter's trace log (incremental)
  query filtername destfile [rule...]                query a filter's event store
  query name|all destfile [rule...] agg ...          aggregate at the data (see docs/query.md)
  watch rounds intervalms command...                 re-run a command on an interval
  source filename                                    run a command script
  sink [filename]                                    redirect command output
  die                                                exit the controller
Meter flags:
  %s
`, strings.Join(meter.AllFlagNames(), " "))
}

// cmdFilter creates a filter process or, with no parameters, lists the
// existing filters (section 4.3).
func (c *Controller) cmdFilter(args []string) {
	if len(args) == 0 {
		c.mu.Lock()
		for _, n := range c.filterOrder {
			f := c.filters[n]
			c.mu.Unlock()
			c.printf("%d '%s' on %s\n", f.PID, f.Name, f.Machine)
			c.mu.Lock()
		}
		c.mu.Unlock()
		return
	}
	name := args[0]
	machineName := c.machine.Name()
	if len(args) > 1 {
		machineName = args[1]
	}
	filterFile := defaultFilterFile
	if len(args) > 2 {
		filterFile = resolvePath(args[2])
	}
	descFile, tmplFile := "", ""
	if len(args) > 3 {
		descFile = resolvePath(args[3])
	}
	if len(args) > 4 {
		tmplFile = resolvePath(args[4])
	}

	c.mu.Lock()
	if _, dup := c.filters[name]; dup {
		c.mu.Unlock()
		c.printf("filter '%s' already exists\n", name)
		return
	}
	c.nextPort++
	port := c.nextPort
	c.mu.Unlock()

	if err := c.ensureFile(machineName, filterFile); err != nil {
		c.printf("filter '%s' not created: %v\n", name, err)
		return
	}
	req := &daemon.CreateReq{
		Filename:    filterFile,
		Params:      []string{name, strconv.Itoa(int(port)), descFile, tmplFile},
		ControlPort: c.notifyPort,
		ControlHost: c.machine.Name(),
		UID:         c.uid,
		Token:       string(c.appendToken(nil)),
	}
	rep, err := c.exchange(machineName, req)
	if err != nil {
		c.printf("filter '%s' not created: %v\n", name, err)
		return
	}
	defer rep.Release()
	if !rep.OK() {
		c.printf("filter '%s' not created: %s\n", name, rep.Status)
		return
	}
	// Processes are created suspended; a filter should run at once.
	srep, err := c.exchange(machineName, &daemon.ProcReq{Type: daemon.TStartReq, PID: rep.PID, UID: c.uid})
	if err != nil || !srep.OK() {
		srep.Release()
		c.printf("filter '%s' not started\n", name)
		return
	}
	srep.Release()
	info := &FilterInfo{Name: name, PID: rep.PID, Machine: machineName, Port: port}
	c.mu.Lock()
	c.filters[name] = info
	c.filterOrder = append(c.filterOrder, name)
	if c.defaultFilter == "" {
		c.defaultFilter = name
	}
	c.mu.Unlock()
	c.printf("filter '%s' ... created: identifier = %d\n", name, rep.PID)
}

// ensureFile copies a file to the target machine if it is present
// locally but missing there — the rcp fallback of section 3.5.3.
func (c *Controller) ensureFile(machineName, path string) error {
	target, err := c.cluster.Machine(machineName)
	if err != nil {
		return err
	}
	if target.FS().Exists(path) {
		return nil
	}
	if !c.machine.FS().Exists(path) {
		return fmt.Errorf("%s not found on %s or locally", path, machineName)
	}
	path = strings.Clone(path) // the target keeps it; the caller's may be scratch
	return c.cluster.Rcp(c.machine.Name(), path, machineName, path, c.uid)
}

func (c *Controller) cmdNewJob(args []string) {
	if len(args) < 1 || len(args) > 2 {
		c.printf("usage: newjob jobname [filtername]\n")
		return
	}
	name := args[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.jobs[name]; dup {
		fmt.Fprintf(c.sink, "job '%s' already exists\n", name)
		return
	}
	// "A job cannot be created if a filter has not been created."
	fname := c.defaultFilter
	if len(args) == 2 {
		fname = args[1]
	}
	f, ok := c.filters[fname]
	if !ok {
		fmt.Fprintf(c.sink, "no filter; create a filter before newjob\n")
		return
	}
	c.nextJobNo++
	c.jobs[name] = &Job{Name: name, Filter: f}
	c.jobOrder = append(c.jobOrder, name)
	c.jobsView.Store(nil)
}

func (c *Controller) cmdAddProcess(s *scratch, args []string) {
	if len(args) < 3 {
		c.printf("usage: addprocess jobname machine processfile [parms...]\n")
		return
	}
	jobName, machineName := args[0], args[1]
	// The path and the token are read from s.text until the exchange
	// has written them: the daemon and an rcp copy what they keep.
	if s.text = append(s.text[:0], "/bin/"...); strings.HasPrefix(args[2], "/") {
		s.text = s.text[:0]
	}
	s.text = append(s.text, args[2]...)
	n := len(s.text)
	s.text = c.appendToken(s.text)
	procFile, token := unsafe.String(&s.text[0], n), unsafe.String(&s.text[n], len(s.text)-n)
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	flags := uint32(0)
	var fi *FilterInfo
	if ok {
		flags = uint32(job.Flags)
		fi = job.Filter
	}
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	if err := c.ensureFile(machineName, procFile); err != nil {
		c.printf("process '%s' not created: %v\n", args[2], err)
		return
	}
	s.create = daemon.CreateReq{
		Filename:    procFile,
		Params:      args[3:],
		FilterPort:  fi.Port,
		FilterHost:  fi.Machine,
		MeterFlags:  flags,
		ControlPort: c.notifyPort,
		ControlHost: c.machine.Name(),
		UID:         c.uid,
		Token:       token,
	}
	rep, err := c.exchange(machineName, &s.create)
	if err != nil {
		c.printf("process '%s' not created: %v\n", args[2], err)
		return
	}
	defer rep.Release()
	if !rep.OK() {
		c.printf("process '%s' not created: %s\n", args[2], rep.Status)
		return
	}
	c.mu.Lock()
	// "A process does not begin executing at this time, and its
	// process state is new. The process is connected to jobname's
	// filter and inherits the flags of job jobname."
	job.Procs = append(job.Procs, &JobProc{
		Name: args[2], PID: rep.PID, Machine: machineName,
		State: StateNew, Flags: meter.Flag(flags),
	})
	c.jobsView.Store(nil)
	c.mu.Unlock()
	c.printf("process '%s' ... created: identifier = %d\n", args[2], rep.PID)
}

func (c *Controller) cmdAcquire(args []string) {
	if len(args) != 3 {
		c.printf("usage: acquire jobname machine pid\n")
		return
	}
	jobName, machineName := args[0], args[1]
	pid, err := strconv.Atoi(args[2])
	if err != nil {
		c.printf("bad process identifier '%s'\n", args[2])
		return
	}
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	var flags uint32
	var fi *FilterInfo
	if ok {
		flags = uint32(job.Flags)
		fi = job.Filter
	}
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	req := &daemon.ProcReq{
		Type: daemon.TAcquireReq, PID: pid, UID: c.uid,
		Flags: flags, FilterPort: fi.Port, FilterHost: fi.Machine,
	}
	rep, err := c.exchange(machineName, req)
	if err != nil {
		c.printf("process %d not acquired: %v\n", pid, err)
		return
	}
	defer rep.Release()
	if !rep.OK() {
		c.printf("process %d not acquired: %s\n", pid, rep.Status)
		return
	}
	c.mu.Lock()
	job.Procs = append(job.Procs, &JobProc{
		Name: strconv.Itoa(pid), PID: pid, Machine: machineName,
		State: StateAcquired, Flags: meter.Flag(flags),
	})
	c.jobsView.Store(nil)
	c.mu.Unlock()
	c.printf("process %d ... acquired\n", pid)
}

func (c *Controller) cmdSetFlags(s *scratch, args []string) {
	if len(args) < 2 {
		c.printf("usage: setflags jobname flag1 [flag2...]\n")
		return
	}
	jobName := args[0]
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	// "The effect of setflags is to record the flag set ... and then
	// set the flags for each process which is part of jobname." Flags
	// accumulate: the active set is the union unless reset with '-'.
	c.mu.Lock()
	flags := job.Flags
	c.mu.Unlock()
	for _, tok := range args[1:] {
		bits, clear, err := meter.ParseFlag(tok)
		if err != nil {
			c.printf("%v\n", err)
			return
		}
		if clear {
			flags &^= bits
		} else {
			flags |= bits
		}
	}
	c.mu.Lock()
	job.Flags = flags
	c.jobsView.Store(nil)
	s.procs = append(s.procs, job.Procs...)
	c.mu.Unlock()
	c.printf("new job flags = %s\n", strings.Join(flags.FlagNames(), " "))
	// Scatter the per-process flag updates, gather the per-process
	// report in table order.
	s.reqs = slices.Grow(s.reqs, len(s.procs)) // the targets point into it
	for i, p := range s.procs {
		s.reqs = append(s.reqs, daemon.ProcReq{Type: daemon.TSetFlagsReq, PID: p.PID, UID: c.uid, Flags: uint32(flags)})
		s.targets = append(s.targets, target{Label: p.Name, Host: p.Machine, Req: &s.reqs[i]})
	}
	for i, r := range s.scatter() {
		switch p := s.procs[i]; {
		case r.Err != nil:
			c.printf("Process '%s' : %v\n", p.Name, r.Err)
		case !r.Rep.OK():
			c.printf("Process '%s' : %s\n", p.Name, r.Rep.Status)
		default:
			c.mu.Lock()
			p.Flags = flags
			c.jobsView.Store(nil)
			c.mu.Unlock()
			c.printf("Process '%s' : Flags set\n", p.Name)
		}
	}
}

// signalJob implements startjob and stopjob (cmd): every process in an
// eligible state is signaled, and the user is informed of each
// process's status.
func (c *Controller) signalJob(s *scratch, cmd string, args []string, to State, reqType daemon.MsgType, verb string) {
	if len(args) != 1 {
		c.printf("usage: %s jobname\n", cmd)
		return
	}
	jobName := args[0]
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	if ok {
		s.procs = append(s.procs, job.Procs...)
		for _, p := range s.procs {
			s.from = append(s.from, p.State)
		}
	}
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	// Scatter: every eligible process is signaled concurrently, so one
	// dead machine's retries no longer serialize the rest of the job.
	// Gather: the per-process report still prints in table order (the
	// Appendix B transcript shape), whatever order the replies land.
	procs, from := s.procs, s.from
	s.reqs = slices.Grow(s.reqs, len(procs)) // the targets point into it
	for i, p := range procs {
		if CanTransition(from[i], to) {
			s.reqs = append(s.reqs, daemon.ProcReq{Type: reqType, PID: p.PID, UID: c.uid})
			s.targets = append(s.targets, target{Label: p.Name, Host: p.Machine, Req: &s.reqs[len(s.reqs)-1]})
		}
	}
	res := s.scatter()
	for i, p := range procs {
		if !CanTransition(from[i], to) {
			// "Processes that are running, killed, or acquired cannot
			// be started"; stopjob ignores killed and acquired.
			c.printf("'%s' not %s (%s).\n", p.Name, verb, from[i])
			continue
		}
		r := res[0]
		res = res[1:]
		switch {
		case r.Err != nil:
			c.printf("'%s' not %s: %v\n", p.Name, verb, r.Err)
		case !r.Rep.OK():
			c.printf("'%s' not %s: %s\n", p.Name, verb, r.Rep.Status)
		default:
			c.mu.Lock()
			// The process may have terminated in the meantime; never
			// overwrite killed.
			if p.State == from[i] {
				p.State = to
				c.jobsView.Store(nil)
			}
			c.mu.Unlock()
			c.printf("'%s' %s.\n", p.Name, verb)
		}
	}
}

// removeProc performs the per-process half of removejob: stopped
// processes are killed (stopped→killed is a legal Figure 4.2 edge),
// acquired processes have their filter connection taken down but
// continue to execute. A lost process gets a best-effort kill: if its
// machine answers, the process returns to a known (killed) state; if
// not, it stays lost and the removal fails.
func (c *Controller) removeProc(p *JobProc) bool {
	switch p.State {
	case StateKilled:
		return true
	case StateStopped, StateLost:
		rep, err := c.exchange(p.Machine, &daemon.ProcReq{Type: daemon.TKillReq, PID: p.PID, UID: c.uid})
		ok := err == nil && rep.OK()
		rep.Release()
		if !ok {
			return false
		}
		c.mu.Lock()
		p.State = StateKilled
		c.jobsView.Store(nil)
		c.mu.Unlock()
		return true
	case StateAcquired:
		rep, err := c.exchange(p.Machine, &daemon.ProcReq{Type: daemon.TReleaseReq, PID: p.PID, UID: c.uid})
		defer rep.Release()
		return err == nil && rep.OK()
	default:
		return false
	}
}

func (c *Controller) cmdRemoveJob(s *scratch, args []string) {
	if len(args) != 1 {
		c.printf("usage: removejob jobname\n")
		return
	}
	jobName := args[0]
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	if ok {
		s.procs = append(s.procs, job.Procs...)
	}
	procs := s.procs
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	// "A job can only be removed if all of its processes are in one of
	// the states killed, stopped, or acquired."
	for _, p := range procs {
		c.mu.Lock()
		st := p.State
		c.mu.Unlock()
		if st == StateRunning || st == StateNew {
			c.printf("job '%s' not removed: process '%s' is %s\n", jobName, p.Name, st)
			return
		}
	}
	allRemoved := true
	for _, p := range procs {
		if c.removeProc(p) {
			c.printf("'%s' removed\n", p.Name)
		} else {
			c.printf("'%s' not removed\n", p.Name)
			allRemoved = false
		}
	}
	// Keep the job while any process resisted removal (a lost process
	// on an unreachable machine, say) — deleting it would orphan the
	// controller's only record of that process.
	if !allRemoved {
		c.printf("job '%s' not removed\n", jobName)
		return
	}
	c.mu.Lock()
	delete(c.jobs, jobName)
	for i, n := range c.jobOrder {
		if n == jobName {
			c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
			break
		}
	}
	c.jobsView.Store(nil)
	c.mu.Unlock()
}

func (c *Controller) cmdRemoveProcess(args []string) {
	if len(args) != 3 {
		c.printf("usage: removeprocess jobname machine pid\n")
		return
	}
	jobName, machineName := args[0], args[1]
	pid, err := strconv.Atoi(args[2])
	if err != nil {
		c.printf("bad process identifier '%s'\n", args[2])
		return
	}
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	var target *JobProc
	if ok {
		target = job.proc(machineName, pid)
	}
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	if target == nil {
		c.printf("no process %d on %s in job '%s'\n", pid, machineName, jobName)
		return
	}
	c.mu.Lock()
	st := target.State
	c.mu.Unlock()
	if st == StateRunning || st == StateNew {
		c.printf("process '%s' not removed: it is %s\n", target.Name, st)
		return
	}
	if !c.removeProc(target) {
		c.printf("'%s' not removed\n", target.Name)
		return
	}
	c.mu.Lock()
	for i, p := range job.Procs {
		if p == target {
			job.Procs = append(job.Procs[:i], job.Procs[i+1:]...)
			break
		}
	}
	c.jobsView.Store(nil)
	c.mu.Unlock()
	c.printf("'%s' removed\n", target.Name)
}

// jobTrouble lists the unreachable machines a job depends on — its
// processes' machines plus its filter's. Callers hold c.mu.
func (c *Controller) jobTrouble(j *Job) []string {
	var out []string
	seen := map[string]bool{}
	note := func(m string) {
		if c.unreachable[m] && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	note(j.Filter.Machine)
	for _, p := range j.Procs {
		note(p.Machine)
	}
	return out
}

func (c *Controller) cmdJobs(args []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(args) == 0 {
		// "a list of the current jobs ... the number, the name, and
		// the filter for each job." A job touching an unreachable
		// machine is flagged degraded.
		for i, n := range c.jobOrder {
			j := c.jobs[n]
			tag := ""
			if len(c.jobTrouble(j)) > 0 {
				tag = " [degraded]"
			}
			fmt.Fprintf(c.sink, "%d '%s' filter '%s'%s\n", i+1, j.Name, j.Filter.Name, tag)
		}
		return
	}
	for _, n := range args {
		j, ok := c.jobs[n]
		if !ok {
			fmt.Fprintf(c.sink, "no job '%s'\n", n)
			continue
		}
		fmt.Fprintf(c.sink, "job '%s':\n", n)
		for _, p := range j.Procs {
			fmt.Fprintf(c.sink, "  %d %s '%s' on %s flags = %s\n",
				p.PID, p.State, p.Name, p.Machine, strings.Join(p.Flags.FlagNames(), " "))
		}
		for _, m := range c.jobTrouble(j) {
			fmt.Fprintf(c.sink, "  degraded: machine %s unreachable\n", m)
		}
	}
}

// cmdStatus probes each machine's meterdaemon and reports per-machine
// reachability — the operator's view of the control plane. All
// machines are probed concurrently (one broadcast, roughly one round
// trip) and the report prints in machine order. Probing goes through
// the normal exchange path, so a machine that fails its probe is
// marked unreachable (and its processes lost), and a machine that
// answers is marked reachable again.
func (c *Controller) cmdStatus(s *scratch) {
	machines := c.cluster.Machines()
	var remote []string
	for _, m := range machines {
		if m.Name() != c.machine.Name() {
			remote = append(remote, m.Name())
		}
	}
	res := s.broadcast(remote, &daemon.ProcReq{Type: daemon.TListReq, UID: c.uid})
	for _, m := range machines { // res in the same order
		switch name := m.Name(); {
		case name == c.machine.Name():
			c.printf("machine %s: reachable (controller)\n", name)
		case res[0].Err != nil:
			res = res[1:]
			c.printf("machine %s: unreachable\n", name)
		default:
			res = res[1:]
			c.printf("machine %s: reachable\n", name)
		}
	}
}

// cmdStats fetches each target machine's metrics snapshot over the
// daemon wire (TStatsReq), merges the replies, and renders the
// aggregate report: counters, gauges, and latency histograms with
// p50/p95/p99. With no argument every machine in the cluster reports;
// a machine name narrows the set to that machine, and a job name
// narrows it to the machines the job's processes and filter run on. A
// machine that does not answer within the retry policy degrades the
// report — it is listed as missing — rather than hanging the command. A
// law of obs's conservation table the merged counters break ends the
// report with a warning row.
func (c *Controller) cmdStats(s *scratch, args []string) {
	if len(args) > 1 {
		c.printf("usage: stats [machine|jobname]\n")
		return
	}
	targets, err := c.statsTargets(args)
	if err != nil {
		c.printf("stats: %v\n", err)
		return
	}
	// One broadcast instead of a machine-by-machine poll: the fan-out
	// takes roughly one round trip, and the merge below walks the
	// gathered slots in target order so the report is deterministic.
	res := s.broadcast(targets, &daemon.StatsReq{UID: c.uid})
	var buf bytes.Buffer
	last := int(c.statsLen.Load())
	buf.Grow(last + last/16)
	statsReport(&buf, targets, res) // from the replies in place
	c.statsLen.Store(int64(buf.Len()))
	c.write(buf.Bytes())
}

// statsReport writes the stats report of the replies res to the
// targets into buf: the reporting and missing machines, then the
// snapshots merged and rendered in one walk over the replies' bytes,
// where they landed (obs.AppendReport), and a warning row for each
// conservation law the merged counters break. A reply that is not a
// snapshot counts its machine missing.
func statsReport(buf *bytes.Buffer, targets []string, res []hostResult) {
	// A cluster's worth of replies and names are listed on the stack.
	var snapsArr [16][]byte
	var reportingArr [16]string
	snaps, reporting := snapsArr[:0], reportingArr[:0]
	var missing []string
	for _, r := range res {
		if r.Err != nil || !r.Rep.OK() || obs.CheckSnapshot(r.Rep.DataBytes()) != nil {
			missing = append(missing, r.Host)
			continue
		}
		reporting = append(reporting, r.Host)
		snaps = append(snaps, r.Rep.DataBytes())
	}
	fmt.Fprintf(buf, "stats: %d/%d machines reporting (%s)\n",
		len(reporting), len(targets), strings.Join(reporting, " "))
	if len(missing) > 0 {
		fmt.Fprintf(buf, "stats: degraded, missing %s\n", strings.Join(missing, " "))
	}
	if len(snaps) == 0 {
		return
	}
	b, residuals, _ := obs.AppendReport(buf.AvailableBuffer(), snaps...)
	buf.Write(b)
	for _, r := range residuals {
		fmt.Fprintf(buf, "WARNING: conservation: %s is off by %d\n", r.Name, r.Value)
	}
}

// statsTargets resolves the stats command's optional argument to the
// machines to poll.
func (c *Controller) statsTargets(args []string) ([]string, error) {
	if len(args) == 0 {
		var all []string
		for _, m := range c.cluster.Machines() {
			all = append(all, m.Name())
		}
		return all, nil
	}
	name := args[0]
	c.mu.Lock()
	j := c.jobs[name]
	c.mu.Unlock()
	if j != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		seen := make(map[string]bool)
		var targets []string
		for _, p := range j.Procs {
			if !seen[p.Machine] {
				seen[p.Machine] = true
				targets = append(targets, p.Machine)
			}
		}
		if j.Filter != nil && !seen[j.Filter.Machine] {
			targets = append(targets, j.Filter.Machine)
		}
		return targets, nil
	}
	if _, err := c.cluster.Machine(name); err == nil {
		return []string{name}, nil
	}
	return nil, fmt.Errorf("no machine or job named '%s'", name)
}

// cmdPs lists the processes on a machine (pid, uid, name) through its
// meterdaemon — an extension to the paper's command set so the user
// can find the identifier the acquire command needs.
func (c *Controller) cmdPs(args []string) {
	if len(args) != 1 {
		c.printf("usage: ps machine\n")
		return
	}
	rep, err := c.exchange(args[0], &daemon.ProcReq{Type: daemon.TListReq, UID: c.uid})
	if err != nil {
		c.printf("ps: %v\n", err)
		return
	}
	defer rep.Release()
	if !rep.OK() {
		c.printf("ps: %s\n", rep.Status)
		return
	}
	c.printf("%s", rep.Data)
}

// cmdStdin sends input to a process's standard input — the reverse of
// the output-forwarding path: the daemon delivers the text through the
// process's I/O gateway socket (section 3.5.2).
func (c *Controller) cmdStdin(args []string) {
	if len(args) < 4 {
		c.printf("usage: stdin jobname machine pid word [word...]\n")
		return
	}
	jobName, machineName := args[0], args[1]
	pid, err := strconv.Atoi(args[2])
	if err != nil {
		c.printf("bad process identifier '%s'\n", args[2])
		return
	}
	c.mu.Lock()
	job, ok := c.jobs[jobName]
	var target *JobProc
	if ok {
		target = job.proc(machineName, pid)
	}
	c.mu.Unlock()
	if !ok {
		c.printf("no job '%s'\n", jobName)
		return
	}
	if target == nil {
		c.printf("no process %d on %s in job '%s'\n", pid, machineName, jobName)
		return
	}
	text := strings.Join(args[3:], " ") + "\n"
	rep, err := c.exchange(machineName, &daemon.ProcReq{Type: daemon.TStdinReq, PID: pid, UID: c.uid, Path: text})
	defer rep.Release()
	switch {
	case err != nil:
		c.printf("stdin: %v\n", err)
	case !rep.OK():
		c.printf("stdin: %s\n", rep.Status)
	}
}

// cmdGetLog retrieves a filter's log, incrementally when possible: the
// controller remembers how many bytes it has already fetched into the
// destination (and their CRC), asks the daemon for only the bytes past
// that offset, and appends them. A reply carries a bounded chunk, the
// file's total size and the CRC of the prefix the offset skipped; the
// controller verifies that prefix against its own, appends, advances,
// and asks again until it holds the total — so a log of any size, or
// any amount of new log, arrives as a sequence of exchanges each well
// inside the wire bound, and a copy cut short resumes where it stopped.
// A prefix that no longer matches (the log was rewritten in place, as
// the counting filter does every batch) or an offset the log has shrunk
// below falls back to a full transfer from the top.
func (c *Controller) cmdGetLog(args []string) {
	if len(args) != 2 {
		c.printf("usage: getlog filtername destfile\n")
		return
	}
	dest := args[1]
	if !strings.HasPrefix(dest, "/") {
		dest = "/usr/" + dest
	}
	c.mu.Lock()
	f, ok := c.filters[args[0]]
	var off int
	var prefixCRC uint32
	if ok && f.LogDest == dest {
		// Same destination as last time: resume. Any other destination
		// is a different file, fetched from the top.
		off, prefixCRC = f.LogOffset, f.LogCRC
	}
	c.mu.Unlock()
	if !ok {
		c.printf("no filter '%s'\n", args[0])
		return
	}

	req := &daemon.ProcReq{Type: daemon.TGetFileReq, UID: c.uid, Path: filter.LogPath(f.Name)}
	restarted := false
	for {
		req.Offset = off
		rep, err := c.exchange(f.Machine, req)
		if err != nil {
			c.printf("getlog: %v\n", err)
			return
		}
		if !rep.OK() {
			c.printf("getlog: %s\n", rep.Status)
			rep.Release()
			return
		}
		total := rep.PID // daemon echoes the full file size here
		data := rep.DataBytes()
		switch {
		case off > 0 && total >= off+len(data) && rep.Aux == strconv.FormatUint(uint64(prefixCRC), 10):
			// The splice verifies: what the daemon skipped is what the
			// destination already holds.
			if len(data) > 0 {
				err = c.machine.FS().Append(dest, c.uid, data)
			}
		case off > 0 && off <= total:
			// The daemon honoured an offset whose prefix is no longer
			// ours: refetch from the top — once; a log rewritten faster
			// than it can be copied is not worth chasing.
			rep.Release()
			if restarted {
				c.printf("getlog: %s changed while it was being copied; try again\n", req.Path)
				return
			}
			restarted = true
			off, prefixCRC = 0, 0
			continue
		default:
			// A transfer from the top: the first fetch, or a log that
			// shrank below our offset (the daemon reset it).
			err = c.machine.FS().Create(dest, c.uid, fsys.PrivateMode, data)
			off, prefixCRC = 0, 0
		}
		off += len(data)
		prefixCRC = crc32.Update(prefixCRC, crc32.IEEETable, data)
		rep.Release() // the file copied data, and the CRC is taken
		if err != nil {
			c.printf("getlog: %v\n", err)
			return
		}
		c.mu.Lock()
		f.LogDest, f.LogOffset, f.LogCRC = dest, off, prefixCRC
		c.jobsView.Store(nil)
		c.mu.Unlock()
		if off >= total {
			return
		}
		testHookGetLogChunk(off)
	}
}

// testHookGetLogChunk runs between two chunks of a getlog; tests fault there.
var testHookGetLogChunk = func(offset int) {}

// cmdQuery runs selection rules against a filter's event store. The
// rules travel to the daemon on the filter's machine and execute there
// against the indexed store — only matching records cross the network,
// the point of the store's segment indexes. Each rule argument is one
// alternative (an OR line of the templates file); within a rule,
// conditions are comma-separated with no spaces, e.g.
//
//	query f1 out machine=2,cpuTime>=5000 type=4
//
// With no rules, every stored record is returned. The matching records
// land in destfile in trace-log format; the match statistics print to
// the terminal.
//
// A trailing aggregate clause ("agg ..." or "top ...", the extended
// syntax of docs/query.md) switches to push-down evaluation: each
// filter's daemon folds its matching records into a partial aggregate
// and only the partial crosses the network — cmdQueryAgg. There the
// filtername may be 'all', fanning the query out over every filter.
func (c *Controller) cmdQuery(s *scratch, args []string) {
	if len(args) < 2 {
		c.printf("usage: query filtername|all destfile [rule...] [agg ...|top k ...]\n")
		return
	}
	for i := 2; i < len(args); i++ {
		if args[i] == "agg" || args[i] == "top" {
			c.cmdQueryAgg(s, args, i)
			return
		}
	}
	c.mu.Lock()
	f, ok := c.filters[args[0]]
	c.mu.Unlock()
	if !ok {
		c.printf("no filter '%s'\n", args[0])
		return
	}
	req := &daemon.QueryReq{
		Dir:   filter.StorePath(f.Name),
		Rules: strings.Join(args[2:], "\n"),
		UID:   c.uid,
	}
	rep, err := c.exchange(f.Machine, req)
	if err != nil {
		c.printf("query: %v\n", err)
		return
	}
	defer rep.Release()
	if !rep.OK() {
		c.printf("query: %s\n", rep.Status)
		return
	}
	// The reply is one stats line followed by the matching records.
	stats, body, _ := strings.Cut(rep.Data, "\n")
	dest := args[1]
	if !strings.HasPrefix(dest, "/") {
		dest = "/usr/" + dest
	}
	if err := c.machine.FS().Create(dest, c.uid, fsys.PrivateMode, []byte(body)); err != nil {
		c.printf("query: %v\n", err)
		return
	}
	c.printf("query '%s': %s\n", f.Name, stats)
}

// cmdQueryAgg runs an aggregate query pushed down to the data: one
// TAggReq per target filter (all of them for 'all'), fanned out as a
// broadcast, each daemon returning a compact partial aggregate. The
// partials merge associatively in arrival-slot order — a crashed or
// partitioned machine contributes an error slot within the retry
// deadline and the merged answer is degraded, never hung, the cmdStats
// discipline. The rendered table lands in destfile; the reporting
// summary prints to the terminal.
func (c *Controller) cmdQueryAgg(s *scratch, args []string, specAt int) {
	name, dest := args[0], args[1]
	rules := strings.Join(args[2:specAt], "\n")
	spec, err := agg.ParseSpec(strings.Join(args[specAt:], " "))
	if err != nil {
		c.printf("query: %v\n", err)
		return
	}
	c.mu.Lock()
	for _, n := range c.filterOrder {
		if f := c.filters[n]; name == "all" || n == name {
			s.targets = append(s.targets, target{Label: f.Name + "@" + f.Machine, Host: f.Machine,
				Req: &daemon.AggReq{Dir: filter.StorePath(f.Name), Rules: rules, Spec: spec.String(), UID: c.uid}})
		}
	}
	c.mu.Unlock()
	if len(s.targets) == 0 {
		c.printf("no filter '%s'\n", name)
		return
	}
	m := aggMerges.Get().(*aggMerge)
	defer aggMerges.Put(m)
	reporting, missing := m.answer(spec, s.scatter())
	c.printf("agg '%s': %d/%d filters reporting (%s)\n",
		spec.String(), len(reporting), len(s.targets), strings.Join(reporting, " "))
	if len(missing) > 0 {
		c.printf("agg: degraded, missing %s\n", strings.Join(missing, " "))
	}
	if !strings.HasPrefix(dest, "/") {
		dest = "/usr/" + dest
	}
	if err := c.machine.FS().Create(dest, c.uid, fsys.PrivateMode, m.table); err != nil {
		c.printf("query: %v\n", err)
	}
}

// aggMerge is what an aggregate's answer reuses from one command to the
// next: the replies' decoded partials, their merge, and the result
// file's bytes.
type aggMerge struct {
	parts  []*agg.Partial
	merged agg.Partial
	table  []byte
}

var aggMerges = sync.Pool{New: func() any { return new(aggMerge) }}

// answer decodes the replies res to an aggregate of spec into sorted
// tables, merges them in one pass and renders the answer into m.table.
// Each part is reset to spec before it decodes, so that it parses no
// spec; a reply that is not a partial of spec counts its host missing.
func (m *aggMerge) answer(spec *agg.Spec, res []hostResult) (reporting, missing []string) {
	m.merged.Reset(spec)
	n := 0
	for _, r := range res {
		if n == len(m.parts) {
			m.parts = append(m.parts, new(agg.Partial))
		}
		if r.Err != nil || !r.Rep.OK() || m.parts[n].Reset(spec).UnmarshalBinary(r.Rep.DataBytes()) != nil || m.parts[n].Spec != m.merged.Spec {
			missing = append(missing, r.Host)
			continue
		}
		reporting = append(reporting, r.Host)
		n++
	}
	_ = m.merged.Merge(m.parts[:n]...) // every part is of merged's spec
	m.table = m.merged.AppendTable(m.table[:0], spec)
	return reporting, missing
}

// cmdWatch re-runs one command on an interval: "watch rounds
// intervalms command...". It drives the live aggregate mode of dpmon —
// a periodically refreshed cluster-wide aggregate — but wraps any
// command. Watch does not nest.
func (c *Controller) cmdWatch(args []string, depth int) {
	if len(args) < 3 {
		c.printf("usage: watch rounds intervalms command...\n")
		return
	}
	rounds, err1 := strconv.Atoi(args[0])
	interval, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || rounds < 1 || rounds > 100000 || interval < 0 {
		c.printf("usage: watch rounds intervalms command...\n")
		return
	}
	if strings.EqualFold(args[2], "watch") {
		c.printf("watch does not nest\n")
		return
	}
	line := strings.Join(args[2:], " ")
	for i := 0; i < rounds; i++ {
		if i > 0 {
			time.Sleep(time.Duration(interval) * time.Millisecond)
		}
		c.printf("watch %d/%d:\n", i+1, rounds)
		if !c.exec(line, depth+1) {
			return
		}
	}
}

func (c *Controller) cmdSource(args []string, depth int) {
	if len(args) != 1 {
		c.printf("usage: source filename\n")
		return
	}
	if depth >= MaxSourceDepth {
		c.printf("source nesting deeper than %d\n", MaxSourceDepth)
		return
	}
	path := args[0]
	if !strings.HasPrefix(path, "/") {
		path = "/usr/" + path
	}
	data, err := c.machine.FS().Read(path, c.uid)
	if err != nil {
		c.printf("source: %v\n", err)
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !c.exec(line, depth+1) {
			return
		}
	}
}

func (c *Controller) cmdSink(args []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(args) == 0 {
		// "output is directed back to the terminal when a destination
		// filename is not specified."
		c.sink = c.terminal
		c.sinkPath = ""
		return
	}
	path := args[0]
	if !strings.HasPrefix(path, "/") {
		path = "/usr/" + path
	}
	c.sink = &fileSink{c: c, path: path}
	c.sinkPath = path
}

// fileSink appends controller output to a file on the controller's
// machine.
type fileSink struct {
	c    *Controller
	path string
}

func (s *fileSink) Write(p []byte) (int, error) {
	if err := s.c.machine.FS().Append(s.path, s.c.uid, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// cmdDie returns true when the controller actually exits. "If there
// are still active processes ..., the user is warned, and the
// controller does not exit. If the user immediately repeats the die
// command ... the controller ... exits with the processes active."
func (c *Controller) cmdDie() bool {
	c.mu.Lock()
	active := false
	for _, j := range c.jobs {
		for _, p := range j.Procs {
			if p.State.Active() {
				active = true
			}
		}
	}
	armed := c.dieArmed
	c.mu.Unlock()
	if active && !armed {
		c.mu.Lock()
		c.dieArmed = true
		c.mu.Unlock()
		c.printf("active processes exist; repeat die to exit anyway\n")
		return false
	}
	// "Upon exit, all executing filter processes are removed."
	c.mu.Lock()
	filters := append([]string(nil), c.filterOrder...)
	c.mu.Unlock()
	for _, n := range filters {
		c.mu.Lock()
		f := c.filters[n]
		c.mu.Unlock()
		rep, _ := c.exchange(f.Machine, &daemon.ProcReq{Type: daemon.TKillReq, PID: f.PID, UID: c.uid})
		rep.Release()
	}
	// Retire the persistent sessions before the command process exits;
	// a session supervisor outliving its process would hold cluster
	// shutdown hostage.
	c.closeSessions()
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	// Shut down the controller's own kernel presence.
	_ = c.machine.Signal(c.notify.PID(), kernel.SIGKILL)
	c.notify.Exit(0)
	c.cmd.Exit(0)
	return true
}
