package controller

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dpm/internal/daemon"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// MaxSourceDepth is the nesting limit for source scripts ("Source
// commands may be nested within scripts to a maximum depth of
// sixteen", section 4.3).
const MaxSourceDepth = 16

// FilterInfo is the controller's record of a filter process.
type FilterInfo struct {
	Name    string
	PID     int
	Machine string
	Port    uint16
	// LogOffset, LogCRC and LogDest track incremental getlog state: how
	// many bytes of the filter's log have already been fetched, the CRC
	// of those bytes, and the destination file they went to. A repeat
	// getlog to the same destination transfers only the bytes past
	// LogOffset.
	LogOffset int
	LogCRC    uint32
	LogDest   string
}

// JobProc is the controller's record of one process in a job.
type JobProc struct {
	Name    string
	PID     int
	Machine string
	State   State
	Flags   meter.Flag
}

// Job is a named computation: a collection of processes and the filter
// their traces are directed to (section 4.2).
type Job struct {
	Name   string
	Filter *FilterInfo
	Flags  meter.Flag
	Procs  []*JobProc
}

func (j *Job) proc(machine string, pid int) *JobProc {
	for _, p := range j.Procs {
		if p.Machine == machine && p.PID == pid {
			return p
		}
	}
	return nil
}

// Controller is the control process: a command interpreter that
// organizes the parts of the measurement system (section 3.3).
type Controller struct {
	mu      sync.Mutex
	cluster *kernel.Cluster
	machine *kernel.Machine
	uid     int

	cmd        *kernel.Process // issues daemon exchanges
	notify     *kernel.Process // owns the notification socket
	notifyPort uint16

	terminal io.Writer
	sink     io.Writer // current output destination (terminal or sink file)
	sinkPath string

	filters       map[string]*FilterInfo
	filterOrder   []string
	defaultFilter string
	jobs          map[string]*Job
	jobOrder      []string
	nextJobNo     int
	nextPort      uint16
	nextToken     int

	// jobsView is the copy of the job table Jobs last built, shared
	// read-only by its callers until the table changes: every change to
	// a job, one of its processes, or its filter's getlog state stores
	// nil, under mu, so Jobs reads a current one without the lock.
	jobsView atomic.Pointer[[]*Job]

	// retry governs daemon exchanges; unreachable records machines whose
	// exchanges have exhausted their retries. A machine leaves the set
	// the next time an exchange to it succeeds.
	retry       daemon.RetryPolicy
	unreachable map[string]bool

	// sessions holds one persistent supervised session per machine,
	// dialed lazily (broadcast.go); sessionCfg tunes new ones.
	sessions   map[string]*daemon.Session
	sessionCfg daemon.SessionConfig

	dieArmed bool
	closed   bool

	// statsLen is the length of the last stats report. The next one's
	// buffer is sized a sixteenth over it, since the same report of a
	// moment later differs by a few digits.
	statsLen atomic.Int64
}

// New creates a controller for the given user on the given machine.
// The controller maintains an IPC socket for state-change reports and
// listens to it on a background goroutine (section 3.5.1).
func New(cluster *kernel.Cluster, machineName string, uid int, terminal io.Writer) (*Controller, error) {
	m, err := cluster.Machine(machineName)
	if err != nil {
		return nil, err
	}
	cmd, err := m.SpawnDetached(uid, "controller")
	if err != nil {
		return nil, err
	}
	notify, err := m.SpawnDetached(uid, "controller-notify")
	if err != nil {
		return nil, err
	}
	nfd, err := notify.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return nil, err
	}
	if err := notify.BindPort(nfd, 0); err != nil {
		return nil, err
	}
	if err := notify.Listen(nfd, 32); err != nil {
		return nil, err
	}
	nname, err := notify.SocketName(nfd)
	if err != nil {
		return nil, err
	}
	_, port := nname.Inet()

	c := &Controller{
		cluster:     cluster,
		machine:     m,
		uid:         uid,
		cmd:         cmd,
		notify:      notify,
		notifyPort:  port,
		terminal:    terminal,
		sink:        terminal,
		filters:     make(map[string]*FilterInfo),
		jobs:        make(map[string]*Job),
		nextPort:    9000,
		unreachable: make(map[string]bool),
		sessions:    make(map[string]*daemon.Session),
	}
	go c.notifyLoop(nfd)
	return c, nil
}

// notifyLoop accepts daemon-initiated connections and applies their
// state-change and I/O messages. Daemons keep their notification
// connection open across messages, so each accepted connection gets
// its own drainer goroutine that reads until EOF — one daemon's idle
// connection must not block another's notifications. It ends when the
// notify process is killed (controller shutdown).
func (c *Controller) notifyLoop(nfd int) {
	for {
		conn, _, err := c.notify.Accept(nfd)
		if err != nil {
			return
		}
		c.notify.Go(func() { c.drainNotify(conn) })
	}
}

// drainNotify applies every message arriving on one notification
// connection until the peer closes it.
func (c *Controller) drainNotify(conn int) {
	defer func() { _ = c.notify.Close(conn) }()
	daemon.ReadNotices(c.notify, conn, c.applyStateChange, func(iod daemon.IOData) {
		c.mu.Lock()
		fmt.Fprintf(c.sink, "%s", iod.Data)
		c.mu.Unlock()
	})
}

// applyStateChange moves a terminated process to the killed state and
// informs the user ("The controller informs the user of the new state
// of his computation upon being notified of a termination").
func (c *Controller) applyStateChange(sc daemon.StateChange) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, jn := range c.jobOrder {
		j := c.jobs[jn]
		if p := j.proc(sc.Machine, sc.PID); p != nil {
			p.State = StateKilled
			c.jobsView.Store(nil)
			fmt.Fprintf(c.sink, "DONE: process %s in job '%s' terminated: reason: %s\n", p.Name, j.Name, sc.Reason)
			return
		}
	}
}

// validToken checks the command-parameter lexical rules: "Command
// parameters must be literals formed from the digits 0 through 9, the
// upper and lower case letters, and the characters '/' and '.'"
// (section 4.3). The '-' is additionally accepted so flag resets
// ("-send") can be written.
func validToken(tok string) bool {
	for _, r := range tok {
		switch {
		case r >= '0' && r <= '9':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r == '/' || r == '.' || r == '-':
		default:
			return false
		}
	}
	return tok != ""
}

// validRuleToken checks the looser lexical rules of query selection
// rules: beyond the literal characters, the Figure 3.3/3.4 template
// syntax needs its operators ('=', '!', '<', '>'), the wildcard '*',
// the discard marker '#', and the condition separator ','. The
// aggregate extension adds the operator-argument parentheses
// ("sum(msgLength)").
func validRuleToken(tok string) bool {
	for _, r := range tok {
		switch {
		case r >= '0' && r <= '9':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r == '/' || r == '.' || r == '-':
		case r == '=' || r == '!' || r == '<' || r == '>':
		case r == '*' || r == '#' || r == ',':
		case r == '(' || r == ')':
		default:
			return false
		}
	}
	return tok != ""
}

// Exec executes one command line and returns false when the
// controller has exited (die).
func (c *Controller) Exec(line string) bool {
	return c.exec(line, 0)
}

func (c *Controller) exec(line string, depth int) bool {
	line = strings.TrimRight(line, "\r\n")
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return true
	}
	// Query selection rules and aggregate specs (everything after
	// "query name dest") use the template syntax, whose operators fall
	// outside the section 4.3 literal alphabet. A query wrapped in
	// watch shifts by the wrapper's two parameters.
	queryAt := -1
	if strings.EqualFold(fields[0], "query") {
		queryAt = 0
	} else if strings.EqualFold(fields[0], "watch") && len(fields) >= 4 && strings.EqualFold(fields[3], "query") {
		queryAt = 3
	}
	for i, tok := range fields {
		if queryAt >= 0 && i >= queryAt+3 {
			if !validRuleToken(tok) {
				c.printf("bad token '%s'\n", tok)
				return true
			}
			continue
		}
		if !validToken(tok) {
			c.printf("bad token '%s'\n", tok)
			return true
		}
	}
	cmd, args := strings.ToLower(fields[0]), fields[1:]
	if cmd != "die" && cmd != "exit" && cmd != "bye" {
		c.mu.Lock()
		c.dieArmed = false
		c.mu.Unlock()
	}
	switch cmd {
	case "help":
		c.cmdHelp()
	case "filter":
		c.cmdFilter(args)
	case "newjob":
		c.cmdNewJob(args)
	case "addprocess", "add":
		c.cmdAddProcess(args)
	case "acquire":
		c.cmdAcquire(args)
	case "setflags":
		c.cmdSetFlags(args)
	case "startjob":
		c.cmdStartJob(args)
	case "stopjob":
		c.cmdStopJob(args)
	case "removejob", "rmjob":
		c.cmdRemoveJob(args)
	case "removeprocess", "rmprocess":
		c.cmdRemoveProcess(args)
	case "jobs":
		c.cmdJobs(args)
	case "status":
		c.cmdStatus()
	case "stats":
		c.cmdStats(args)
	case "ps":
		c.cmdPs(args)
	case "stdin":
		c.cmdStdin(args)
	case "getlog":
		c.cmdGetLog(args)
	case "query":
		c.cmdQuery(args)
	case "watch":
		c.cmdWatch(args, depth)
	case "source":
		c.cmdSource(args, depth)
	case "sink":
		c.cmdSink(args)
	case "die", "exit", "bye":
		return !c.cmdDie()
	default:
		c.printf("unknown command '%s'; try help\n", cmd)
	}
	return true
}

// Run reads commands until die or end of input, prompting with
// "<Control>" as in the Appendix B transcript.
func (c *Controller) Run(in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	for {
		c.printf("<Control> ")
		if !sc.Scan() {
			c.printf("\n")
			return
		}
		if !c.exec(sc.Text(), 0) {
			return
		}
	}
}

// printf writes to the current output sink.
func (c *Controller) printf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.sink, format, args...)
}

// write writes b to the current output destination.
func (c *Controller) write(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = c.sink.Write(b)
}

// exchange performs one controller↔daemon RPC, hardened with the
// controller's retry policy, over the persistent session to the host's
// daemon. A machine whose exchange exhausts every retry is marked
// unreachable and its processes become lost; a later successful
// exchange marks it reachable again.
func (c *Controller) exchange(host string, req daemon.Message) (*daemon.Reply, error) {
	c.mu.Lock()
	rp := c.retry
	c.mu.Unlock()
	s, err := c.session(host)
	if err != nil {
		return nil, err // says nothing about reachability
	}
	rep, err := daemon.SessionExchange(s, req, rp)
	c.noteExchange(host, err)
	return rep, err
}

// noteExchange updates the reachability record from an exchange result.
func (c *Controller) noteExchange(host string, err error) {
	if err != nil && !errors.Is(err, daemon.ErrExhausted) {
		return // a permanent failure says nothing about reachability
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		if c.unreachable[host] {
			delete(c.unreachable, host)
			fmt.Fprintf(c.sink, "NOTE: machine %s is reachable again\n", host)
		}
		return
	}
	if !c.unreachable[host] {
		c.unreachable[host] = true
		fmt.Fprintf(c.sink, "WARNING: machine %s is unreachable\n", host)
	}
	// Every non-killed process on the machine is now in an unknown
	// state — mark it lost rather than pretend we still know.
	for _, jn := range c.jobOrder {
		j := c.jobs[jn]
		for _, p := range j.Procs {
			if p.Machine == host && p.State != StateKilled && p.State != StateLost {
				p.State = StateLost
				c.jobsView.Store(nil)
				fmt.Fprintf(c.sink, "LOST: process %s in job '%s' on %s\n", p.Name, j.Name, host)
			}
		}
	}
}

// SetRetryPolicy overrides the exchange retry policy; tests and
// embedding programs use it to bound fault-handling latency. The zero
// policy selects the daemon package defaults.
func (c *Controller) SetRetryPolicy(rp daemon.RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = rp
}

// Unreachable returns the machines currently marked unreachable,
// sorted by name.
func (c *Controller) Unreachable() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.unreachable))
	for h := range c.unreachable {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// newToken issues a create idempotency token, unique per controller
// instance (the controller's machine and pid disambiguate instances).
func (c *Controller) newToken() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextToken++
	return fmt.Sprintf("%s.%d.%d", c.machine.Name(), c.cmd.PID(), c.nextToken)
}

// Closed reports whether die has completed.
func (c *Controller) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Jobs returns a snapshot of the job table, for tests and embedding
// programs: copies of every job, process and filter record, taken under
// the lock. Pollers call it in a loop, so one snapshot serves every
// call until the table next changes; it is shared, and read-only.
func (c *Controller) Jobs() []*Job {
	if v := c.jobsView.Load(); v != nil {
		return *v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.jobsView.Load(); v != nil {
		return *v
	}
	// One backing array each for the jobs, their filters, their
	// processes and the process lists.
	nprocs := 0
	for _, n := range c.jobOrder {
		nprocs += len(c.jobs[n].Procs)
	}
	out := make([]*Job, len(c.jobOrder))
	jobs, filters := make([]Job, len(out)), make([]FilterInfo, len(out))
	procs, lists := make([]JobProc, 0, nprocs), make([]*JobProc, 0, nprocs)
	for i, n := range c.jobOrder {
		j := c.jobs[n]
		filters[i] = *j.Filter
		from := len(procs)
		for _, p := range j.Procs {
			procs = append(procs, *p)
			lists = append(lists, &procs[len(procs)-1])
		}
		jobs[i] = Job{Name: j.Name, Filter: &filters[i], Flags: j.Flags}
		if len(j.Procs) > 0 {
			jobs[i].Procs = lists[from:len(lists):len(lists)]
		}
		out[i] = &jobs[i]
	}
	c.jobsView.Store(&out)
	return out
}

// Filters returns a snapshot of the filter table.
func (c *Controller) Filters() []*FilterInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*FilterInfo, 0, len(c.filterOrder))
	for _, n := range c.filterOrder {
		f := *c.filters[n]
		out = append(out, &f)
	}
	return out
}

// defaultFilterFile is the executable used when no filterfile is
// given ("If no filterfile has been specified, the default file
// 'filter' is used").
const defaultFilterFile = "/bin/filter"

// resolvePath maps a bare file name onto /bin, mirroring the paper's
// reliance on the user's search path.
func resolvePath(name string) string {
	if strings.HasPrefix(name, "/") {
		return name
	}
	return "/bin/" + name
}
