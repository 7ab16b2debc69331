package kernel

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/clock"
	"dpm/internal/meter"
)

// Program is the body of a simulated process: the stand-in for the
// text of an executable file. It runs on its own goroutine and its
// return value is the process's exit status.
type Program func(p *Process) int

// Signals, with their 4.3BSD numbering. The controller's start/stop
// commands translate to SIGCONT/SIGSTOP, and removing a running job's
// processes to SIGKILL (paper section 3.5.1).
type Signal int

const (
	SIGKILL Signal = 9
	SIGSTOP Signal = 17
	SIGCONT Signal = 19
)

// Exit reasons reported to exit watchers (the daemon turns them into
// the "reason: normal" of termination notices).
const (
	ReasonNormal = "normal"
	ReasonKilled = "killed"
)

// killedPanic unwinds a process goroutine when the process is killed
// while executing or blocked in a system call.
type killedPanic struct{}

// exitPanic unwinds a process goroutine on Exit or at the end of Exec.
type exitPanic struct{ status int }

// fdEntry is one slot in a process's descriptor table. An open slot
// holds a socket, or (for the standard descriptors of processes run
// outside a daemon gateway) a plain file; a free one holds neither.
type fdEntry struct {
	sock *Socket
	file *plainFile
}

// plainFile is a descriptor's plain reader or writer; either may be nil,
// which makes the descriptor one that fails the read or the write.
type plainFile struct {
	r io.Reader
	w io.Writer
}

func (e fdEntry) open() bool { return e.sock != nil || e.file != nil }

// fdTableSize is the capacity a descriptor table is made with: the three
// standard descriptors and room for five more before it must grow.
const fdTableSize = 8

// Process is a simulated 4.2BSD process: an address space (its Go
// closure state) plus an execution stream (its goroutine). All
// interaction with other processes and the operating system goes
// through its system-call methods, which is precisely the surface the
// paper's meter instruments. Fields are ordered so that the process
// fits the allocator's 208-byte class (TestProcessSize); its channels
// are made only when something waits on them.
type Process struct {
	machine *Machine
	pid     int32
	ppid    int32
	uid     int32
	pc      atomic.Uint32
	name    string
	args    []string

	mu  sync.Mutex
	fds []fdEntry

	// meter is the three fields the paper adds to the process table
	// entry (section 3.2), published as one immutable snapshot (never
	// nil): every metered event reads it with one load, and Setmeter,
	// Fork, disableMetering and finish replace it under mu.
	meter atomic.Pointer[meterState]

	cpu clock.CPUCounter

	// The signal state, under sigMu. prog is the body of a process
	// created suspended until the first SIGCONT or SIGKILL starts its
	// goroutine (a process killed in the "new" state never executes its
	// first instruction). cont is open while a stopped process waits in
	// checkpoint; killCh and exitCh are made by the first to wait on
	// them (KillChan, WaitExit) and closed at the kill and the exit.
	sigMu  sync.Mutex
	prog   Program
	cont   chan struct{}
	killCh chan struct{}
	exitCh chan struct{}

	exitOnce sync.Once
	// halted mirrors stopped || killed for checkpoint's lock-free fast
	// path; signal keeps it under sigMu.
	halted   atomic.Bool
	stopped  bool
	killed   bool
	detached bool // no goroutine: driven by an external caller

	exited     bool
	exitStatus int32
	exitReason string
	// onExit is the exit watchers, each registered after the one it
	// calls first.
	onExit func(p *Process, status int, reason string)
}

// PID returns the process id.
func (p *Process) PID() int { return int(p.pid) }

// PPID returns the parent process id (0 for top-level processes).
func (p *Process) PPID() int { return int(p.ppid) }

// UID returns the owning user id.
func (p *Process) UID() int { return int(p.uid) }

// Name returns the program name the process was created with.
func (p *Process) Name() string { return p.name }

// Args returns the process's arguments.
func (p *Process) Args() []string { return append([]string(nil), p.args...) }

// Machine returns the machine the process runs on.
func (p *Process) Machine() *Machine { return p.machine }

// Exited reports whether the process has terminated, and with what
// status and reason if so.
func (p *Process) Exited() (bool, int, string) {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	return p.exited, int(p.exitStatus), p.exitReason
}

// WaitExit blocks until the process terminates and returns its status
// and reason.
func (p *Process) WaitExit() (int, string) {
	p.sigMu.Lock()
	exited := lazyChan(&p.exitCh, p.exited)
	p.sigMu.Unlock()
	<-exited // closed after the status is written
	return int(p.exitStatus), p.exitReason
}

// KillChan returns a channel closed when the process is killed.
// Auxiliary goroutines (Process.Go) that sleep outside a system call —
// a session supervisor pacing reconnect backoff, say — select on it so
// cluster shutdown is not held up by the remainder of a timer.
func (p *Process) KillChan() <-chan struct{} {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	return lazyChan(&p.killCh, p.killed)
}

// lazyChan returns *ch, made first if nil, closed already if the event
// it waits for has happened. The caller holds sigMu.
func lazyChan(ch *chan struct{}, happened bool) chan struct{} {
	if *ch == nil {
		*ch = make(chan struct{})
		if happened {
			close(*ch)
		}
	}
	return *ch
}

// closeChan closes *ch if anyone made it. The caller holds sigMu.
func closeChan(ch *chan struct{}) {
	if *ch != nil {
		close(*ch)
	}
}

// OnExit registers a callback invoked (once, on the exiting process's
// goroutine) after the process terminates — the simulation's SIGCHLD.
// Callbacks run in the order they were registered. If the process has
// already exited the callback runs immediately.
func (p *Process) OnExit(fn func(p *Process, status int, reason string)) {
	p.sigMu.Lock()
	if p.exited {
		p.sigMu.Unlock()
		fn(p, int(p.exitStatus), p.exitReason)
		return
	}
	if first := p.onExit; first != nil {
		next := fn
		fn = func(p *Process, status int, reason string) {
			first(p, status, reason)
			next(p, status, reason)
		}
	}
	p.onExit = fn
	p.sigMu.Unlock()
}

// run executes the program body with kill and exit handling, then
// finalizes the process. It starts once the process may run: at once,
// or for a process created suspended at its first SIGCONT or SIGKILL.
func (p *Process) run(prog Program) {
	defer p.machine.wg.Done()
	p.sigMu.Lock()
	killed := p.killed
	p.sigMu.Unlock()
	status, reason := -1, ReasonKilled
	if !killed {
		status, reason = p.invoke(prog)
	}
	p.finish(status, reason)
}

// invoke runs the program body, translating the kill/exit panics into
// a status and reason.
func (p *Process) invoke(prog Program) (status int, reason string) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case killedPanic:
			status, reason = -1, ReasonKilled
		case exitPanic:
			status, reason = v.status, ReasonNormal
		default:
			panic(v)
		}
	}()
	return prog(p), ReasonNormal
}

// finish is process termination (section 3.2): the termproc event is
// generated, any unsent meter messages are forwarded to the filter,
// descriptors are released, and exit watchers are notified.
func (p *Process) finish(status int, reason string) {
	p.exitOnce.Do(func() {
		p.emit(&meter.TermProc{PID: uint32(p.pid), PC: p.nextPC(), Status: uint32(status)})
		p.mu.Lock()
		ms := p.meter.Load()
		if ms.sock != nil {
			p.meter.Store(&meterState{flags: ms.flags})
		}
		fds := p.fds
		p.fds = nil
		p.mu.Unlock()
		if ms.sock != nil {
			ms.buf.Flush()
			ms.sock.unref()
		}
		for _, e := range fds {
			if e.sock != nil {
				e.sock.unref()
			}
		}
		p.machine.removeProc(int(p.pid))

		p.sigMu.Lock()
		p.exited = true
		p.exitStatus = int32(status)
		p.exitReason = reason
		watchers := p.onExit
		p.onExit = nil
		closeChan(&p.exitCh)
		p.sigMu.Unlock()
		if watchers != nil {
			watchers(p, status, reason)
		}
	})
}

// signal delivers sig to the process. It is the kernel half of the
// UNIX signals the daemon uses for process control.
func (p *Process) signal(sig Signal) {
	p.sigMu.Lock()
	switch sig {
	case SIGSTOP:
		p.stopped = true
	case SIGCONT:
		p.stopped = false
		p.release()
	case SIGKILL:
		if !p.killed {
			p.killed = true
			closeChan(&p.killCh)
		}
		p.release()
	}
	p.halted.Store(p.stopped || p.killed)
	p.sigMu.Unlock()
}

// release lets the process run on: it starts the goroutine of one
// created suspended and wakes one stopped in checkpoint. The caller
// holds sigMu.
func (p *Process) release() {
	if prog := p.prog; prog != nil {
		p.prog = nil
		go p.run(prog)
	}
	closeChan(&p.cont)
	p.cont = nil
}

// checkpoint is executed at every system-call boundary: it blocks
// while the process is stopped and unwinds it if killed. Detached
// processes (driven by an external caller rather than a goroutine)
// report kills as an error instead of panicking.
func (p *Process) checkpoint() error {
	if !p.halted.Load() {
		return nil
	}
	p.sigMu.Lock()
	for p.stopped && !p.killed {
		cont := lazyChan(&p.cont, false)
		p.sigMu.Unlock()
		<-cont
		p.sigMu.Lock()
	}
	killed := p.killed
	detached := p.detached
	p.sigMu.Unlock()
	if killed {
		if detached {
			return ErrKilled
		}
		panic(killedPanic{})
	}
	return nil
}

// charge advances the machine clock and the process's CPU counter by
// the cost of one unit of work.
func (p *Process) charge(d time.Duration) {
	p.machine.clock.Advance(d)
	p.cpu.Charge(d)
}

// Go runs fn on an auxiliary goroutine of the process — the kernel's
// thread spawn for program bodies that want internal parallelism (the
// parallel filter's connection drainers and its log writer). The
// goroutine shares the process's descriptor table and metering state,
// and its system calls block, charge, and honor signals exactly like
// the main body's. When the process is killed, any system call made
// from the goroutine unwinds it silently, the same way the kill panic
// unwinds the program body; cluster shutdown waits for auxiliary
// goroutines like any process goroutine. fn must not call Exit — the
// process's exit status belongs to the program body.
func (p *Process) Go(fn func()) {
	p.machine.wg.Add(1)
	go func() {
		defer p.machine.wg.Done()
		defer func() {
			switch v := recover().(type) {
			case nil, killedPanic, exitPanic:
				// A kill (or stray Exit) ends only this goroutine.
			default:
				panic(v)
			}
		}()
		fn()
	}()
}

// nextPC advances and returns the synthetic program counter recorded
// in meter messages. A real kernel records the user PC of the system
// call; a deterministic per-process counter serves the same purpose —
// distinguishing call sites — in the simulation.
func (p *Process) nextPC() uint32 { return p.pc.Add(4) }

// meterState is one published value of the process's metering fields:
// the meter socket (not present in fds), the meter flag mask, and the
// buffer of unsent meter messages, which is set exactly when sock is. A
// snapshot is never modified.
type meterState struct {
	sock  *Socket
	flags meter.Flag
	buf   *meter.Buffer
}

// unmetered is the snapshot of a process metering was never set for.
var unmetered = &meterState{}

// selects reports whether the snapshot meters events of type t.
func (ms *meterState) selects(t meter.Type) bool {
	return ms.sock != nil && ms.flags.Selects(t)
}

// metered reports whether an event of type t would be metered now. The
// per-message IPC calls test it before building their meter body, so an
// unmetered send or receive allocates nothing for metering.
func (p *Process) metered(t meter.Type) bool { return p.meter.Load().selects(t) }

// MeterFlags returns the process's current meter flag mask.
func (p *Process) MeterFlags() meter.Flag { return p.meter.Load().flags }

// MeterSocketID returns the id of the meter socket, or 0 if the
// process is not connected to a filter. Tests use it to check
// transparency: the id never appears in the descriptor table.
func (p *Process) MeterSocketID() uint32 {
	if ms := p.meter.Load(); ms.sock != nil {
		return ms.sock.id
	}
	return 0
}

// emit generates one meter message if the event is flagged for this
// process (section 3.2: "On every call to a routine that might
// initiate a meter event, the kernel checks whether the call is
// currently metered"). The body does not escape: emit and the buffer
// read its type and encoding without calling through the interface.
func (p *Process) emit(body meter.Body) {
	ms := p.meter.Load()
	if !ms.selects(meter.TypeOf(body)) {
		return
	}
	if ms.sock.Dead() {
		// The filter died. Metering must degrade rather than wedge the
		// monitored computation (or accumulate messages nothing will
		// read): switch it off for this process and account for what
		// was lost.
		p.disableMetering(ms)
		return
	}
	msg := meter.Msg{
		Header: meter.Header{
			Machine:  p.machine.id,
			CPUTime:  uint32(p.machine.clock.NowMillis()),
			ProcTime: uint32(p.cpu.QuantizedMillis()),
		},
		Body: body,
	}
	ms.buf.Add(&msg, ms.flags.Immediate())
	// A Setmeter, exit or disable that replaced the buffer after the
	// load above flushes it once, possibly before this Add: flush again
	// so the message is sent (or counted as dropped), not stranded.
	if cur := p.meter.Load(); cur.buf != ms.buf {
		ms.buf.Flush()
	}
}

// disableMetering turns metering off for the process after its filter
// died: the meter socket and buffer are released, the flag mask is
// cleared, and the messages that will never arrive — the buffered ones,
// which the flush into the dead socket counts, plus the event that
// found the corpse — are counted as drops.
func (p *Process) disableMetering(ms *meterState) {
	p.mu.Lock()
	cur := p.meter.Load()
	if cur.sock != ms.sock {
		p.mu.Unlock() // raced with a Setmeter that replaced the socket
		return
	}
	p.meter.Store(unmetered)
	p.mu.Unlock()
	cur.buf.Flush()
	cur.sock.unref()
	p.machine.faults.meterDisabled.Inc()
	p.machine.faults.meterDrops.Inc()
}

// fd returns the entry at descriptor fd.
func (p *Process) fd(fd int) (fdEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fd < 0 || fd >= len(p.fds) || !p.fds[fd].open() {
		return fdEntry{}, ErrBadFD
	}
	return p.fds[fd], nil
}

// sockFD returns the socket at descriptor fd.
func (p *Process) sockFD(fd int) (*Socket, error) {
	e, err := p.fd(fd)
	if err != nil {
		return nil, err
	}
	if e.sock == nil {
		return nil, ErrNotSocket
	}
	return e.sock, nil
}

// installFD places an entry in the lowest free descriptor slot, as
// UNIX does, and returns the descriptor.
func (p *Process) installFD(e fdEntry) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, slot := range p.fds {
		if !slot.open() {
			p.fds[i] = e
			return i
		}
	}
	p.fds = append(p.fds, e)
	return len(p.fds) - 1
}

// NumFDs returns the number of open descriptors; the transparency
// tests use it to show metering does not consume descriptor slots
// ("The meter does not reduce the number of open files and sockets
// available to the metered process", section 4.1).
func (p *Process) NumFDs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.fds {
		if e.open() {
			n++
		}
	}
	return n
}

// HasSocketFD reports whether any descriptor refers to the socket with
// the given id.
func (p *Process) HasSocketFD(id uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.fds {
		if e.sock != nil && e.sock.id == id {
			return true
		}
	}
	return false
}
