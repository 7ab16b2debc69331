package kernel

import (
	"fmt"
	"io"
	"math"
	"sync"

	"dpm/internal/clock"
	"dpm/internal/fsys"
	"dpm/internal/meter"
	"dpm/internal/netsim"
	"dpm/internal/obs"
)

// portKey indexes the per-machine binding table: stream and datagram
// ports are independent namespaces, as TCP and UDP ports are.
type portKey struct {
	typ  int
	port uint16
}

// Machine is one simulated host: a CPU (its clock), memory (Go heap),
// a resident kernel portion (these structures), and a file system.
// Machines do not have access to each other's memories; everything
// between them travels through sockets (paper section 1.2).
type Machine struct {
	name    string
	id      uint16
	cluster *Cluster
	clock   *clock.MachineClock
	fs      *fsys.FS

	// obs is the machine's metrics registry. It is created once in
	// AddMachine and survives crash/restart — fault counters would be
	// useless if the fault erased them. Every subsystem running on the
	// machine (meter buffers, filters, daemons, stores, queries) hangs
	// its metrics here, so one TStatsReq answers for the whole node.
	obs    *obs.Registry
	faults machineFaults
	mem    machineMem

	faultMu sync.Mutex // serializes crash/restart transitions

	mu         sync.Mutex
	down       bool // crashed: refuses spawns, connections, datagrams
	procs      map[int]*Process
	nextPID    int
	accounts   map[int]string // uid -> user name
	hostIDs    map[string]uint32
	netOrder   []string // attachment order; the first is the primary address
	ports      map[portKey]*Socket
	unixSocks  map[string]*Socket
	nextSockID uint32
	nextPort   uint16
	nextPairID uint32

	wg *sync.WaitGroup // cluster-wide process goroutine tracking
}

// machineFaults holds the machine's fault counters, resolved once at
// machine creation so the accounting paths never take the registry
// lock. Cluster.FaultStats sums them across machines.
type machineFaults struct {
	crashes       *obs.Counter
	restarts      *obs.Counter
	meterDisabled *obs.Counter
	meterDrops    *obs.Counter
}

func newMachineFaults(r *obs.Registry) machineFaults {
	return machineFaults{
		crashes:       r.Counter("faults.crashes"),
		restarts:      r.Counter("faults.restarts"),
		meterDisabled: r.Counter("faults.meter_disabled"),
		meterDrops:    r.Counter("faults.meter_drops"),
	}
}

// machineMem is the machine's memory accounting: how much simulated
// kernel memory (socket buffers) the machine is holding, with a high
// water mark, so a simulation of thousands of machines has a bounded,
// measurable per-machine footprint (docs/perf.md, simulation density).
type machineMem struct {
	sockets      *obs.Gauge   // live sockets on the machine
	buffered     *obs.Gauge   // bytes queued in socket receive buffers
	bufferedPeak *obs.Gauge   // high water of buffered
	shedDgrams   *obs.Counter // datagrams shed by the per-socket queue budget
}

func newMachineMem(r *obs.Registry) machineMem {
	return machineMem{
		sockets:      r.Gauge("mem.sockets"),
		buffered:     r.Gauge("mem.buffered_bytes"),
		bufferedPeak: r.Gauge("mem.buffered_peak"),
		shedDgrams:   r.Counter("mem.shed_dgrams"),
	}
}

// charge adds n buffered bytes and maintains the high water mark.
func (mm *machineMem) charge(n int64) {
	mm.bufferedPeak.SetMax(mm.buffered.Add(n))
}

// Name returns the machine's host name.
func (m *Machine) Name() string { return m.name }

// ID returns the small integer recorded in meter message headers.
func (m *Machine) ID() uint16 { return m.id }

// Clock returns the machine's local clock.
func (m *Machine) Clock() *clock.MachineClock { return m.clock }

// FS returns the machine's file system.
func (m *Machine) FS() *fsys.FS { return m.fs }

// Obs returns the machine's metrics registry.
func (m *Machine) Obs() *obs.Registry { return m.obs }

// ExportStats writes a JSON snapshot of the machine's registry to a
// file owned by uid, replacing any previous export. It writes through
// the file system directly rather than a process syscall, so shutdown
// paths can call it while their process is unwinding from a kill —
// which is exactly when a chaos soak wants the forensic record.
func (m *Machine) ExportStats(path string, uid int) error {
	s := m.obs.Snapshot()
	s.Machine = m.name
	return m.fs.Create(path, uid, fsys.DefaultMode, s.EncodeJSON())
}

// Cluster returns the cluster the machine belongs to.
func (m *Machine) Cluster() *Cluster { return m.cluster }

// Down reports whether the machine has crashed (CrashMachine) and not
// yet been restarted.
func (m *Machine) Down() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

func (m *Machine) setDown(down bool) {
	m.mu.Lock()
	m.down = down
	m.mu.Unlock()
}

// AddAccount gives uid an account on this machine. Per the paper's
// protection policy, "To create a process on a machine, a user must
// have an account on that machine" (section 3.5.5).
func (m *Machine) AddAccount(uid int, user string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accounts[uid] = user
}

// HasAccount reports whether uid has an account here. The superuser
// implicitly has one everywhere.
func (m *Machine) HasAccount(uid int) bool {
	if uid == fsys.Superuser {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.accounts[uid]
	return ok
}

// PrimaryHostID returns the machine's address on its first-attached
// network; socket names constructed on this machine use it.
func (m *Machine) PrimaryHostID() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.netOrder) == 0 {
		return 0
	}
	return m.hostIDs[m.netOrder[0]]
}

// hostIDOn returns the machine's address on the given network.
func (m *Machine) hostIDOn(network string) (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hostIDs[network]
	return h, ok
}

// HostIDOn returns the machine's address on the given network, and
// whether it is attached to that network at all.
func (m *Machine) HostIDOn(network string) (uint32, bool) { return m.hostIDOn(network) }

// SpawnSpec describes a process to create.
type SpawnSpec struct {
	UID  int
	Name string
	Args []string
	// Exactly one of Program and Path is used: Program runs directly;
	// Path names an executable file on this machine's file system.
	Program Program
	Path    string
	// Suspended creates the process in the paper's "new" state: the
	// execution environment is set up but the process is suspended
	// prior to the execution of the first instruction (section 4.2).
	// It begins running when it receives SIGCONT.
	Suspended bool
	// Stdio, when non-nil, is installed as descriptors 0, 1 and 2 —
	// the daemon's per-process I/O gateway socket (section 3.5.2).
	Stdio *Socket
	// Stdout/Stdin attach plain streams instead, for processes run
	// outside a daemon (tests and examples).
	Stdout io.Writer
	Stdin  io.Reader
	// PPID records the creating process, if any.
	PPID int
}

// Spawn creates a process. The account check implements the paper's
// protection policy.
func (m *Machine) Spawn(spec SpawnSpec) (*Process, error) {
	if m.Down() {
		return nil, fmt.Errorf("%w: %s", ErrMachineDown, m.name)
	}
	if !m.HasAccount(spec.UID) {
		return nil, fmt.Errorf("%w: uid %d on %s", ErrNoAccount, spec.UID, m.name)
	}
	prog := spec.Program
	if prog == nil {
		if spec.Path == "" {
			return nil, fmt.Errorf("%w: no program or path", ErrInval)
		}
		progName, err := m.fs.Executable(spec.Path, spec.UID)
		if err != nil {
			return nil, err
		}
		prog = m.cluster.program(progName)
		if prog == nil {
			return nil, fmt.Errorf("%w: program %q not registered", ErrInval, progName)
		}
	}

	p := m.newProcess(spec)
	m.wg.Add(1)
	go p.run(prog)
	return p, nil
}

// SpawnDetached creates a process table entry with no goroutine; an
// external driver (the controller object in this reproduction) issues
// its system calls directly. It starts started.
func (m *Machine) SpawnDetached(uid int, name string) (*Process, error) {
	if m.Down() {
		return nil, fmt.Errorf("%w: %s", ErrMachineDown, m.name)
	}
	if !m.HasAccount(uid) {
		return nil, fmt.Errorf("%w: uid %d on %s", ErrNoAccount, uid, m.name)
	}
	p := m.newProcess(SpawnSpec{UID: uid, Name: name})
	p.detached = true
	p.signal(SIGCONT)
	return p, nil
}

// SpawnTask creates an event-driven process: a process-table entry
// with no goroutine, whose step function runs on the cluster's pooled
// scheduler workers (sched.go). It is the density-scalable alternative
// to Spawn — 10k parked tasks hold no goroutines, channels, or stacks.
// The process starts started, is killable and stoppable like any
// other, and its exit is observable through the usual WaitExit/OnExit.
func (m *Machine) SpawnTask(uid int, name string, fn TaskFunc) (*Process, error) {
	if m.Down() {
		return nil, fmt.Errorf("%w: %s", ErrMachineDown, m.name)
	}
	if !m.HasAccount(uid) {
		return nil, fmt.Errorf("%w: uid %d on %s", ErrNoAccount, uid, m.name)
	}
	p := m.newProcess(SpawnSpec{UID: uid, Name: name})
	p.detached = true
	t := &Task{proc: p, fn: fn, sched: m.cluster.sched()}
	t.wakeFn = t.wake
	// Queued before the hook is visible: the starting SIGCONT below (and
	// any signal racing the spawn) must not enqueue a second time ahead
	// of the explicit enqueue.
	t.state.Store(taskQueued)
	p.sigMu.Lock()
	p.task = t
	p.schedHook = t.wake
	p.sigMu.Unlock()
	p.signal(SIGCONT)
	m.wg.Add(1)
	t.sched.enqueue(t)
	return p, nil
}

func (m *Machine) newProcess(spec SpawnSpec) *Process {
	m.mu.Lock()
	m.nextPID++
	pid := m.nextPID
	m.mu.Unlock()

	p := &Process{
		machine: m,
		pid:     pid,
		ppid:    spec.PPID,
		uid:     spec.UID,
		name:    spec.Name,
		args:    append([]string(nil), spec.Args...),
		startCh: make(chan struct{}),
		killCh:  make(chan struct{}),
		exitCh:  make(chan struct{}),
	}
	p.sigCond = sync.NewCond(&p.sigMu)
	switch {
	case spec.Stdio != nil:
		// The daemon's I/O gateway socket becomes descriptors 0–2; a
		// separate Stdin (a file the daemon redirects, section 3.5.2)
		// takes descriptor 0 when given.
		if spec.Stdin != nil {
			p.fds = append(p.fds, &fdEntry{r: spec.Stdin})
		} else {
			spec.Stdio.ref()
			p.fds = append(p.fds, &fdEntry{sock: spec.Stdio})
		}
		for i := 0; i < 2; i++ {
			spec.Stdio.ref()
			p.fds = append(p.fds, &fdEntry{sock: spec.Stdio})
		}
	default:
		p.fds = append(p.fds, &fdEntry{r: spec.Stdin}, &fdEntry{w: spec.Stdout}, &fdEntry{w: spec.Stdout})
	}
	if !spec.Suspended {
		p.started = true
		close(p.startCh)
	}

	m.mu.Lock()
	m.procs[pid] = p
	m.mu.Unlock()
	return p
}

// Proc looks up a live process by pid.
func (m *Machine) Proc(pid int) (*Process, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d on %s", ErrSearch, pid, m.name)
	}
	return p, nil
}

// Procs returns the live processes on this machine.
func (m *Machine) Procs() []*Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Process, 0, len(m.procs))
	for _, p := range m.procs {
		out = append(out, p)
	}
	return out
}

func (m *Machine) removeProc(pid int) {
	m.mu.Lock()
	delete(m.procs, pid)
	m.mu.Unlock()
}

// Signal delivers a signal to a process.
func (m *Machine) Signal(pid int, sig Signal) error {
	p, err := m.Proc(pid)
	if err != nil {
		return err
	}
	p.signal(sig)
	return nil
}

// newSocket allocates a socket with a machine-unique id.
func (m *Machine) newSocket(domain uint16, typ int) *Socket {
	m.mu.Lock()
	m.nextSockID++
	id := m.nextSockID
	m.mu.Unlock()
	m.mem.sockets.Add(1)
	return &Socket{
		id:      id,
		machine: m,
		domain:  domain,
		typ:     typ,
		refs:    1,
	}
}

// Footprint reports the machine's live simulated-kernel memory: socket
// count and bytes queued in socket receive buffers. The scale soak
// uses it to pin the per-machine budget claimed in docs/perf.md.
func (m *Machine) Footprint() (sockets, bufferedBytes int64) {
	return m.mem.sockets.Load(), m.mem.buffered.Load()
}

// allocPort hands out an ephemeral port of the given type, or 0 when
// one full wrap of the port space finds every port bound. The caller
// holds m.mu.
func (m *Machine) allocPort(typ int) uint16 {
	for tries := 0; tries <= math.MaxUint16-ephemeralBase; tries++ {
		m.nextPort++
		if m.nextPort == 0 {
			m.nextPort = ephemeralBase
		}
		if _, used := m.ports[portKey{typ, m.nextPort}]; !used {
			return m.nextPort
		}
	}
	return 0
}

const ephemeralBase = 1024

// bindInet binds a socket to an Internet port (0 allocates one). The
// socket name uses the machine's primary address.
func (m *Machine) bindInet(s *Socket, port uint16) (meter.Name, error) {
	m.mu.Lock()
	if port == 0 {
		if port = m.allocPort(s.typ); port == 0 {
			m.mu.Unlock()
			return meter.Name{}, fmt.Errorf("%w: no free ephemeral port", ErrAddrInUse)
		}
	}
	key := portKey{s.typ, port}
	if _, used := m.ports[key]; used {
		m.mu.Unlock()
		return meter.Name{}, fmt.Errorf("%w: port %d", ErrAddrInUse, port)
	}
	m.ports[key] = s
	m.mu.Unlock()

	name := meter.InetName(m.PrimaryHostID(), port)
	s.mu.Lock()
	s.bound = true
	s.boundName = name
	s.port = port
	s.mu.Unlock()
	return name, nil
}

// bindUnix binds a socket to a UNIX-domain path.
func (m *Machine) bindUnix(s *Socket, path string) (meter.Name, error) {
	m.mu.Lock()
	if _, used := m.unixSocks[path]; used {
		m.mu.Unlock()
		return meter.Name{}, fmt.Errorf("%w: %s", ErrAddrInUse, path)
	}
	m.unixSocks[path] = s
	m.mu.Unlock()

	name := meter.UnixName(path)
	s.mu.Lock()
	s.bound = true
	s.boundName = name
	s.path = path
	s.mu.Unlock()
	return name, nil
}

// unbindSocket removes a destroyed socket from the binding tables.
func (m *Machine) unbindSocket(s *Socket) {
	s.mu.Lock()
	bound, typ, port, path := s.bound, s.typ, s.port, s.path
	s.mu.Unlock()
	if !bound {
		return
	}
	m.mu.Lock()
	if port != 0 && m.ports[portKey{typ, port}] == s {
		delete(m.ports, portKey{typ, port})
	}
	if path != "" && m.unixSocks[path] == s {
		delete(m.unixSocks, path)
	}
	m.mu.Unlock()
}

// streamsTo returns the bound stream sockets on m whose connected peer
// lives on other. The client end of every cross-machine stream is
// implicitly bound at connect time, so each established connection has
// at least one end in some machine's port table; severing that end
// resets both directions. Socket locks are taken only after releasing
// the machine lock.
func (m *Machine) streamsTo(other *Machine) []*Socket {
	m.mu.Lock()
	socks := make([]*Socket, 0, len(m.ports))
	for _, s := range m.ports {
		if s.typ == SockStream {
			socks = append(socks, s)
		}
	}
	m.mu.Unlock()
	var out []*Socket
	for _, s := range socks {
		if s.peerMachine() == other {
			out = append(out, s)
		}
	}
	return out
}

// PortBound reports whether a socket is bound to (typ, port); the
// daemon uses it to wait for a newly created filter to come up before
// reporting it created.
func (m *Machine) PortBound(typ int, port uint16) bool {
	return m.lookupPort(typ, port) != nil
}

// lookupPort finds the socket bound to (typ, port).
func (m *Machine) lookupPort(typ int, port uint16) *Socket {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ports[portKey{typ, port}]
}

// lookupUnix finds the socket bound to a UNIX path.
func (m *Machine) lookupUnix(path string) *Socket {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.unixSocks[path]
}

// InjectDgram delivers a kernel-originated datagram to the socket
// bound to a datagram port on this machine. The meterdaemon's child
// termination notifications use it as the stand-in for SIGCHLD
// delivery: the kernel pokes the daemon's notification socket when one
// of its children changes state (section 3.5.1).
func (m *Machine) InjectDgram(port uint16, data []byte, src meter.Name) {
	if s := m.lookupPort(SockDgram, port); s != nil {
		s.deliverDgram(data, src, m.clock.Now())
	}
}

// DeliverDatagram implements netsim.Endpoint: a datagram arriving from
// a network is routed to the socket bound to its destination port.
// Datagrams to unbound ports are dropped, as UDP drops them.
func (m *Machine) DeliverDatagram(dg netsim.Datagram) {
	if m.Down() {
		return // a crashed machine receives nothing
	}
	s := m.lookupPort(SockDgram, dg.Dst.Port)
	if s == nil {
		return
	}
	s.deliverDgram(dg.Data, dg.SrcName, dg.SentAt)
}
