package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/agg"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
)

// Port is the well-known port every meterdaemon listens on. "A
// meterdaemon spends most of its time listening for an IPC connection
// request from a controller process" (section 3.5.1).
const Port = 551

// ProgramName is the registry name of the meterdaemon program.
const ProgramName = "dpm-meterdaemon"

// StatsPath is where a meterdaemon exports its machine's metrics
// snapshot (JSON) when it shuts down — beside the filter logs in
// /usr/tmp, so a chaos soak's wreckage includes the numbers.
const StatsPath = "/usr/tmp/meterdaemon.stats.json"

// Install registers the daemon program with the cluster and starts a
// meterdaemon (as root) on the given machine, returning once it is
// listening. "There must be a meterdaemon on each machine that
// supports the measurement system."
func Install(c *kernel.Cluster, m *kernel.Machine) (*kernel.Process, error) {
	c.RegisterProgram(ProgramName, Main)
	p, err := m.Spawn(kernel.SpawnSpec{UID: 0, Name: "meterdaemon", Program: Main})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.PortBound(kernel.SockStream, Port) {
		if exited, status, _ := p.Exited(); exited {
			return nil, fmt.Errorf("daemon: meterdaemon on %s exited with status %d", m.Name(), status)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon: meterdaemon on %s never started listening", m.Name())
		}
		time.Sleep(time.Millisecond)
	}
	return p, nil
}

// childInfo is the daemon's record of one process it created.
type childInfo struct {
	pid       int
	uid       int
	control   controlAddr // where its state changes and output go
	stdioPort uint16      // the child's end of the I/O gateway
}

// controlAddr is a controller's notification socket.
type controlAddr struct {
	host string
	port uint16
}

// Main is the meterdaemon program. It accepts controller connections
// and serves each on an auxiliary goroutine, whether it carries one
// exchange (section 3.5.1) or a whole session (mux.go). It also
// forwards child standard output to the controllers and reports child
// terminations by connecting to the responsible controller's
// notification socket.
func Main(p *kernel.Process) int {
	d := newDaemonState(p)
	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return 1
	}
	if err := p.BindPort(lfd, Port); err != nil {
		p.Printf("meterdaemon: %v\n", err)
		return 1
	}
	if err := p.Listen(lfd, 32); err != nil {
		return 1
	}
	if d.openGateway() != nil {
		return 1
	}
	gfd := d.gfd

	// End-of-run snapshot export: runs whether the Select loop returns
	// on kill or the process unwinds from a deeper syscall, and writes
	// through the machine FS directly (process syscalls are unusable
	// mid-unwind).
	defer p.Machine().ExportStats(StatsPath, 0)

	for {
		ready, err := p.Select([]int{lfd, gfd})
		if err != nil {
			return 0 // killed at shutdown
		}
		for _, fd := range ready {
			switch fd {
			case lfd:
				conn, _, err := p.Accept(lfd)
				if err != nil {
					return 0
				}
				// Each connection gets its own goroutine, so a slow
				// request (or a whole session) never blocks the accept
				// loop or the gateway.
				p.Go(func() { d.serveConn(conn) })
			case gfd:
				data, src, err := p.RecvFrom(gfd, 8192)
				if err != nil {
					return 0
				}
				d.handleGateway(data, src)
			}
		}
	}
}

// newDaemonState returns the state of a meterdaemon run by p.
func newDaemonState(p *kernel.Process) *daemonState {
	reg := p.Machine().Obs()
	return &daemonState{
		p:            p,
		children:     make(map[int]*childInfo),
		byStdio:      make(map[uint16]*childInfo),
		creates:      make(map[string]int),
		aggMemo:      agg.NewMemo(agg.MemoCost, reg),
		notifyFDs:    make(map[controlAddr]int),
		notifyFailed: reg.Counter("daemon.notify_failed"),
		frames:       frameFree.Stats(reg),
		requests:     requestFree.Stats(reg),
	}
}

// openGateway opens the daemon's gateway datagram socket, which its
// children's standard descriptors are connected to.
func (d *daemonState) openGateway() error {
	gfd, err := d.p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return err
	}
	if err := d.p.BindPort(gfd, 0); err != nil {
		return err
	}
	gname, err := d.p.SocketName(gfd)
	if err != nil {
		return err
	}
	_, d.gatewayPort = gname.Inet()
	d.gatewayName, d.gfd = gname, gfd
	return nil
}

type daemonState struct {
	p           *kernel.Process
	gfd         int // the gateway datagram socket
	gatewayPort uint16
	gatewayName meter.Name

	// mu guards the child tables, the idempotency ledger, and the
	// notification connection cache — connections are served on
	// concurrent goroutines since the session layer arrived.
	mu       sync.Mutex
	children map[int]*childInfo
	byStdio  map[uint16]*childInfo

	// Idempotency ledger: token -> the pid of the create that already
	// ran under it. A create retried after a lost reply finds its
	// original outcome here instead of creating a second process.
	// createMu serializes whole creates, so a retry arriving on a new
	// session connection while the original is still executing cannot
	// slip past the ledger check and create a second process. tokens is
	// the ledger's tokens in a ring, the oldest at created (mod its
	// size), which the next one replaces once the ring is full.
	createMu sync.Mutex
	creates  map[string]int
	tokens   [maxCreateTokens]string
	created  int

	// getfile prefix-CRC checkpoints by path (prefixCRC), guarded by mu.
	fileSums table[string, prefixSum]

	// The length of the last stats reply's snapshot: the next one's
	// frame is taken that large.
	statsSize atomic.Int64

	// Each store's last snapshot by UID and directory, which the next
	// query of the store reopens (store.Reopen), and each compiled query
	// by its texts (compiled); guarded by mu, as is uses, the clock the
	// tables' entries are stamped with when used.
	readers table[storeKey, storeView]
	queries table[queryKey, *agg.Query]
	uses    uint64

	// Sealed segments' aggregate group tables, across handleAgg calls.
	aggMemo *agg.Memo

	// Persistent notification connections, one per controller
	// (host, port). The paper's daemon opened a temporary connection
	// per state change; keeping it open makes the common notification
	// one send, and a failure is retried once on a fresh connection
	// before being counted under daemon.notify_failed.
	notifyFDs    map[controlAddr]int
	notifyFailed *obs.Counter
	frames       *obs.FreeStats // the daemon's traffic with frameFree
	requests     *obs.FreeStats // and with requestFree
}

// maxCreateTokens bounds the idempotency ledger; the oldest entries
// are evicted first, long after any plausible retry of them.
const maxCreateTokens = 1024

// rememberCreate records a successful create under its token, a copy
// of which the ledger keeps.
func (d *daemonState) rememberCreate(token string, pid int) {
	if token == "" {
		return
	}
	token = strings.Clone(token)
	d.mu.Lock()
	defer d.mu.Unlock()
	slot := &d.tokens[d.created%maxCreateTokens]
	if *slot != "" {
		delete(d.creates, *slot)
	}
	*slot = token
	d.creates[token] = pid
	d.created++
}

// lookupCreate consults the idempotency ledger.
func (d *daemonState) lookupCreate(token string) (pid int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pid, ok = d.creates[token]
	return pid, ok
}

// handle serves one request, from a payload serveConn has checked and
// copied: its strings are read in place, and the payload is reused once
// the reply is sent, so what a handler keeps beyond the reply it clones.
func (d *daemonState) handle(payload []byte) Reply {
	t, f, _ := openWire(payload, false)
	d.p.Machine().Obs().Counter(reqCounterName(t)).Inc()
	switch t {
	case TCreateReq:
		req, err := readCreateReq(&f)
		if err != nil {
			return Reply{Type: TCreateRep, Status: err.Error()}
		}
		return d.handleCreate(&req)
	case TQueryReq:
		return d.handleQuery(readQueryReq(&f))
	case TAggReq:
		return d.handleAgg(readAggReq(&f))
	case TStatsReq:
		return d.handleStats()
	case TListReq:
		return d.handleList()
	}
	req := readProcReq(t, &f)
	switch t {
	case TSetFlagsReq:
		return d.handleSetFlags(&req)
	case TStartReq:
		return d.handleSignal(&req, kernel.SIGCONT, TStartRep)
	case TStopReq:
		return d.handleSignal(&req, kernel.SIGSTOP, TStopRep)
	case TKillReq:
		return d.handleSignal(&req, kernel.SIGKILL, TKillRep)
	case TAcquireReq:
		return d.handleAcquire(&req)
	case TGetFileReq:
		return d.handleGetFile(&req)
	case TReleaseReq:
		return d.handleRelease(&req)
	case TStdinReq:
		return d.handleStdin(&req)
	}
	return Reply{Type: TCreateRep, Status: fmt.Sprintf("unknown request %v", t)}
}

// connectMeterSocket creates a stream socket connected to a filter,
// retrying briefly while the (asynchronously created) filter comes up.
func (d *daemonState) connectMeterSocket(host string, port uint16) (int, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		fd, err := dial(d.p, host, port)
		if err == nil || !errors.Is(err, kernel.ErrConnRefused) || time.Now().After(deadline) {
			return fd, err
		}
		time.Sleep(time.Millisecond)
	}
}

// dial connects a new stream socket of p's to port on host.
func dial(p *kernel.Process, host string, port uint16) (int, error) {
	hostID, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), host)
	if err != nil {
		return -1, err
	}
	fd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return -1, err
	}
	if err := p.Connect(fd, meter.InetName(hostID, port)); err != nil {
		_ = p.Close(fd)
		return -1, err
	}
	return fd, nil
}

func (d *daemonState) handleCreate(req *CreateReq) Reply {
	// One create at a time: the token check and the spawn must be
	// atomic against a transparently re-issued duplicate of the same
	// request arriving on another connection.
	d.createMu.Lock()
	defer d.createMu.Unlock()
	if pid, ok := d.lookupCreate(req.Token); ok && req.Token != "" {
		return Reply{Type: TCreateRep, PID: pid, Status: "ok"}
	}
	m := d.p.Machine()
	if !m.HasAccount(req.UID) {
		return Reply{Type: TCreateRep, Status: fmt.Sprintf("uid %d has no account on %s", req.UID, m.Name())}
	}
	if _, err := m.FS().Executable(req.Filename, req.UID); err != nil {
		return Reply{Type: TCreateRep, Status: err.Error()}
	}

	// The per-process I/O gateway socket (section 3.5.2): a datagram
	// socket connected back to the daemon's gateway, installed as the
	// child's standard descriptors. Datagram links are reliable
	// within a single machine. Spawn takes the child's own references;
	// the daemon's is closed on every way out, so the socket and its
	// port live exactly as long as the child.
	sfd, err := d.p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return Reply{Type: TCreateRep, Status: err.Error()}
	}
	defer func() { _ = d.p.Close(sfd) }()
	if err := d.p.BindPort(sfd, 0); err != nil {
		return Reply{Type: TCreateRep, Status: err.Error()}
	}
	if err := d.p.Connect(sfd, d.gatewayName); err != nil {
		return Reply{Type: TCreateRep, Status: err.Error()}
	}
	stdioName, _ := d.p.SocketName(sfd)
	_, stdioPort := stdioName.Inet()
	stdio, err := d.p.SocketOf(sfd)
	if err != nil {
		return Reply{Type: TCreateRep, Status: err.Error()}
	}

	// Standard input redirected from a file, if requested: the file
	// was copied to this machine by the controller and is opened by
	// the meterdaemon (section 3.5.2).
	var stdin io.Reader
	if req.StdinFile != "" {
		data, err := m.FS().Read(req.StdinFile, req.UID)
		if err != nil {
			return Reply{Type: TCreateRep, Status: err.Error()}
		}
		stdin = bytes.NewReader(data)
	}

	// The request's strings go back with its payload: the process keeps
	// copies of its name and arguments, the child table of the control
	// host.
	args := req.Params
	for i, a := range args {
		args[i] = strings.Clone(a)
	}
	child, err := m.Spawn(kernel.SpawnSpec{
		UID:       req.UID,
		Name:      strings.Clone(req.Filename),
		Args:      args,
		Path:      req.Filename,
		Suspended: true,
		Stdio:     stdio,
		Stdin:     stdin,
		PPID:      d.p.PID(),
	})
	if err != nil {
		return Reply{Type: TCreateRep, Status: err.Error()}
	}

	// Wire up the meter connection before the process can run its
	// first instruction: the process is connected to its job's filter
	// at creation time even if no flags are set yet — setflags can
	// turn events on at any point during execution (section 4.3).
	if req.FilterHost != "" {
		msfd, err := d.connectMeterSocket(req.FilterHost, req.FilterPort)
		if err != nil {
			_ = m.Signal(child.PID(), kernel.SIGKILL)
			return Reply{Type: TCreateRep, Status: fmt.Sprintf("meter connection: %v", err)}
		}
		if err := d.p.Setmeter(child.PID(), int(req.MeterFlags), msfd); err != nil {
			_ = m.Signal(child.PID(), kernel.SIGKILL)
			return Reply{Type: TCreateRep, Status: err.Error()}
		}
		if err := d.p.Close(msfd); err != nil {
			return Reply{Type: TCreateRep, Status: err.Error()}
		}
	}

	info := &childInfo{
		pid:       child.PID(),
		uid:       req.UID,
		control:   controlAddr{strings.Clone(req.ControlHost), req.ControlPort},
		stdioPort: stdioPort,
	}
	d.mu.Lock()
	d.children[info.pid] = info
	d.byStdio[info.stdioPort] = info
	d.mu.Unlock()

	// The simulation's SIGCHLD: when the child terminates the kernel
	// pokes the daemon's gateway with the state change message, which
	// the daemon forwards to the controller (section 3.5.1).
	gatewayPort := d.gatewayPort
	child.OnExit(func(cp *kernel.Process, status int, reason string) {
		sc := StateChange{Machine: m.Name(), PID: cp.PID(), Reason: reason, Status: status}
		m.InjectDgram(gatewayPort, sc.appendWire(nil), meter.Name{})
	})

	d.rememberCreate(req.Token, child.PID())
	return Reply{Type: TCreateRep, PID: child.PID(), Status: "ok"}
}

// errPermission refuses a request about another user's process.
var errPermission = errors.New("permission denied")

// checkTarget verifies the request's uid may control the target pid.
func (d *daemonState) checkTarget(req *ProcReq) error {
	target, err := d.p.Machine().Proc(req.PID)
	if err != nil {
		return err
	}
	if req.UID != 0 && target.UID() != req.UID {
		return errPermission
	}
	return nil
}

// procReply is the reply of type t about process pid: "ok", or the
// text of what failed.
func procReply(t MsgType, pid int, err error) Reply {
	if err != nil {
		return Reply{Type: t, PID: pid, Status: err.Error()}
	}
	return Reply{Type: t, PID: pid, Status: "ok"}
}

func (d *daemonState) handleSetFlags(req *ProcReq) Reply {
	err := d.checkTarget(req)
	if err == nil {
		err = d.p.Setmeter(req.PID, int(req.Flags), kernel.NoChange)
	}
	return procReply(TSetFlagsRep, req.PID, err)
}

func (d *daemonState) handleSignal(req *ProcReq, sig kernel.Signal, repType MsgType) Reply {
	err := d.checkTarget(req)
	if err == nil {
		err = d.p.Machine().Signal(req.PID, sig)
	}
	return procReply(repType, req.PID, err)
}

// handleAcquire meters an already-executing process: its meter
// connection is established and flags set, but its execution state is
// never touched (section 3.5.2: "no changes are made to the handling
// of the processes' I/O ... the user is not allowed to modify the
// processes' execution state").
func (d *daemonState) handleAcquire(req *ProcReq) Reply {
	if err := d.checkTarget(req); err != nil {
		return procReply(TAcquireRep, req.PID, err)
	}
	if req.FilterHost == "" {
		return Reply{Type: TAcquireRep, PID: req.PID, Status: "no filter specified"}
	}
	msfd, err := d.connectMeterSocket(req.FilterHost, req.FilterPort)
	if err != nil {
		return procReply(TAcquireRep, req.PID, err)
	}
	if err := d.p.Setmeter(req.PID, int(req.Flags), msfd); err != nil {
		_ = d.p.Close(msfd)
		return procReply(TAcquireRep, req.PID, err)
	}
	return procReply(TAcquireRep, req.PID, d.p.Close(msfd))
}

// handleRelease stops metering a process: all flags off and the meter
// connection closed. The process itself continues to execute.
func (d *daemonState) handleRelease(req *ProcReq) Reply {
	err := d.checkTarget(req)
	if err == nil {
		err = d.p.Setmeter(req.PID, kernel.FlagsNone, kernel.SockNone)
	}
	return procReply(TReleaseRep, req.PID, err)
}

// handleStdin forwards user input to a child's standard descriptors:
// the daemon sends it as a datagram to the child's end of the I/O
// gateway, where the process's next read of descriptor 0 picks it up.
// Only processes this daemon created (and whose stdio is the gateway)
// can receive input this way. The text travels in the request's Path
// field.
func (d *daemonState) handleStdin(req *ProcReq) Reply {
	if err := d.checkTarget(req); err != nil {
		return procReply(TStdinRep, req.PID, err)
	}
	d.mu.Lock()
	info := d.children[req.PID]
	d.mu.Unlock()
	if info == nil {
		return Reply{Type: TStdinRep, PID: req.PID, Status: "process was not created by this meterdaemon"}
	}
	dest := meter.InetName(d.p.Machine().PrimaryHostID(), info.stdioPort)
	_, err := d.p.SendTo(d.gfd, []byte(req.Path), dest)
	return procReply(TStdinRep, req.PID, err)
}

// handleList reports the machine's live processes, one per line:
// "pid uid name", sorted by pid.
func (d *daemonState) handleList() Reply {
	procs := d.p.Machine().Procs()
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID() < procs[j].PID() })
	var b strings.Builder
	for _, proc := range procs {
		fmt.Fprintf(&b, "%d %d %s\n", proc.PID(), proc.UID(), proc.Name())
	}
	return Reply{Type: TListRep, Status: "ok", Data: b.String()}
}

// getFileChunk is the most file bytes one getfile reply carries: well
// under maxWireSize, so a file of any size travels as a sequence of
// replies the requester asks for one offset at a time.
const getFileChunk = 4 << 20

// handleGetFile ships up to getFileChunk bytes of a file from the
// requested offset. The reply's PID carries the file's total size — a
// total beyond offset+len(Data) tells the requester to ask again from
// there — and Aux the CRC-32 (IEEE) of the prefix the offset skipped,
// so the requester can verify the splice (and detect an in-place
// rewrite) before appending. An offset outside the file (it shrank)
// resets to a transfer from the top. The cost is that of the bytes
// shipped: one snapshot of the file serves the read and the checksum,
// the reply's Data is the one copy made of the bytes, and the checksum
// resumes from the path's checkpoint.
func (d *daemonState) handleGetFile(req *ProcReq) Reply {
	snap, err := d.p.Machine().FS().Open(req.Path, req.UID)
	if err != nil {
		return Reply{Type: TGetFileRep, Status: err.Error()}
	}
	off := req.Offset
	if off < 0 || off > snap.Size() {
		off = 0
	}
	var data strings.Builder
	data.Grow(min(snap.Size()-off, getFileChunk))
	for _, ext := range snap.Extents(off, getFileChunk) {
		data.Write(ext)
	}
	d.p.Machine().Obs().Counter("daemon.getfile_bytes").Add(int64(data.Len()))
	return Reply{
		Type: TGetFileRep, PID: snap.Size(), Status: "ok",
		Data: data.String(),
		Aux:  strconv.FormatUint(uint64(d.prefixCRC(req.Path, snap, off, data.Len())), 10),
	}
}

// prefixSum is a getfile checkpoint: crc is the CRC-32 (IEEE) of bytes
// [0, off) of the file with fsys id file. A file's bytes below a length
// once observed never change (fsys), so a checkpoint stays true of its
// file for ever; it says nothing about any other file, including a
// later one at the same path.
type prefixSum struct {
	file uint64
	off  int
	crc  uint32
}

// tableSize bounds each of the daemon's tables of saved work: getfile
// checkpoints, store readers and compiled queries. An entry only saves
// work, so a full table makes room for a new key by evicting its least
// recently used entry (keep), counted in daemon.table_evictions: a
// standing query outlives any number of one-off ones.
const tableSize = 64

// table is one of the daemon's tables of saved work: its entries by
// key, and again in a slice that is scanned for the one to evict.
type table[K comparable, V any] struct {
	byKey   map[K]*saved[K, V]
	entries []*saved[K, V]
}

// saved is an entry of a table: its key, its value and when it was last
// used, by d.uses.
type saved[K comparable, V any] struct {
	k    K
	v    V
	used uint64
}

// lookup returns the entry of the table t for k, under d.mu, marking it
// used.
func lookup[K comparable, V any](d *daemonState, t *table[K, V], k K) (v V, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := t.byKey[k]; e != nil {
		d.uses++
		v, ok, e.used = e.v, true, d.uses
	}
	return v, ok
}

// keep stores v for k in the table t, under d.mu. A new key in a full
// table takes the place of the least recently used entry.
func keep[K comparable, V any](d *daemonState, t *table[K, V], k K, v V) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := t.byKey[k]
	switch {
	case e != nil:
	case len(t.entries) < tableSize:
		if t.byKey == nil {
			t.byKey = make(map[K]*saved[K, V])
		}
		e = &saved[K, V]{k: k}
		t.entries = append(t.entries, e)
		t.byKey[k] = e
	default:
		e = t.entries[0]
		for _, old := range t.entries {
			if old.used < e.used {
				e = old
			}
		}
		delete(t.byKey, e.k)
		e.k = k
		t.byKey[k] = e
		d.p.Machine().Obs().Counter("daemon.table_evictions").Inc()
	}
	d.uses++
	e.v, e.used = v, d.uses
}

// prefixCRC returns the CRC of snap's bytes [0, off), where the reply
// is about to ship the n bytes from off. It extends the path's
// checkpoint over only the bytes past it — none, when requests arrive
// in sequence, because the checkpoint is then advanced over the shipped
// bytes so the next request finds its prefix ready. A checkpoint of a
// different file (the path was removed or replaced) or one already past
// off (the requester went backwards, or another requester is further
// on) is not used: the sum restarts from the top of the file.
// Concurrent requests for one path each work on a copy and store a
// checkpoint that is true in itself, so the last store wins and none
// can mislead.
func (d *daemonState) prefixCRC(path string, snap fsys.Snapshot, off, n int) uint32 {
	ck, _ := lookup(d, &d.fileSums, path)
	if ck.file != snap.ID() || ck.off > off {
		ck = prefixSum{file: snap.ID()}
	}
	sumTo := func(end int) {
		for _, ext := range snap.Extents(ck.off, end-ck.off) {
			ck.crc = crc32.Update(ck.crc, crc32.IEEETable, ext)
		}
		ck.off = end
	}
	sumTo(off)
	prefix := ck.crc
	sumTo(off + n)
	keep(d, &d.fileSums, strings.Clone(path), ck) // path lies in the request
	return prefix
}

// storeKey names a store on this machine: its directory, as a uid
// reads it.
type storeKey struct {
	uid int
	dir string
}

// storeView is a store's entry in the readers table: its last snapshot,
// the backend it is reopened through, and the id its aggregates' tables
// are kept under in the memo (agg.Options.Store).
type storeView struct {
	rd *store.Reader
	be *store.FsysBackend
	id string
}

// reader snapshots a store on this machine, reopening the last snapshot
// of it, so that the segments unchanged since are taken as they were,
// and returns it with the store's memo id. The table pins what its
// readers were lent until the next snapshot of the same store replaces
// them. The reopen is timed into daemon.reopen_ns: the part of a
// query's fixed cost spent before any segment is scanned.
func (d *daemonState) reader(uid int, dir string) (*store.Reader, string, error) {
	k := storeKey{uid, dir}
	v, ok := lookup(d, &d.readers, k)
	if !ok { // dir may lie in the request's payload: the table keeps a copy
		k.dir = strings.Clone(dir)
		v = storeView{be: store.NewFsysBackend(d.p.Machine().FS(), uid, dir), id: strconv.Itoa(uid) + ":" + dir}
	}
	span := obs.StartSpan(d.p.Machine().Obs().Histogram("daemon.reopen_ns"))
	rd, err := store.Reopen(v.rd, v.be)
	span.End()
	if err != nil {
		return nil, "", err
	}
	v.rd = rd
	keep(d, &d.readers, k, v)
	return rd, v.id, nil
}

// queryKey names a compiled query by its texts.
type queryKey struct {
	rules, spec  string
	agg, noPrune bool
}

// compiled returns the aggregate compiled from k's texts, or, when
// !k.agg, the record query of its rules as an aggregate's Sel alone. A
// standing query compiles once: the table keeps it shared and never
// written, NoPrune (a key field) and Obs set. k's texts may lie in the
// request's payload, so the table keeps copies, and the query, which
// may keep pieces of its texts, is compiled from them.
func (d *daemonState) compiled(k queryKey) (aq *agg.Query, err error) {
	reg := d.p.Machine().Obs()
	if aq, ok := lookup(d, &d.queries, k); ok {
		reg.Counter("daemon.compile_hits").Inc()
		return aq, nil
	}
	reg.Counter("daemon.compile_misses").Inc()
	k.rules, k.spec = strings.Clone(k.rules), strings.Clone(k.spec)
	if k.agg {
		aq, err = agg.Compile(k.rules + "\n" + k.spec)
	} else {
		aq = new(agg.Query)
		aq.Sel, err = query.Compile(k.rules)
	}
	if err != nil {
		return nil, err
	}
	aq.Sel.NoPrune, aq.Sel.Obs = k.noPrune, reg
	keep(d, &d.queries, k, aq)
	return aq, nil
}

// handleQuery runs a selection-rule query against an event store on
// this machine — the query layer's whole point is that this executes
// where the data lives, so only matching records travel back. The
// reply Data is one statistics line followed by the matching records,
// written from the query's buffers straight into the reply frame.
func (d *daemonState) handleQuery(req QueryReq) Reply {
	aq, err := d.compiled(queryKey{rules: req.Rules, noPrune: req.NoPrune})
	if err != nil {
		return Reply{Type: TQueryRep, Status: err.Error()}
	}
	rd, _, err := d.reader(req.UID, req.Dir)
	if err != nil {
		return Reply{Type: TQueryRep, Status: err.Error()}
	}
	a, err := query.Exec(rd, aq.Sel)
	if err != nil {
		return Reply{Type: TQueryRep, Status: err.Error()}
	}
	head := a.Stats.String()
	return Reply{Type: TQueryRep, Status: "ok", dataSize: len(head) + 1 + a.Len(), appendData: func(b []byte) []byte {
		return a.AppendLines(append(append(b, head...), '\n'))
	}}
}

// handleAgg runs an aggregate query against an event store on this
// machine and ships back the bounded partial aggregate instead of the
// matching records — the push-down that turns a cluster-wide group-by
// into kilobytes per machine. Reply Data is the binary partial, encoded
// straight into a frame sized at about 96 bytes a group and then
// released, Aux the scan-statistics line. The daemon's memo spares a
// repeated aggregate the sealed segments it has already folded.
func (d *daemonState) handleAgg(req AggReq) Reply {
	aq, err := d.compiled(queryKey{rules: req.Rules, spec: req.Spec, agg: true, noPrune: req.NoPrune})
	if err != nil {
		return Reply{Type: TAggRep, Status: err.Error()}
	}
	rd, id, err := d.reader(req.UID, req.Dir)
	if err != nil {
		return Reply{Type: TAggRep, Status: err.Error()}
	}
	reg := d.p.Machine().Obs()
	p, stats, err := agg.Eval(rd, aq, agg.Options{Obs: reg, Memo: d.aggMemo, Store: id})
	if err != nil {
		return Reply{Type: TAggRep, Status: err.Error()}
	}
	return Reply{Type: TAggRep, Status: "ok", Aux: stats.String(), dataSize: 64 + len(p.Spec) + 96*len(p.Groups), appendData: func(b []byte) []byte {
		n := len(b)
		b = p.AppendBinary(b)
		p.Release()
		reg.Counter("agg.partial_bytes").Add(int64(len(b) - n))
		return b
	}}
}

// handleStats encodes this machine's metrics registry straight into the
// reply frame, in the versioned binary snapshot format, each live
// section captured into it where it belongs. Everything running on the
// machine — kernel meter buffers, filters, stores, queries, and this
// daemon's own request counters — shares the registry, so one reply
// describes the whole node. The daemon never interprets the metrics;
// merging and rendering are the controller's business. The frame is
// sized by the last reply. What the snapshot costs — capture plus
// encoding, and the bytes shipped — goes into the same registry, its
// handles resolved before the capture so that the report lists them,
// as of the report before.
func (d *daemonState) handleStats() Reply {
	reg := d.p.Machine().Obs()
	span := obs.StartSpan(reg.Histogram("daemon.stats_snapshot_ns"))
	replyBytes := reg.Counter("daemon.stats_reply_bytes")
	return Reply{Type: TStatsRep, Status: "ok", dataSize: int(d.statsSize.Load()), appendData: func(b []byte) []byte {
		at := len(b)
		b = d.p.Machine().Obs().AppendBinary(b, d.p.Machine().Name())
		span.End()
		d.statsSize.Store(int64(len(b) - at))
		replyBytes.Add(int64(len(b) - at))
		return b
	}}
}

// handleGateway dispatches datagrams arriving on the gateway socket:
// the state changes the kernel injects as children exit, or child
// standard output, each forwarded to the child's controller.
func (d *daemonState) handleGateway(data []byte, src meter.Name) {
	if src.IsZero() {
		t, f, err := openWire(data, false)
		if err != nil || t != TStateChange {
			return
		}
		pid := readStateChange(&f).PID
		d.mu.Lock()
		info := d.children[pid]
		if info != nil {
			delete(d.children, pid)
			delete(d.byStdio, info.stdioPort)
		}
		d.mu.Unlock()
		if info == nil || info.control.host == "" {
			return
		}
		_ = d.notifyController(info, AppendFrame(takeFrameBuf(frameHeader+len(data), d.frames), FrameReq, 0, data))
		return
	}
	if src.Family() == meter.AFInet {
		_, port := src.Inet()
		d.mu.Lock()
		info := d.byStdio[port]
		d.mu.Unlock()
		if info == nil || info.control.host == "" {
			return
		}
		iod := IOData{Machine: d.p.Machine().Name(), PID: info.pid, Data: string(data)}
		b := takeFrameBuf(frameHeader+frameBuf/2+len(data), d.frames)
		_ = d.notifyController(info, endFrame(iod.appendWire(beginFrame(b, FrameReq, 0)), 0))
	}
}

// notifyController delivers one daemon-initiated message (state change
// or forwarded output), framed in b from takeFrameBuf, to a controller's
// notification socket, and gives b back. The connection persists
// across notifications; a send that fails — the controller restarted,
// or the old connection was severed by a partition — is retried once on
// a fresh connection, and only then is the notification counted lost
// under daemon.notify_failed. (The paper's daemon opened a temporary
// connection each time and an error dropped the notification silently.)
func (d *daemonState) notifyController(info *childInfo, b []byte) error {
	defer freeFrameBuf(b, d.frames)
	key := info.control
	d.mu.Lock()
	fd, cached := d.notifyFDs[key]
	d.mu.Unlock()
	if cached {
		if _, err := d.p.Send(fd, b); err == nil {
			return nil
		}
		// Stale connection: drop it and fall through to a fresh dial.
		d.dropNotifyFD(key, fd)
	}

	fd, err := dial(d.p, key.host, key.port)
	if err == nil {
		d.mu.Lock()
		d.notifyFDs[key] = fd
		d.mu.Unlock()
		if _, err = d.p.Send(fd, b); err != nil {
			d.dropNotifyFD(key, fd)
		}
	}
	if err != nil {
		d.notifyFailed.Inc()
	}
	return err
}

// dropNotifyFD closes a dead notification connection and forgets it if
// it is still the cached one.
func (d *daemonState) dropNotifyFD(key controlAddr, fd int) {
	d.mu.Lock()
	if d.notifyFDs[key] == fd {
		delete(d.notifyFDs, key)
	}
	d.mu.Unlock()
	_ = d.p.Close(fd)
}

// ReadNotices applies each notification a daemon sends on conn — a
// state change or forwarded output, one request frame each — until the
// connection ends or carries a corrupt frame. The strings of each are
// one copy of its message.
func ReadNotices(p *kernel.Process, conn int, state func(StateChange), output func(IOData)) {
	fr := frameReader{mem: frameFree.Stats(p.Machine().Obs())}
	defer fr.release()
	rc := receiver{p: p, fd: conn}
	for {
		f, err := fr.next(rc.recv)
		if err != nil {
			return
		}
		if f.Kind != FrameReq {
			continue // unknown kinds are skipped, as on every stream
		}
		t, m, err := openWire(f.Payload, true)
		if err != nil {
			return
		}
		switch t {
		case TStateChange:
			state(readStateChange(&m))
		case TIOData:
			output(readIOData(&m))
		}
	}
}

// Exchange performs one controller-side RPC: connect to the daemon on
// host, send the request, read the reply, and close the connection
// ("The stream connection between the controller and a meterdaemon
// exists for the duration of a single exchange of messages", section
// 3.5.1). It makes a single attempt with no deadline. The magic, the
// hello and the request go out in one send, and the daemon's hello and
// reply come back through one frameReader. A successful round trip
// lands its latency in the calling machine's daemon.rtt.<type>
// histogram.
func Exchange(p *kernel.Process, host string, req Message) (*Reply, error) {
	start := time.Now()
	rc, fr, err := dialFramed(p, host, Port, req, time.Time{})
	if err != nil {
		return nil, err
	}
	defer func() { _ = p.Close(rc.fd) }()
	defer fr.release()
	for {
		f, err := fr.next(rc.recv)
		if err != nil {
			return nil, err
		}
		if f.Kind != FrameRep {
			continue
		}
		rep, err := readReply(f.Payload, true)
		if err == nil {
			p.Machine().Obs().Histogram(rttHistName(msgType(req))).Since(start)
		}
		return rep, err
	}
}

// dialFramed connects to the daemon on host's port and sends the magic
// and hello, with req behind them as request 1 when it is not nil, in
// one send. It reads the daemon's magic and hello back and returns the
// connection's receiver and the reader that took them, holding whatever
// came after. A non-zero deadline bounds the wait. A peer that closes
// instead, or answers with anything but a hello, fails with
// errHandshake.
func dialFramed(p *kernel.Process, host string, port uint16, req Message, deadline time.Time) (*receiver, *frameReader, error) {
	fd, err := dial(p, host, port)
	if err != nil {
		return nil, nil, fmt.Errorf("daemon on %s: %w", host, err)
	}
	fail := func(err error) (*receiver, *frameReader, error) {
		_ = p.Close(fd)
		return nil, nil, err
	}
	out := appendHello(nil)
	if req != nil {
		out = appendMsgFrame(out, FrameReq, 1, req)
	}
	if _, err := p.Send(fd, out); err != nil {
		return fail(err)
	}
	rc := &receiver{p: p, fd: fd, deadline: deadline}
	fr := &frameReader{mem: frameFree.Stats(p.Machine().Obs())}
	if err := fr.open(rc.recv); err != nil {
		return fail(fmt.Errorf("%w: %w", errHandshake, err))
	}
	f, err := fr.next(rc.recv)
	if err != nil {
		return fail(fmt.Errorf("%w: %w", errHandshake, err))
	}
	if f.Kind != FrameHello || !helloOK(f.Payload) {
		return fail(errHandshake)
	}
	return rc, fr, nil
}

// receiver is a connection's read(2) for its frameReader: RecvInto on
// fd, bounded by deadline when that is set, under one timer for the
// connection that each receive leaves stopped and drained for the next.
type receiver struct {
	p        *kernel.Process
	fd       int
	deadline time.Time
	timer    *time.Timer
}

func (rc *receiver) recv(buf []byte) (int, error) {
	if rc.deadline.IsZero() {
		return rc.p.RecvInto(rc.fd, buf, nil)
	}
	remaining := time.Until(rc.deadline)
	if remaining <= 0 {
		return 0, kernel.ErrTimedOut
	}
	rc.timer = resetTimer(rc.timer, remaining)
	n, err := rc.p.RecvInto(rc.fd, buf, rc.timer.C)
	if !errors.Is(err, kernel.ErrTimedOut) { // a timeout took the timer's value
		stopTimer(rc.timer)
	}
	return n, err
}

// resetTimer starts t, stopped and drained, to fire after d; a nil t is
// made. stopTimer stops t, whose value nobody has taken, and empties its
// channel: timer channels are buffered under go 1.22, and a Reset timer
// must not deliver an expiry from before.
func resetTimer(t *time.Timer, d time.Duration) *time.Timer {
	if t == nil {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// sendReply sends rep as the frame of reply id on fd, from a buffer it
// gives back once the Send has copied the frame into the peer's stream.
func (d *daemonState) sendReply(fd int, id uint64, rep *Reply) error {
	b := takeFrameBuf(frameHeader+48+len(rep.Status)+len(rep.Data)+len(rep.Aux)+rep.dataSize, d.frames)
	b = endFrame(rep.appendWire(beginFrame(b, FrameRep, id)), 0)
	_, err := d.p.Send(fd, b)
	freeFrameBuf(b, d.frames)
	return err
}
