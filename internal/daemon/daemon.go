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
	pid         int
	uid         int
	controlHost string
	controlPort uint16
	stdioPort   uint16 // the child's end of the I/O gateway
}

// exitNotePrefix marks kernel-injected child exit notes on the gateway
// socket (the simulation's SIGCHLD).
const exitNotePrefix = "X "

// Main is the meterdaemon program. It accepts controller connections
// and serves each on an auxiliary goroutine: legacy one-shot exchanges
// (one request per temporary connection, section 3.5.1) and persistent
// multiplexed sessions (frame.go) are distinguished by sniffing the
// first four bytes. It also forwards child standard output to the
// controllers and reports child terminations by connecting to the
// responsible controller's notification socket.
func Main(p *kernel.Process) int {
	d := &daemonState{
		p:            p,
		children:     make(map[int]*childInfo),
		byStdio:      make(map[uint16]*childInfo),
		creates:      make(map[string]*Reply),
		fileSums:     make(map[string]prefixSum),
		notifyFDs:    make(map[string]int),
		notifyFailed: p.Machine().Obs().Counter("daemon.notify_failed"),
	}
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
	gfd, err := p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return 1
	}
	if err := p.BindPort(gfd, 0); err != nil {
		return 1
	}
	gname, err := p.SocketName(gfd)
	if err != nil {
		return 1
	}
	_, d.gatewayPort = gname.Inet()
	d.gatewayName = gname
	d.gfd = gfd

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

	// Idempotency ledger: token -> the reply of the create that already
	// ran under it. A create retried after a lost reply finds its
	// original outcome here instead of creating a second process.
	// createMu serializes whole creates, so a retry arriving on a new
	// session connection while the original is still executing cannot
	// slip past the ledger check and create a second process.
	createMu   sync.Mutex
	creates    map[string]*Reply
	tokenOrder []string // FIFO for bounding the ledger

	// getfile prefix-CRC checkpoints by path (prefixCRC), guarded by mu.
	fileSums map[string]prefixSum

	// Persistent notification connections, one per controller
	// (host, port). The paper's daemon opened a temporary connection
	// per state change; keeping it open makes the common notification
	// one send, and a failure is retried once on a fresh connection
	// before being counted under daemon.notify_failed.
	notifyFDs    map[string]int
	notifyFailed *obs.Counter
}

// maxCreateTokens bounds the idempotency ledger; the oldest entries
// are evicted first, long after any plausible retry of them.
const maxCreateTokens = 1024

// rememberCreate records a successful create under its token.
func (d *daemonState) rememberCreate(token string, rep *Reply) {
	if token == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tokenOrder) >= maxCreateTokens {
		delete(d.creates, d.tokenOrder[0])
		d.tokenOrder = d.tokenOrder[1:]
	}
	d.creates[token] = rep
	d.tokenOrder = append(d.tokenOrder, token)
}

// lookupCreate consults the idempotency ledger.
func (d *daemonState) lookupCreate(token string) (*Reply, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rep, ok := d.creates[token]
	return rep, ok
}

// serveConn serves one accepted connection. The first four bytes pick
// the protocol: the session magic starts a persistent multiplexed
// session; anything else is a legacy one-shot exchange — read one
// request, execute it, reply, close (section 3.5.1). Old controllers
// therefore keep working against new daemons unchanged.
func (d *daemonState) serveConn(conn int) {
	defer func() { _ = d.p.Close(conn) }()
	var buf []byte
	for len(buf) < 4 {
		data, err := d.p.Recv(conn, 8192)
		if err != nil {
			return
		}
		buf = append(buf, data...)
	}
	if isFrameMagic(buf) {
		d.serveSession(conn, buf[4:])
		return
	}
	req, err := readWireBuf(d.p, conn, buf)
	if err != nil {
		return
	}
	rep := d.handle(req)
	_, _ = d.p.Send(conn, rep.Wire().Encode())
}

func (d *daemonState) handle(w *WireMsg) *Reply {
	d.p.Machine().Obs().Counter(reqCounterName(w.Type)).Inc()
	switch w.Type {
	case TCreateReq:
		req, err := ParseCreateReq(w)
		if err != nil {
			return &Reply{Type: TCreateRep, Status: err.Error()}
		}
		return d.handleCreate(req)
	case TSetFlagsReq:
		return d.handleSetFlags(ParseProcReq(w))
	case TStartReq:
		return d.handleSignal(ParseProcReq(w), kernel.SIGCONT, TStartRep)
	case TStopReq:
		return d.handleSignal(ParseProcReq(w), kernel.SIGSTOP, TStopRep)
	case TKillReq:
		return d.handleSignal(ParseProcReq(w), kernel.SIGKILL, TKillRep)
	case TAcquireReq:
		return d.handleAcquire(ParseProcReq(w))
	case TGetFileReq:
		return d.handleGetFile(ParseProcReq(w))
	case TReleaseReq:
		return d.handleRelease(ParseProcReq(w))
	case TListReq:
		return d.handleList()
	case TStdinReq:
		return d.handleStdin(ParseProcReq(w))
	case TQueryReq:
		req, err := ParseQueryReq(w)
		if err != nil {
			return &Reply{Type: TQueryRep, Status: err.Error()}
		}
		return d.handleQuery(req)
	case TAggReq:
		req, err := ParseAggReq(w)
		if err != nil {
			return &Reply{Type: TAggRep, Status: err.Error()}
		}
		return d.handleAgg(req)
	case TStatsReq:
		if _, err := ParseStatsReq(w); err != nil {
			return &Reply{Type: TStatsRep, Status: err.Error()}
		}
		return d.handleStats()
	default:
		return &Reply{Type: TCreateRep, Status: fmt.Sprintf("unknown request %v", w.Type)}
	}
}

// connectMeterSocket creates a stream socket connected to a filter,
// retrying briefly while the (asynchronously created) filter comes up.
func (d *daemonState) connectMeterSocket(host string, port uint16) (int, error) {
	hostID, _, err := d.p.Machine().Cluster().ResolveFrom(d.p.Machine(), host)
	if err != nil {
		return -1, err
	}
	name := meter.InetName(hostID, port)
	deadline := time.Now().Add(2 * time.Second)
	for {
		fd, err := d.p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return -1, err
		}
		err = d.p.Connect(fd, name)
		if err == nil {
			return fd, nil
		}
		_ = d.p.Close(fd)
		if !errors.Is(err, kernel.ErrConnRefused) || time.Now().After(deadline) {
			return -1, err
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemonState) handleCreate(req *CreateReq) *Reply {
	// One create at a time: the token check and the spawn must be
	// atomic against a transparently re-issued duplicate of the same
	// request arriving on another connection.
	d.createMu.Lock()
	defer d.createMu.Unlock()
	if rep, ok := d.lookupCreate(req.Token); ok && req.Token != "" {
		return rep
	}
	m := d.p.Machine()
	if !m.HasAccount(req.UID) {
		return &Reply{Type: TCreateRep, Status: fmt.Sprintf("uid %d has no account on %s", req.UID, m.Name())}
	}
	if _, err := m.FS().Executable(req.Filename, req.UID); err != nil {
		return &Reply{Type: TCreateRep, Status: err.Error()}
	}

	// The per-process I/O gateway socket (section 3.5.2): a datagram
	// socket connected back to the daemon's gateway, installed as the
	// child's standard descriptors. Datagram links are reliable
	// within a single machine. Spawn takes the child's own references;
	// the daemon's is closed on every way out, so the socket and its
	// port live exactly as long as the child.
	sfd, err := d.p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return &Reply{Type: TCreateRep, Status: err.Error()}
	}
	defer func() { _ = d.p.Close(sfd) }()
	if err := d.p.BindPort(sfd, 0); err != nil {
		return &Reply{Type: TCreateRep, Status: err.Error()}
	}
	if err := d.p.Connect(sfd, d.gatewayName); err != nil {
		return &Reply{Type: TCreateRep, Status: err.Error()}
	}
	stdioName, _ := d.p.SocketName(sfd)
	_, stdioPort := stdioName.Inet()
	stdio, err := d.p.SocketOf(sfd)
	if err != nil {
		return &Reply{Type: TCreateRep, Status: err.Error()}
	}

	// Standard input redirected from a file, if requested: the file
	// was copied to this machine by the controller and is opened by
	// the meterdaemon (section 3.5.2).
	var stdin io.Reader
	if req.StdinFile != "" {
		data, err := m.FS().Read(req.StdinFile, req.UID)
		if err != nil {
			return &Reply{Type: TCreateRep, Status: err.Error()}
		}
		stdin = bytes.NewReader(data)
	}

	child, err := m.Spawn(kernel.SpawnSpec{
		UID:       req.UID,
		Name:      req.Filename,
		Args:      req.Params,
		Path:      req.Filename,
		Suspended: true,
		Stdio:     stdio,
		Stdin:     stdin,
		PPID:      d.p.PID(),
	})
	if err != nil {
		return &Reply{Type: TCreateRep, Status: err.Error()}
	}

	// Wire up the meter connection before the process can run its
	// first instruction: the process is connected to its job's filter
	// at creation time even if no flags are set yet — setflags can
	// turn events on at any point during execution (section 4.3).
	if req.FilterHost != "" {
		msfd, err := d.connectMeterSocket(req.FilterHost, req.FilterPort)
		if err != nil {
			_ = m.Signal(child.PID(), kernel.SIGKILL)
			return &Reply{Type: TCreateRep, Status: fmt.Sprintf("meter connection: %v", err)}
		}
		if err := d.p.Setmeter(child.PID(), int(req.MeterFlags), msfd); err != nil {
			_ = m.Signal(child.PID(), kernel.SIGKILL)
			return &Reply{Type: TCreateRep, Status: err.Error()}
		}
		if err := d.p.Close(msfd); err != nil {
			return &Reply{Type: TCreateRep, Status: err.Error()}
		}
	}

	info := &childInfo{
		pid:         child.PID(),
		uid:         req.UID,
		controlHost: req.ControlHost,
		controlPort: req.ControlPort,
		stdioPort:   stdioPort,
	}
	d.mu.Lock()
	d.children[info.pid] = info
	d.byStdio[info.stdioPort] = info
	d.mu.Unlock()

	// The simulation's SIGCHLD: the kernel pokes the daemon's gateway
	// when the child terminates; the daemon then connects to the
	// controller and reports the state change (section 3.5.1).
	gatewayPort := d.gatewayPort
	child.OnExit(func(cp *kernel.Process, status int, reason string) {
		note := fmt.Sprintf("%s%d %d %s", exitNotePrefix, cp.PID(), status, reason)
		m.InjectDgram(gatewayPort, []byte(note), meter.Name{})
	})

	rep := &Reply{Type: TCreateRep, PID: child.PID(), Status: "ok"}
	d.rememberCreate(req.Token, rep)
	return rep
}

// checkTarget verifies the request's uid may control the target pid.
func (d *daemonState) checkTarget(req *ProcReq, repType MsgType) (*kernel.Process, *Reply) {
	target, err := d.p.Machine().Proc(req.PID)
	if err != nil {
		return nil, &Reply{Type: repType, PID: req.PID, Status: err.Error()}
	}
	if req.UID != 0 && target.UID() != req.UID {
		return nil, &Reply{Type: repType, PID: req.PID, Status: "permission denied"}
	}
	return target, nil
}

func (d *daemonState) handleSetFlags(req *ProcReq) *Reply {
	if _, rep := d.checkTarget(req, TSetFlagsRep); rep != nil {
		return rep
	}
	if err := d.p.Setmeter(req.PID, int(req.Flags), kernel.NoChange); err != nil {
		return &Reply{Type: TSetFlagsRep, PID: req.PID, Status: err.Error()}
	}
	return &Reply{Type: TSetFlagsRep, PID: req.PID, Status: "ok"}
}

func (d *daemonState) handleSignal(req *ProcReq, sig kernel.Signal, repType MsgType) *Reply {
	if _, rep := d.checkTarget(req, repType); rep != nil {
		return rep
	}
	if err := d.p.Machine().Signal(req.PID, sig); err != nil {
		return &Reply{Type: repType, PID: req.PID, Status: err.Error()}
	}
	return &Reply{Type: repType, PID: req.PID, Status: "ok"}
}

// handleAcquire meters an already-executing process: its meter
// connection is established and flags set, but its execution state is
// never touched (section 3.5.2: "no changes are made to the handling
// of the processes' I/O ... the user is not allowed to modify the
// processes' execution state").
func (d *daemonState) handleAcquire(req *ProcReq) *Reply {
	if _, rep := d.checkTarget(req, TAcquireRep); rep != nil {
		return rep
	}
	if req.FilterHost == "" {
		return &Reply{Type: TAcquireRep, PID: req.PID, Status: "no filter specified"}
	}
	msfd, err := d.connectMeterSocket(req.FilterHost, req.FilterPort)
	if err != nil {
		return &Reply{Type: TAcquireRep, PID: req.PID, Status: err.Error()}
	}
	if err := d.p.Setmeter(req.PID, int(req.Flags), msfd); err != nil {
		_ = d.p.Close(msfd)
		return &Reply{Type: TAcquireRep, PID: req.PID, Status: err.Error()}
	}
	if err := d.p.Close(msfd); err != nil {
		return &Reply{Type: TAcquireRep, PID: req.PID, Status: err.Error()}
	}
	return &Reply{Type: TAcquireRep, PID: req.PID, Status: "ok"}
}

// handleRelease stops metering a process: all flags off and the meter
// connection closed. The process itself continues to execute.
func (d *daemonState) handleRelease(req *ProcReq) *Reply {
	if _, rep := d.checkTarget(req, TReleaseRep); rep != nil {
		return rep
	}
	if err := d.p.Setmeter(req.PID, kernel.FlagsNone, kernel.SockNone); err != nil {
		return &Reply{Type: TReleaseRep, PID: req.PID, Status: err.Error()}
	}
	return &Reply{Type: TReleaseRep, PID: req.PID, Status: "ok"}
}

// handleStdin forwards user input to a child's standard descriptors:
// the daemon sends it as a datagram to the child's end of the I/O
// gateway, where the process's next read of descriptor 0 picks it up.
// Only processes this daemon created (and whose stdio is the gateway)
// can receive input this way. The text travels in the request's Path
// field.
func (d *daemonState) handleStdin(req *ProcReq) *Reply {
	if _, rep := d.checkTarget(req, TStdinRep); rep != nil {
		return rep
	}
	d.mu.Lock()
	info := d.children[req.PID]
	d.mu.Unlock()
	if info == nil {
		return &Reply{Type: TStdinRep, PID: req.PID, Status: "process was not created by this meterdaemon"}
	}
	dest := meter.InetName(d.p.Machine().PrimaryHostID(), info.stdioPort)
	if _, err := d.p.SendTo(d.gfd, []byte(req.Path), dest); err != nil {
		return &Reply{Type: TStdinRep, PID: req.PID, Status: err.Error()}
	}
	return &Reply{Type: TStdinRep, PID: req.PID, Status: "ok"}
}

// handleList reports the machine's live processes, one per line:
// "pid uid name", sorted by pid.
func (d *daemonState) handleList() *Reply {
	procs := d.p.Machine().Procs()
	sort.Slice(procs, func(i, j int) bool { return procs[i].PID() < procs[j].PID() })
	var b strings.Builder
	for _, proc := range procs {
		fmt.Fprintf(&b, "%d %d %s\n", proc.PID(), proc.UID(), proc.Name())
	}
	return &Reply{Type: TListRep, Status: "ok", Data: b.String()}
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
func (d *daemonState) handleGetFile(req *ProcReq) *Reply {
	snap, err := d.p.Machine().FS().Open(req.Path, req.UID)
	if err != nil {
		return &Reply{Type: TGetFileRep, Status: err.Error()}
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
	return &Reply{
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

// maxFileSums bounds the checkpoint table. Checkpoints only save work,
// so a full table is simply emptied.
const maxFileSums = 64

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
	d.mu.Lock()
	ck := d.fileSums[path]
	d.mu.Unlock()
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
	d.mu.Lock()
	if _, ok := d.fileSums[path]; !ok && len(d.fileSums) >= maxFileSums {
		clear(d.fileSums)
	}
	d.fileSums[path] = ck
	d.mu.Unlock()
	return prefix
}

// handleQuery runs a selection-rule query against an event store on
// this machine — the query layer's whole point is that this executes
// where the data lives, so only matching records travel back. The
// reply Data is one statistics line followed by the matching records.
func (d *daemonState) handleQuery(req *QueryReq) *Reply {
	q, err := query.Compile(req.Rules)
	if err != nil {
		return &Reply{Type: TQueryRep, Status: err.Error()}
	}
	q.NoPrune = req.NoPrune
	q.Obs = d.p.Machine().Obs()
	rd, err := store.OpenReader(store.NewFsysBackend(d.p.Machine().FS(), req.UID, req.Dir))
	if err != nil {
		return &Reply{Type: TQueryRep, Status: err.Error()}
	}
	res, err := query.Run(rd, q)
	if err != nil {
		return &Reply{Type: TQueryRep, Status: err.Error()}
	}
	b := append([]byte(res.Stats.String()), '\n')
	for i := range res.Events {
		b = append(res.Events[i].AppendFormat(b), '\n')
	}
	return &Reply{Type: TQueryRep, Status: "ok", Data: string(b)}
}

// handleAgg runs an aggregate query against an event store on this
// machine and ships back the bounded partial aggregate instead of the
// matching records — the push-down that turns a cluster-wide group-by
// into kilobytes per machine. Reply Data is the binary partial, Aux
// the scan-statistics line.
func (d *daemonState) handleAgg(req *AggReq) *Reply {
	aq, err := agg.Compile(req.Rules + "\n" + req.Spec)
	if err != nil {
		return &Reply{Type: TAggRep, Status: err.Error()}
	}
	aq.Sel.NoPrune = req.NoPrune
	rd, err := store.OpenReader(store.NewFsysBackend(d.p.Machine().FS(), req.UID, req.Dir))
	if err != nil {
		return &Reply{Type: TAggRep, Status: err.Error()}
	}
	reg := d.p.Machine().Obs()
	p, stats, err := agg.Eval(rd, aq, agg.Options{Obs: reg})
	if err != nil {
		return &Reply{Type: TAggRep, Status: err.Error()}
	}
	data := p.MarshalBinary()
	reg.Counter("agg.partial_bytes").Add(int64(len(data)))
	return &Reply{Type: TAggRep, Status: "ok", Data: string(data), Aux: stats.String()}
}

// handleStats snapshots this machine's metrics registry and ships it
// in the versioned binary snapshot format. Everything running on the
// machine — kernel meter buffers, filters, stores, queries, and this
// daemon's own request counters — shares the registry, so one reply
// describes the whole node. The daemon never interprets the metrics;
// merging and rendering are the controller's business.
// What the snapshot costs — capture plus encoding, and the bytes
// shipped — goes into the same registry, its handles resolved before the
// capture so that the report lists them, as of the report before.
func (d *daemonState) handleStats() *Reply {
	reg := d.p.Machine().Obs()
	span := obs.StartSpan(reg.Histogram("daemon.stats_snapshot_ns"))
	replyBytes := reg.Counter("daemon.stats_reply_bytes")
	s := reg.Snapshot()
	s.Machine = d.p.Machine().Name()
	data := s.MarshalBinary()
	span.End()
	replyBytes.Add(int64(len(data)))
	return &Reply{Type: TStatsRep, Status: "ok", Data: string(data)}
}

// handleGateway dispatches datagrams arriving on the gateway socket:
// kernel-injected child exit notes, or child standard output to be
// forwarded to the controller.
func (d *daemonState) handleGateway(data []byte, src meter.Name) {
	if src.IsZero() && strings.HasPrefix(string(data), exitNotePrefix) {
		parts := strings.Fields(string(data[len(exitNotePrefix):]))
		if len(parts) != 3 {
			return
		}
		pid, _ := strconv.Atoi(parts[0])
		status, _ := strconv.Atoi(parts[1])
		d.mu.Lock()
		info := d.children[pid]
		if info != nil {
			delete(d.children, pid)
			delete(d.byStdio, info.stdioPort)
		}
		d.mu.Unlock()
		if info == nil || info.controlHost == "" {
			return
		}
		sc := &StateChange{Machine: d.p.Machine().Name(), PID: pid, Reason: parts[2], Status: status}
		_ = d.notifyController(info, sc.Wire())
		return
	}
	if src.Family() == meter.AFInet {
		_, port := src.Inet()
		d.mu.Lock()
		info := d.byStdio[port]
		d.mu.Unlock()
		if info == nil || info.controlHost == "" {
			return
		}
		iod := &IOData{Machine: d.p.Machine().Name(), PID: info.pid, Data: string(data)}
		_ = d.notifyController(info, iod.Wire())
	}
}

// notifyController delivers one daemon-initiated message (state change
// or forwarded output) to a controller's notification socket. The
// connection persists across notifications; a send that fails — the
// controller restarted, or the old connection was severed by a
// partition — is retried once on a fresh connection, and only then is
// the notification counted lost under daemon.notify_failed. (The
// paper's daemon opened a temporary connection each time and an error
// dropped the notification silently.)
func (d *daemonState) notifyController(info *childInfo, msg *WireMsg) error {
	key := fmt.Sprintf("%s:%d", info.controlHost, info.controlPort)
	payload := msg.Encode()

	d.mu.Lock()
	fd, cached := d.notifyFDs[key]
	d.mu.Unlock()
	if cached {
		if _, err := d.p.Send(fd, payload); err == nil {
			return nil
		}
		// Stale connection: drop it and fall through to a fresh dial.
		d.dropNotifyFD(key, fd)
	}

	fd, err := d.dialNotify(info)
	if err != nil {
		d.notifyFailed.Inc()
		return err
	}
	d.mu.Lock()
	d.notifyFDs[key] = fd
	d.mu.Unlock()
	if _, err := d.p.Send(fd, payload); err != nil {
		d.dropNotifyFD(key, fd)
		d.notifyFailed.Inc()
		return err
	}
	return nil
}

// dialNotify opens a stream connection to a controller's notification
// socket.
func (d *daemonState) dialNotify(info *childInfo) (int, error) {
	hostID, _, err := d.p.Machine().Cluster().ResolveFrom(d.p.Machine(), info.controlHost)
	if err != nil {
		return -1, err
	}
	fd, err := d.p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return -1, err
	}
	if err := d.p.Connect(fd, meter.InetName(hostID, info.controlPort)); err != nil {
		_ = d.p.Close(fd)
		return -1, err
	}
	return fd, nil
}

// dropNotifyFD closes a dead notification connection and forgets it if
// it is still the cached one.
func (d *daemonState) dropNotifyFD(key string, fd int) {
	d.mu.Lock()
	if d.notifyFDs[key] == fd {
		delete(d.notifyFDs, key)
	}
	d.mu.Unlock()
	_ = d.p.Close(fd)
}

// readWire accumulates stream bytes on a connection until one complete
// wire message is decoded.
func readWire(p *kernel.Process, fd int) (*WireMsg, error) {
	return readWireBuf(p, fd, nil)
}

// readWireBuf is readWire starting from already-buffered bytes.
func readWireBuf(p *kernel.Process, fd int, buf []byte) (*WireMsg, error) {
	for {
		msg, _, err := DecodeWire(buf)
		if err == nil {
			return msg, nil
		}
		if !errors.Is(err, ErrWireShort) {
			return nil, err
		}
		data, rerr := p.Recv(fd, 8192)
		if rerr != nil {
			return nil, rerr
		}
		buf = append(buf, data...)
	}
}

// Exchange performs one controller-side RPC: connect to the daemon on
// host, send the request, read the reply, and close the connection
// ("The stream connection between the controller and a meterdaemon
// exists for the duration of a single exchange of messages", section
// 3.5.1). It makes a single attempt with no deadline; ExchangeRetry
// adds both.
func Exchange(p *kernel.Process, host string, req *WireMsg) (*Reply, error) {
	return exchangeOnce(p, host, req, 0)
}

// exchangeOnce is one connect/send/read/close round trip. A positive
// timeout bounds the wait for the reply; zero waits forever. A
// successful round trip lands its latency in the calling machine's
// daemon.rtt.<type> histogram.
func exchangeOnce(p *kernel.Process, host string, req *WireMsg, timeout time.Duration) (*Reply, error) {
	start := time.Now()
	hostID, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), host)
	if err != nil {
		return nil, err
	}
	fd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return nil, err
	}
	defer func() { _ = p.Close(fd) }()
	if err := p.Connect(fd, meter.InetName(hostID, Port)); err != nil {
		return nil, fmt.Errorf("daemon on %s: %w", host, err)
	}
	if _, err := p.Send(fd, req.Encode()); err != nil {
		return nil, err
	}
	var w *WireMsg
	if timeout > 0 {
		w, err = readWireTimeout(p, fd, timeout)
	} else {
		w, err = readWire(p, fd)
	}
	if err != nil {
		return nil, err
	}
	p.Machine().Obs().Histogram(rttHistName(req.Type)).Since(start)
	return ParseReply(w), nil
}

// readWireTimeout is readWire under an overall deadline.
func readWireTimeout(p *kernel.Process, fd int, timeout time.Duration) (*WireMsg, error) {
	deadline := time.Now().Add(timeout)
	var buf []byte
	for {
		msg, _, err := DecodeWire(buf)
		if err == nil {
			return msg, nil
		}
		if !errors.Is(err, ErrWireShort) {
			return nil, err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, kernel.ErrTimedOut
		}
		data, _, rerr := p.RecvTimeout(fd, 8192, remaining)
		if rerr != nil {
			return nil, rerr
		}
		buf = append(buf, data...)
	}
}
