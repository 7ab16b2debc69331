// Package live computes the paper's §5 analyses incrementally, on the
// meter stream, as it flows through the filter pipeline — the
// streaming counterpart of internal/analysis, which runs the same
// analyses offline over completed trace files. A Collector attaches to
// a filter through the record-tap seam (filter.TapSource) and
// maintains three operators:
//
//   - a live communication matrix: per-process send/receive counts and
//     per-(src,dst)-machine message/byte counts with power-of-two
//     size-bucket histograms, matching analysis.Comm's bucketing;
//   - a live parallelism curve: per-process [first,last] cpuTime
//     intervals and final procTime readings, from which the
//     time-in-k-processes histogram and speedup derive exactly as in
//     analysis.MeasureParallelism, plus a concurrent-process gauge;
//   - online send/receive matching: connect/accept pairing, per-stream
//     byte-offset matching and per-machine-pair datagram FIFOs, all
//     under a bounded reordering window (match.go) — entries that
//     outlive the window age out into an unmatched counter instead of
//     accumulating, which is what lets the operator run forever where
//     offline MatchMessages assumes a complete sorted trace.
//
// Operator state is small, per-node, and exported as versioned
// sections of obs snapshots (sections.go), so the existing stats
// plumbing — daemon TStatsReq, controller merge, dpmon -watch, dpstat
// — renders cluster-wide live analysis with no new wire types.
//
// The tap path is allocation-conscious and stays off the ingest
// threads: each pipeline worker's Tap copies kept records into a
// fixed-size entry buffer (no allocation, no lock), and at each chunk
// flush the full buffer is swapped against an empty one from a small
// preallocated pool and queued for the collector's drainer goroutine,
// which folds it into the operators in publish order. The ingest
// thread pays only the swap — two slice headers under a short lock —
// so the operators' map lookups and matcher work never slow the
// filter. When the pool is exhausted (the drainer has fallen behind)
// the flush applies inline instead, trading latency for bounded
// memory; nothing is ever dropped. Snapshot captures drain the queue
// first, so an exported section always reflects every flushed record.
// Host addresses map to machine ids by identity, the same default as
// analysis.MatchOptions.
package live

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/obs"
)

// Config tunes a Collector. The zero value selects the defaults.
type Config struct {
	// Obs, when non-nil, is where the collector registers its metrics
	// and snapshot sections — the filter machine's registry in a real
	// deployment.
	Obs *obs.Registry
	// WindowMillis is the reordering window of the online matcher, in
	// record cpuTime: an unmatched send, receive, or handshake older
	// than this ages out. Default 2000.
	WindowMillis int64
	// MaxPending bounds each matcher queue (pending handshakes, stream
	// spans per direction, datagram flow FIFOs, orphans): when full,
	// the oldest entry is evicted as aged. Default 1024.
	MaxPending int
	// MaxProcs bounds the per-process tables; processes beyond it fold
	// into an overflow bucket so a runaway workload cannot grow the
	// analysis state without bound. Default 16384.
	MaxProcs int
	// MaxPairs bounds the communication matrix; pairs beyond it fold
	// into the (unknown,unknown) cell. Default 4096.
	MaxPairs int
	// BufEntries is each worker tap's entry buffer. Default 512.
	BufEntries int
}

func (c Config) withDefaults() Config {
	if c.WindowMillis <= 0 {
		c.WindowMillis = 2000
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 16384
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4096
	}
	if c.BufEntries <= 0 {
		c.BufEntries = 512
	}
	return c
}

// sizeBucket mirrors analysis.sizeBucket: bucket 0 holds sizes <= 1,
// bucket k holds 2^(k-1) < size <= 2^k. bits.Len64(n-1) computes the
// same doubling count without the loop.
func sizeBucket(n int64) int {
	if n <= 1 {
		return 0
	}
	b := bits.Len64(uint64(n - 1))
	if b >= numSizeBuckets {
		return numSizeBuckets - 1
	}
	return b
}

// numSizeBuckets covers 64-bit message lengths, same shape as
// obs.NumBuckets.
const numSizeBuckets = 64

// procKey packs (machine, pid) into one map key.
func procKey(machine uint16, pid uint32) uint64 {
	return uint64(machine)<<32 | uint64(pid)
}

// procCell is one process's accumulated state: the ProcComm counts of
// the communication operator and the lifetime interval of the
// parallelism operator.
type procCell struct {
	machine    uint16
	terminated bool
	pid        uint32
	sends      int64
	recvs      int64
	recvCalls  int64
	sockets    int64
	forks      int64
	bytesSent  int64
	bytesRecvd int64
	first      int64 // earliest cpuTime observed
	last       int64 // latest cpuTime observed
	maxCPU     int64 // final procTime reading
}

// unknownMachine is the matrix row/column for traffic whose peer could
// not be resolved (no name, no established connection).
const unknownMachine = ^uint16(0)

// pairKey packs (src, dst) machine ids.
func pairKey(src, dst uint16) uint32 { return uint32(src)<<16 | uint32(dst) }

// pairCell is one (src,dst) cell of the communication matrix. Sends
// observed at the source and receives observed at the destination
// count separately — under loss or partition the two legs genuinely
// differ, and folding them would hide it.
type pairCell struct {
	src, dst  uint16
	sendMsgs  int64
	sendBytes int64
	recvMsgs  int64
	recvBytes int64
	sizes     [numSizeBuckets]int64 // sent-size histogram
}

// tapEntry is the compact op-log record a worker tap buffers: just the
// fields the operators read, copied out of the pooled extraction
// record.
type tapEntry struct {
	kind    uint8 // meter.Type, 0 for types beyond the standard range
	machine uint16
	pid     uint32
	sock    uint32
	aux     uint32 // msgLength, newSock, newPid, or status — per kind
	cpu     int64
	proc    int64
	name1   meter.Name // destName / sourceName / sockName
	name2   meter.Name // peerName
}

// Collector is the per-filter live-analysis state: operators, their
// obs handles, and the sections they export. One Collector serves all
// of a pipeline's workers; create taps with NewTap.
type Collector struct {
	cfg Config

	mu    sync.Mutex
	clock int64 // watermark: max cpuTime applied
	// Per-process table, shared by the comm and parallelism operators.
	// cells lists the same cells for the section encoders, which write
	// them in (machine, pid) order: cells[:ordered] is in that order and
	// the cells created since follow as they came (orderCells).
	procs    map[uint64]*procCell
	cells    []*procCell
	ordered  int
	overflow procCell // folds processes beyond MaxProcs; listed in cells once used
	// Direct-mapped caches over the hot tables. Cells are never
	// deleted, so a cached pointer can only go stale by eviction, never
	// dangle. A handful of processes and one machine pair dominate any
	// chunk, which is what makes these small caches pay.
	procCache [16]*procCell
	lastPairK uint32
	lastPair  *pairCell
	// Global communication totals and matrix.
	events    int64
	sends     int64
	recvs     int64
	bytesSent int64
	bytesRecv int64
	sizes     [numSizeBuckets]int64
	pairs     map[uint32]*pairCell
	// liveProcs tracks started-minus-terminated processes.
	liveProcs int64
	match     matcher

	// Async drain: flushed tap buffers queue on pendingQ and the
	// drainer goroutine applies them, returning them to freeQ. Both
	// slices are preallocated (poolChunks entry buffers plus slack in
	// the headers) so the swap path never allocates. drainMu serializes
	// drain passes between the drainer and snapshot captures so batches
	// apply in publish order.
	qmu       sync.Mutex
	pendingQ  [][]tapEntry
	freeQ     [][]tapEntry
	signal    chan struct{}
	stop      chan struct{}
	closeOnce sync.Once
	drainMu   sync.Mutex
	// Stat accumulators, folded under mu and published by publishStats.
	statRecords int64
	statFlushes int64

	// Obs handles, resolved once; nil-safe via a discard registry.
	tapRecords  *obs.Counter
	tapFlushes  *obs.Counter
	procsLive   *obs.Gauge
	procsSeen   *obs.Gauge
	streamMatch *obs.Counter
	dgramMatch  *obs.Counter
	agedOut     *obs.Counter
	pendingG    *obs.Gauge
}

// NewCollector builds a collector and, when cfg.Obs is set, registers
// its metrics and snapshot sections there. Re-registering on the same
// registry (a restarted filter) replaces the sections of the dead
// collector.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:   cfg,
		procs: make(map[uint64]*procCell),
		pairs: make(map[uint32]*pairCell),
	}
	c.overflow = procCell{machine: unknownMachine, pid: ^uint32(0), first: -1}
	c.match.init(cfg)
	c.pendingQ = make([][]tapEntry, 0, poolChunks+poolSlack)
	c.freeQ = make([][]tapEntry, 0, poolChunks+poolSlack)
	for i := 0; i < poolChunks; i++ {
		c.freeQ = append(c.freeQ, make([]tapEntry, 0, cfg.BufEntries))
	}
	c.signal = make(chan struct{}, 1)
	c.stop = make(chan struct{})
	go c.drainer()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.tapRecords = reg.Counter("live.tap.records")
	c.tapFlushes = reg.Counter("live.tap.flushes")
	c.procsLive = reg.Gauge("live.procs_live")
	c.procsSeen = reg.Gauge("live.procs_seen")
	c.streamMatch = reg.Counter("live.match.stream_matched")
	c.dgramMatch = reg.Counter("live.match.dgram_matched")
	c.agedOut = reg.Counter("live.match.aged_out")
	c.pendingG = reg.Gauge("live.match.pending")
	if cfg.Obs != nil {
		cfg.Obs.RegisterSection(SectionComm, SectionVersion, c.captureComm)
		cfg.Obs.RegisterSection(SectionPar, SectionVersion, c.capturePar)
		cfg.Obs.RegisterSection(SectionMatch, SectionVersion, c.captureMatch)
	}
	return c
}

// NewTap hands out one worker's tap. Implements filter.TapSource.
func (c *Collector) NewTap() filter.RecordTap {
	return &Tap{c: c, buf: make([]tapEntry, 0, c.cfg.BufEntries)}
}

// Tap is one pipeline worker's record observer: a fixed-capacity entry
// buffer that drains into the collector when full and at every chunk
// flush. Single-goroutine, like the engine that owns it.
type Tap struct {
	c   *Collector
	buf []tapEntry
}

// TapRecord copies the fields the operators need out of the pooled
// record. No allocation, no lock; the switch touches only the indices
// the event type carries.
func (t *Tap) TapRecord(info *filter.TapInfo, rec *filter.Record) {
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
	t.buf = t.buf[:len(t.buf)+1]
	e := &t.buf[len(t.buf)-1]
	*e = tapEntry{machine: rec.Machine, cpu: int64(rec.CPUTime), proc: int64(rec.ProcTime)}
	if ty := info.Type; ty < 256 {
		e.kind = uint8(ty)
	}
	f := rec.Fields
	if i := info.PIDIdx; i >= 0 {
		e.pid = uint32(f[i].Value)
	}
	if i := info.SockIdx; i >= 0 {
		e.sock = uint32(f[i].Value)
	}
	if i := info.LenIdx; i >= 0 {
		e.aux = uint32(f[i].Value)
	} else if i := info.AuxIdx; i >= 0 {
		e.aux = uint32(f[i].Value)
	}
	if i := info.Name1Idx; i >= 0 {
		e.name1 = f[i].Addr
	}
	if i := info.Name2Idx; i >= 0 {
		e.name2 = f[i].Addr
	}
}

// TapFlush publishes the buffered entries to the collector — called by
// the pipeline at every chunk boundary.
func (t *Tap) TapFlush() {
	if len(t.buf) > 0 {
		t.flush()
	}
}

func (t *Tap) flush() {
	t.buf = t.c.publish(t.buf)
}

// poolChunks is the number of entry buffers preallocated for the
// publish/drain exchange; poolSlack pads the queue headers so appends
// never reallocate even with every worker's own buffer in flight.
const (
	poolChunks = 4
	poolSlack  = 32
)

// publish hands a full tap buffer to the drainer, returning an empty
// one in exchange — two slice headers moved under a short lock, the
// whole cost the ingest thread pays for live analysis. When the pool
// is empty the drainer has fallen behind; the flush then applies
// inline, so memory stays bounded and no record is ever dropped.
func (c *Collector) publish(buf []tapEntry) []tapEntry {
	c.qmu.Lock()
	if n := len(c.freeQ); n > 0 {
		next := c.freeQ[n-1]
		c.freeQ = c.freeQ[:n-1]
		c.pendingQ = append(c.pendingQ, buf)
		// Signal only on the empty→non-empty transition; while the
		// queue is non-empty the drainer is already awake or has a
		// wakeup token pending.
		first := len(c.pendingQ) == 1
		c.qmu.Unlock()
		if first {
			select {
			case c.signal <- struct{}{}:
			default:
			}
		}
		return next[:0]
	}
	c.qmu.Unlock()
	// Drain queued batches before folding our own, otherwise this
	// buffer would apply ahead of older ones still in the queue — or
	// still in the drainer's hands — and order-sensitive operators
	// (the stream matcher's byte cursors) would see time run
	// backwards. Holding drainMu across our own apply serializes with
	// an in-flight drainer pass.
	c.drainMu.Lock()
	c.drainQueued()
	c.apply(buf)
	c.drainMu.Unlock()
	return buf[:0]
}

// drainer is the collector's background goroutine: it folds published
// buffers into the operators until Close.
func (c *Collector) drainer() {
	for {
		select {
		case <-c.signal:
			c.drain()
		case <-c.stop:
			c.drain()
			return
		}
	}
}

// drain applies every queued buffer in publish order. Snapshot
// captures call it too, so exports reflect all flushed records even
// when the drainer hasn't been scheduled yet.
func (c *Collector) drain() {
	c.drainMu.Lock()
	applied := c.drainQueued()
	c.drainMu.Unlock()
	if applied {
		c.publishStats()
	}
}

// drainQueued applies every queued batch in publish order; the caller
// holds drainMu.
func (c *Collector) drainQueued() bool {
	applied := false
	for {
		c.qmu.Lock()
		if len(c.pendingQ) == 0 {
			c.qmu.Unlock()
			return applied
		}
		batch := c.pendingQ[0]
		c.pendingQ = c.pendingQ[:copy(c.pendingQ, c.pendingQ[1:])]
		c.qmu.Unlock()
		c.apply(batch)
		applied = true
		c.qmu.Lock()
		c.freeQ = append(c.freeQ, batch[:0])
		c.qmu.Unlock()
	}
}

// sync makes the operators and metrics current: every queued batch is
// applied and the stats published. Section captures call it, so an
// exported snapshot reflects all flushed records — including batches
// applied inline, whose stats publication is deferred to here.
func (c *Collector) sync() {
	c.drain()
	c.publishStats()
}

// Close stops the drainer after a final drain. The pipeline calls it
// (via filter.TapCloser) once the last worker has flushed; captures
// keep working on a closed collector — they drain synchronously.
func (c *Collector) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
}

// apply folds one tap buffer into the operators. One lock acquisition
// per buffer, not per record; the obs metrics are published separately
// (publishStats) so the batch path pays no atomics.
func (c *Collector) apply(entries []tapEntry) {
	c.mu.Lock()
	for i := range entries {
		c.applyOne(&entries[i])
	}
	c.match.sweep(c.clock)
	c.statRecords += int64(len(entries))
	c.statFlushes++
	c.mu.Unlock()
}

// publishStats copies the operators' aggregates into their obs
// handles. Called after a drain pass and at every section capture —
// metric readers all go through Registry.Snapshot, which captures
// sections first, so they always see published values.
func (c *Collector) publishStats() {
	c.mu.Lock()
	recs, flushes := c.statRecords, c.statFlushes
	c.statRecords, c.statFlushes = 0, 0
	nProcs := int64(len(c.procs))
	live := c.liveProcs
	pending := c.match.pending
	stream, dgram, aged := c.match.takeCounts()
	c.mu.Unlock()

	c.tapRecords.Add(recs)
	c.tapFlushes.Add(flushes)
	c.procsSeen.Set(nProcs)
	c.procsLive.Set(live)
	c.pendingG.Set(int64(pending))
	c.streamMatch.Add(stream)
	c.dgramMatch.Add(dgram)
	c.agedOut.Add(aged)
}

// cell returns the process's cell, folding overflow past MaxProcs.
func (c *Collector) cell(machine uint16, pid uint32) *procCell {
	idx := (pid + uint32(machine)*31) & uint32(len(c.procCache)-1)
	if pc := c.procCache[idx]; pc != nil && pc.pid == pid && pc.machine == machine {
		return pc
	}
	k := procKey(machine, pid)
	pc := c.procs[k]
	if pc == nil {
		if len(c.procs) >= c.cfg.MaxProcs {
			// The overflow key is the largest there is, so it encodes
			// last, and the table is full, so nothing is listed after.
			if len(c.cells) == len(c.procs) {
				c.cells = append(c.cells, &c.overflow)
			}
			return &c.overflow
		}
		pc = &procCell{machine: machine, pid: pid, first: -1}
		c.procs[k] = pc
		c.cells = append(c.cells, pc)
		c.liveProcs++
	}
	c.procCache[idx] = pc
	return pc
}

// cmpCell orders cells by (machine, pid), the order sections list them.
func cmpCell(a, b *procCell) int {
	return cmp.Compare(procKey(a.machine, a.pid), procKey(b.machine, b.pid))
}

// orderCells puts c.cells in (machine, pid) order and returns them.
// Cells are never deleted, so only those created since the last call
// are out of place: they are sorted and merged into the ordered prefix
// from the back — no work when no process is new. The caller holds c.mu.
func (c *Collector) orderCells() []*procCell {
	if c.ordered < len(c.cells) {
		tail := slices.Clone(c.cells[c.ordered:])
		slices.SortFunc(tail, cmpCell)
		i, j := c.ordered-1, len(tail)-1
		for k := len(c.cells) - 1; j >= 0; k-- {
			if i >= 0 && cmpCell(c.cells[i], tail[j]) > 0 {
				c.cells[k] = c.cells[i]
				i--
			} else {
				c.cells[k] = tail[j]
				j--
			}
		}
		c.ordered = len(c.cells)
	}
	return c.cells
}

func (c *Collector) applyOne(e *tapEntry) {
	c.events++
	if e.cpu > c.clock {
		c.clock = e.cpu
	}
	pc := c.cell(e.machine, e.pid)
	if pc.first < 0 || e.cpu < pc.first {
		pc.first = e.cpu
	}
	if e.cpu > pc.last {
		pc.last = e.cpu
	}
	if e.proc > pc.maxCPU {
		pc.maxCPU = e.proc
	}
	switch meter.Type(e.kind) {
	case meter.EvSend:
		n := int64(e.aux)
		c.sends++
		c.bytesSent += n
		c.sizes[sizeBucket(n)]++
		pc.sends++
		pc.bytesSent += n
		dst := c.match.send(e)
		p := c.pair(e.machine, dst)
		p.sendMsgs++
		p.sendBytes += n
		p.sizes[sizeBucket(n)]++
	case meter.EvRecv:
		n := int64(e.aux)
		c.recvs++
		c.bytesRecv += n
		pc.recvs++
		pc.bytesRecvd += n
		src := c.match.recv(e)
		p := c.pair(src, e.machine)
		p.recvMsgs++
		p.recvBytes += n
	case meter.EvRecvCall:
		pc.recvCalls++
	case meter.EvSocket:
		pc.sockets++
	case meter.EvFork:
		pc.forks++
	case meter.EvTermProc:
		if !pc.terminated {
			pc.terminated = true
			if c.liveProcs > 0 {
				c.liveProcs--
			}
		}
	case meter.EvConnect:
		c.match.connect(e)
	case meter.EvAccept:
		c.match.accept(e)
	}
}

func (c *Collector) pair(src, dst uint16) *pairCell {
	k := pairKey(src, dst)
	if p := c.lastPair; p != nil && c.lastPairK == k {
		return p
	}
	p := c.pairs[k]
	if p == nil {
		if len(c.pairs) >= c.cfg.MaxPairs {
			// Matrix full: fold into the unknown cell rather than
			// growing without bound.
			src, dst = unknownMachine, unknownMachine
			k = pairKey(src, dst)
			if p = c.pairs[k]; p != nil {
				return p
			}
		}
		p = &pairCell{src: src, dst: dst}
		c.pairs[k] = p
	}
	c.lastPairK, c.lastPair = k, p
	return p
}

// hostMachine resolves a socket name to a machine id: AFInet hosts map
// by identity (the single-network default, as in analysis), AFUnix and
// AFPair names are machine-local so they resolve to the observer.
func hostMachine(n *meter.Name, local uint16) uint16 {
	switch n.Family() {
	case meter.AFInet:
		host, _ := n.Inet()
		if host > uint32(unknownMachine-1) {
			return unknownMachine
		}
		return uint16(host)
	case meter.AFUnix, meter.AFPair:
		return local
	}
	return unknownMachine
}
