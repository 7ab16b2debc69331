// Package live computes the paper's §5 analyses incrementally, on the
// meter stream, as it flows through the filter pipeline. A Collector
// attaches to a filter through the record-tap seam (filter.TapSource)
// and maintains three operators:
//
//   - a live communication matrix: the per-process rows and trace
//     totals of internal/analysis's fold, plus per-(src,dst)-machine
//     message/byte counts with power-of-two size-bucket histograms;
//   - a live parallelism curve: the same fold's per-process
//     [first,last] cpuTime intervals and final procTime readings, from
//     which analysis.Sweep derives the time-in-k-processes histogram
//     and speedup, plus a concurrent-process gauge;
//   - online send/receive matching: analysis.Matcher under a bounded
//     reordering window — entries that outlive the window age out into
//     an unmatched counter instead of accumulating, so the operator can
//     run forever.
//
// The process table and the totals are analysis.Fold's and the matcher
// is analysis.Matcher: offline analysis.Comm, MeasureParallelism and
// MatchMessages run the same fold and matcher over a finished trace,
// so the two can only differ in what reached them, or in what aged
// out.
//
// The table holds open processes only. The collector sweeps the
// concurrency curve forward to a horizon at most WindowMillis behind
// the watermark (the largest cpuTime applied) and never past the last
// record of a process still running; a terminated process whose last
// record lies behind the horizon retires into its machine's summary —
// its summed communication row, its count, its procTime and its span —
// so the state, and a section, grow with the processes open and the
// machines, not with the processes seen. A record that lands behind
// the horizon is clamped to it and counted (live.par.late); with none,
// the curve is analysis.MeasureParallelism's exactly.
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
// Host addresses map to machine ids by identity, the default of
// analysis.MatchOptions.
package live

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"dpm/internal/analysis"
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
	// WindowMillis is the reordering window, in record cpuTime: an
	// unmatched send, receive, or handshake older than this ages out of
	// the online matcher, and a terminated process whose last record is
	// this far behind the watermark retires from the process table.
	// Default 2000.
	WindowMillis int64
	// MaxPending bounds each matcher queue (pending handshakes, stream
	// spans per direction, datagram flow FIFOs, orphans): when full,
	// the oldest entry is evicted as aged. Default 1024.
	MaxPending int
	// MaxProcs bounds the open processes; processes beyond it fold
	// into an overflow bucket so a runaway workload cannot grow the
	// analysis state without bound. It caps the matcher's connections
	// and datagram flows too. Default 16384.
	MaxProcs int
	// MaxPairs bounds the communication matrix; pairs beyond it fold
	// into the (unknown,unknown) cell. Default 4096.
	MaxPairs int
}

// tapEntries is each worker tap's entry buffer.
const tapEntries = 512

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
	return c
}

// procKey packs (machine, pid) into one map key.
func procKey(machine uint16, pid uint32) uint64 {
	return uint64(machine)<<32 | uint64(pid)
}

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
	sizes     [analysis.NumSizeBuckets]int64 // sent-size histogram
}

// tapEntry is the compact op-log record a worker tap buffers: just the
// fields the operators read, copied out of the pooled extraction
// record.
type tapEntry = analysis.Record

// Collector is the per-filter live-analysis state: operators, their
// obs handles, and the sections they export. One Collector serves all
// of a pipeline's workers; create taps with NewTap.
type Collector struct {
	cfg Config

	mu    sync.Mutex
	clock int64 // watermark: max cpuTime applied
	// Open-process table, shared by the comm and parallelism operators.
	// cells lists the same cells for the section encoders, which write
	// them in (machine, pid) order (orderCells).
	procs    map[uint64]*analysis.Proc
	cells    []*analysis.Proc
	overflow *analysis.Proc // folds processes beyond MaxProcs; listed in cells while set
	// The sweep (settle): hist holds the milliseconds before horizon
	// at each concurrency level, over every process; retired sums, in
	// machine order, the processes that left the table behind it.
	// settleAt is the watermark at which the next settle is tried.
	horizon  int64
	settleAt int64
	hist     map[int]int64
	retired  []machineSum
	nRetired int64
	gone     []uint64 // keys of the processes this settle retired, for the matcher
	// overGone holds the processes that ended folded into the overflow
	// cell, which never retires one by one, with the time of their end:
	// the settle that passes it hands them to the matcher as gone.
	overGone []goneProc
	// Direct-mapped caches over the hot tables. A settle clears the
	// process cache, so a cached pointer can only go stale by eviction,
	// never dangle. A handful of processes and one machine pair
	// dominate any chunk, which is what makes these small caches pay.
	procCache [16]*analysis.Proc
	lastPairK uint32
	lastPair  *pairCell
	// scratch is the buffer the last section capture encoded into,
	// reused by the next (keep).
	scratch []byte
	// Global communication totals and matrix.
	totals analysis.Totals
	pairs  map[uint32]*pairCell
	// liveProcs counts the rows not terminated, the overflow row
	// included: what ParState.Running counts.
	liveProcs int64
	match     *analysis.Matcher
	// pubMatch is what publishStats last added to the match counters.
	pubMatch analysis.MatchCounts

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
	// Stat accumulators, folded under mu and published by publishStats,
	// which pubMu serializes.
	statRecords int64
	statFlushes int64
	statLate    int64 // records clamped to the horizon
	pubMu       sync.Mutex

	// Obs handles, resolved once; nil-safe via a discard registry.
	tapRecords  *obs.Counter
	tapFlushes  *obs.Counter
	procsLive   *obs.Gauge
	procsSeen   *obs.Gauge
	streamMatch *obs.Counter
	dgramMatch  *obs.Counter
	agedOut     *obs.Counter
	pendingG    *obs.Gauge
	// reg is where live.par.late is registered, on the first late
	// record: a run with none reports what it did before the counter.
	reg *obs.Registry
}

// machineSum is what a machine's retired processes leave behind, as
// the two sections' machine rows.
type machineSum struct {
	comm MachineComm
	par  MachinePar
}

// NewCollector builds a collector and, when cfg.Obs is set, registers
// its metrics and snapshot sections there. Re-registering on the same
// registry (a restarted filter) replaces the sections of the dead
// collector.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:      cfg,
		procs:    make(map[uint64]*analysis.Proc),
		pairs:    make(map[uint32]*pairCell),
		horizon:  math.MinInt64,
		settleAt: cfg.WindowMillis,
		hist:     make(map[int]int64),
	}
	c.match = analysis.NewMatcher(analysis.MatchLimits{Window: cfg.WindowMillis, MaxPending: cfg.MaxPending, MaxConns: cfg.MaxProcs}, nil)
	c.pendingQ = make([][]tapEntry, 0, poolChunks+poolSlack)
	c.freeQ = make([][]tapEntry, 0, poolChunks+poolSlack)
	for i := 0; i < poolChunks; i++ {
		c.freeQ = append(c.freeQ, make([]tapEntry, 0, tapEntries))
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
	c.reg = reg
	if cfg.Obs != nil {
		cfg.Obs.RegisterSection(SectionComm, SectionVersion, c.captureComm)
		cfg.Obs.RegisterSection(SectionPar, SectionVersion, c.capturePar)
		cfg.Obs.RegisterSection(SectionMatch, SectionVersion, c.captureMatch)
	}
	return c
}

// NewTap hands out one worker's tap. Implements filter.TapSource.
func (c *Collector) NewTap() filter.RecordTap {
	return &Tap{c: c, buf: make([]tapEntry, 0, tapEntries)}
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
	*e = tapEntry{Machine: rec.Machine, CPU: int64(rec.CPUTime), Proc: int64(rec.ProcTime)}
	if ty := info.Type; ty < 256 {
		e.Kind = uint8(ty)
	}
	f := rec.Fields
	if i := info.PIDIdx; i >= 0 {
		e.PID = uint32(f[i].Value)
	}
	if i := info.SockIdx; i >= 0 {
		e.Sock = uint32(f[i].Value)
	}
	if i := info.LenIdx; i >= 0 {
		e.Aux = uint32(f[i].Value)
	} else if i := info.AuxIdx; i >= 0 {
		e.Aux = uint32(f[i].Value)
	}
	if i := info.Name1Idx; i >= 0 {
		e.Name1 = f[i].Addr
	}
	if i := info.Name2Idx; i >= 0 {
		e.Name2 = f[i].Addr
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
	if c.clock >= c.settleAt {
		c.settle()
		c.settleAt = c.clock + c.cfg.WindowMillis/8
	}
	c.match.Sweep(c.clock)
	c.statRecords += int64(len(entries))
	c.statFlushes++
	c.mu.Unlock()
}

// publishStats copies the operators' aggregates into their obs
// handles. Called after a drain pass and at every section capture —
// metric readers all go through Registry.Snapshot, which captures
// sections first, so they always see published values. Publishers run
// one at a time: otherwise the drainer could set a gauge from an older
// reading after a capture set it from a newer one, or still hold a
// counter delta the capture's snapshot goes on to read without.
func (c *Collector) publishStats() {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	c.mu.Lock()
	recs, flushes, late := c.statRecords, c.statFlushes, c.statLate
	c.statRecords, c.statFlushes, c.statLate = 0, 0, 0
	nProcs := int64(len(c.procs)) + c.nRetired
	live := c.liveProcs
	mc, pub := c.match.MatchCounts, c.pubMatch
	c.pubMatch = mc
	c.mu.Unlock()

	c.tapRecords.Add(recs)
	c.tapFlushes.Add(flushes)
	if late > 0 {
		c.reg.Counter("live.par.late").Add(late)
	}
	c.procsSeen.Set(nProcs)
	c.procsLive.Set(live)
	c.pendingG.Set(mc.Pending)
	c.streamMatch.Add(mc.Stream - pub.Stream)
	c.dgramMatch.Add(mc.Dgram - pub.Dgram)
	c.agedOut.Add(mc.Aged - pub.Aged)
}

// cell returns the process's cell, folding overflow past MaxProcs.
func (c *Collector) cell(machine uint16, pid uint32) *analysis.Proc {
	idx := (pid + uint32(machine)*31) & uint32(len(c.procCache)-1)
	if pc := c.procCache[idx]; pc != nil && pc.PID == pid && pc.Machine == machine {
		return pc
	}
	k := procKey(machine, pid)
	pc := c.procs[k]
	if pc == nil {
		if len(c.procs) >= c.cfg.MaxProcs {
			if c.overflow == nil {
				np := analysis.NewProc(UnknownMachine, ^uint32(0))
				c.overflow = &np
				c.cells = append(c.cells, c.overflow)
				c.liveProcs++
			}
			return c.overflow
		}
		np := analysis.NewProc(machine, pid)
		pc = &np
		c.procs[k] = pc
		c.cells = append(c.cells, pc)
		c.liveProcs++
	}
	c.procCache[idx] = pc
	return pc
}

// cmpCell orders cells by (machine, pid), the order sections list them.
func cmpCell(a, b *analysis.Proc) int {
	return cmp.Compare(procKey(a.Machine, a.PID), procKey(b.Machine, b.PID))
}

// orderCells puts c.cells in (machine, pid) order and returns them.
// The caller holds c.mu.
func (c *Collector) orderCells() []*analysis.Proc {
	if !slices.IsSortedFunc(c.cells, cmpCell) {
		slices.SortFunc(c.cells, cmpCell)
	}
	return c.cells
}

// settle sweeps the concurrency curve forward to a new horizon —
// WindowMillis behind the watermark, and never past the last record of
// a process still running, whose interval may yet grow — and retires
// every terminated process whose last record lies before it. Each
// open interval is clipped to the stretch between the two horizons,
// so the swept histogram is the one analysis.Sweep draws over every
// interval at once. The caller holds c.mu.
func (c *Collector) settle() {
	h := c.clock - c.cfg.WindowMillis
	// A process that ended in the overflow cell, which never retires one
	// by one, is gone once the window has passed its end, however far
	// behind a running process holds the horizon.
	c.overGone = slices.DeleteFunc(c.overGone, func(g goneProc) bool {
		if g.end < h {
			c.gone = append(c.gone, g.key)
		}
		return g.end < h
	})
	defer c.forgetGone()
	for _, pc := range c.cells {
		if !pc.Terminated {
			h = min(h, pc.Last)
		}
	}
	if h <= c.horizon {
		return
	}
	var starts, ends []int64
	keep := c.cells[:0]
	for _, pc := range c.cells {
		if s, e := max(pc.First, c.horizon), min(pc.Last, h); s < e {
			starts, ends = append(starts, s), append(ends, e)
		}
		if pc.Terminated && pc.Last < h {
			c.retire(pc)
		} else {
			keep = append(keep, pc)
		}
	}
	clear(c.cells[len(keep):])
	c.cells = keep
	for k, ms := range analysis.Sweep(starts, ends, 0).Histogram {
		c.hist[k] += ms
	}
	c.horizon = h
	clear(c.procCache[:])
}

// forgetGone has the matcher forget the processes in c.gone. The
// caller holds c.mu.
func (c *Collector) forgetGone() {
	if len(c.gone) > 0 {
		slices.Sort(c.gone)
		c.match.Retire(func(machine uint16, pid uint32) bool {
			_, ok := slices.BinarySearch(c.gone, procKey(machine, pid))
			return ok
		})
		c.gone = c.gone[:0]
	}
}

// goneProc is a process that ended in the overflow cell, and when.
type goneProc struct {
	key uint64
	end int64
}

// retire folds a terminated process into its machine's summary and
// takes it out of the table.
func (c *Collector) retire(pc *analysis.Proc) {
	i, ok := slices.BinarySearchFunc(c.retired, pc.Machine, func(s machineSum, m uint16) int {
		return cmp.Compare(s.comm.Machine, m)
	})
	if !ok {
		c.retired = slices.Insert(c.retired, i, machineSum{comm: MachineComm{ProcComm: analysis.ProcComm{Machine: pc.Machine}},
			par: MachinePar{Machine: pc.Machine, First: math.MaxInt64, Last: math.MinInt64}})
	}
	s := &c.retired[i]
	addComm(&s.comm.ProcComm, &pc.ProcComm)
	s.comm.Procs++
	addMachinePar(&s.par, &MachinePar{Procs: 1, CPU: pc.MaxCPU, First: pc.First, Last: pc.Last})
	c.nRetired++
	if pc == c.overflow {
		c.overflow = nil
	} else {
		delete(c.procs, procKey(pc.Machine, pc.PID))
		c.gone = append(c.gone, procKey(pc.Machine, pc.PID))
	}
}

// addComm adds src's counts into dst.
func addComm(dst, src *analysis.ProcComm) {
	dst.Sends += src.Sends
	dst.Recvs += src.Recvs
	dst.RecvCalls += src.RecvCalls
	dst.Sockets += src.Sockets
	dst.Forks += src.Forks
	dst.BytesSent += src.BytesSent
	dst.BytesRecvd += src.BytesRecvd
}

// addMachinePar adds src's processes into dst.
func addMachinePar(dst, src *MachinePar) {
	dst.Procs += src.Procs
	dst.CPU += src.CPU
	dst.First, dst.Last = min(dst.First, src.First), max(dst.Last, src.Last)
}

// applyOne folds one entry into the process table and the totals
// through analysis.Fold, then into the matrix and the matcher. A record
// behind the horizon folds at the horizon.
func (c *Collector) applyOne(e *tapEntry) {
	if e.CPU > c.clock {
		c.clock = e.CPU
	}
	cpu := e.CPU
	if cpu < c.horizon {
		cpu = c.horizon
		c.statLate++
	}
	ty, n := meter.Type(e.Kind), int64(e.Aux)
	pc := c.cell(e.Machine, e.PID)
	if c.totals.Fold(pc, ty, cpu, e.Proc, n) {
		c.liveProcs--
	}
	if pc == c.overflow && ty == meter.EvTermProc {
		c.overGone = append(c.overGone, goneProc{procKey(e.Machine, e.PID), cpu})
	}
	switch ty {
	case meter.EvSend:
		p := c.pair(e.Machine, c.match.Apply(e, 0))
		p.sendMsgs++
		p.sendBytes += n
		p.sizes[analysis.SizeBucket(n)]++
	case meter.EvRecv:
		p := c.pair(c.match.Apply(e, 0), e.Machine)
		p.recvMsgs++
		p.recvBytes += n
	case meter.EvConnect, meter.EvAccept:
		c.match.Apply(e, 0)
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
			src, dst = UnknownMachine, UnknownMachine
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
