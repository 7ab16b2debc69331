package live

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"dpm/internal/analysis"
	"dpm/internal/filter"
	"dpm/internal/obs"
)

// Snapshot section names and the shared payload version. Payloads are
// little-endian fields and varints, bounds-checked on decode, and merge
// by key-wise summation (comm), interval union plus histogram and
// summary addition (par), and counter addition (match) — all
// associative and commutative, the contract obs.SectionMerger
// requires. A decoder rejects corrupt bytes with ErrBadSection; the obs
// merge then degrades to carrying both inputs instead of dropping
// state.
const (
	SectionComm  = "live.comm"
	SectionPar   = "live.par"
	SectionMatch = "live.match"
	// SectionVersion is the payload version this package writes. A
	// section arriving with a different version is left unmerged and
	// unrendered (carried opaquely), so mixed-version clusters degrade
	// instead of misparsing.
	SectionVersion = 3
)

// ErrBadSection reports an undecodable live-analysis payload.
var ErrBadSection = errors.New("live: corrupt section")

// maxSectionEntries bounds decoded tables against corrupt counts.
const maxSectionEntries = 1 << 20

func init() {
	obs.RegisterSectionMerger(SectionComm, SectionVersion, mergeCommPayload)
	obs.RegisterSectionMerger(SectionPar, SectionVersion, mergeParPayload)
	obs.RegisterSectionMerger(SectionMatch, SectionVersion, mergeMatchPayload)
	obs.RegisterSectionRenderer(SectionComm, renderComm)
	obs.RegisterSectionRenderer(SectionPar, renderPar)
	obs.RegisterSectionRenderer(SectionMatch, renderMatch)
}

// Factory returns the filter.TapFactory that equips every standard
// filter with a live-analysis collector on its machine's registry —
// what internal/core installs at cluster construction.
func Factory() filter.TapFactory {
	return func(reg *obs.Registry, _ string) filter.TapSource {
		return NewCollector(Config{Obs: reg})
	}
}

// PairState is one (src,dst) cell of the decoded matrix. Dst or Src
// equal to UnknownMachine mark unresolved peers.
type PairState struct {
	Src, Dst  uint16
	SendMsgs  int64
	SendBytes int64
	RecvMsgs  int64
	RecvBytes int64
	Sizes     [analysis.NumSizeBuckets]int64
}

// UnknownMachine is the matrix row and column for traffic whose peer
// could not be resolved (no name, no established connection).
const UnknownMachine = analysis.UnknownMachine

// CommState is the decoded live.comm section: the fold's statistics,
// as analysis.Comm computes them over a trace, and the matrix. Procs
// holds the open processes only; Machines sums the retired ones.
type CommState struct {
	analysis.CommStats
	Machines []MachineComm
	Pairs    []PairState
}

// MachineComm is one machine's summed communication row (PID zero)
// and the number of processes summed into it: in a section, the
// processes the collector has retired.
type MachineComm struct {
	analysis.ProcComm
	Procs int64
}

// ByMachine groups the statistics by machine, in machine order: each
// machine's retired summary plus its open rows. Over a trace's
// analysis.Comm it is the trace's per-machine table — the grouping in
// which a collector's statistics, once processes retire, equal it.
func (st *CommState) ByMachine() []MachineComm {
	out := slices.Clone(st.Machines)
	for i := range st.Procs {
		p := &st.Procs[i]
		j, ok := slices.BinarySearchFunc(out, p.Machine, func(m MachineComm, id uint16) int { return cmp.Compare(m.Machine, id) })
		if !ok {
			out = slices.Insert(out, j, MachineComm{ProcComm: analysis.ProcComm{Machine: p.Machine}})
		}
		addComm(&out[j].ProcComm, p)
		out[j].Procs++
	}
	return out
}

// ProcInterval is one process's lifetime in the decoded live.par
// section.
type ProcInterval struct {
	Machine    uint16
	PID        uint32
	Terminated bool
	First      int64
	Last       int64
	MaxCPU     int64
}

// ParState is the decoded live.par section: the open processes'
// intervals, the retired processes' per-machine summaries, and the
// part of the concurrency curve already swept.
type ParState struct {
	Machines []MachinePar
	Swept    *Swept
	Procs    []ProcInterval
}

// MachinePar sums one machine's retired processes: how many, their
// final procTime readings, and the span of their records.
type MachinePar struct {
	Machine     uint16
	Procs       int64
	CPU         int64
	First, Last int64
}

// Swept is the part of the concurrency curve a collector has swept:
// Hist[k] is the milliseconds before Horizon during which exactly k
// processes were live. The open intervals count from Horizon on. A
// merged section is swept to math.MaxInt64: its Hist is the sum of
// each collector's whole curve.
type Swept struct {
	Horizon int64
	Hist    map[int]int64
}

// MatchState is the decoded live.match section.
type MatchState struct {
	Conns         int64
	StreamMatched int64
	DgramMatched  int64
	AgedOut       int64
	Pending       int64
}

// Curve derives the parallelism profile from the intervals, the
// summaries and the swept histogram through analysis.Sweep, as
// analysis.MeasureParallelism does over a trace.
func (p *ParState) Curve() *analysis.Parallelism {
	times := make([]int64, 2*len(p.Procs))
	starts, ends := times[:len(p.Procs)], times[len(p.Procs):]
	var cpu int64
	for i := range p.Procs {
		cpu += p.Procs[i].MaxCPU
		starts[i], ends[i] = p.Procs[i].First, p.Procs[i].Last
	}
	return p.curve(starts, ends, cpu)
}

// curve is Curve over the open intervals given as their starts and
// ends, which it clips to the horizon and sorts in place, and their
// summed procTime.
func (p *ParState) curve(starts, ends []int64, cpu int64) *analysis.Parallelism {
	sw := Swept{Horizon: math.MinInt64}
	if p.Swept != nil {
		sw = *p.Swept
	}
	n, first, last := int64(len(starts)), int64(math.MaxInt64), int64(math.MinInt64)
	for i := range starts {
		first, last = min(first, starts[i]), max(last, ends[i])
		starts[i], ends[i] = max(starts[i], sw.Horizon), max(ends[i], sw.Horizon)
	}
	for _, m := range p.Machines {
		n += m.Procs
		cpu += m.CPU
		first, last = min(first, m.First), max(last, m.Last)
	}
	out := analysis.Sweep(starts, ends, cpu)
	for k, ms := range sw.Hist {
		out.Histogram[k] += ms
	}
	out.Processes, out.TotalCPUMillis = int(n), cpu
	if n > 0 {
		out.MakespanMillis, out.Speedup = last-first, 0
		if out.MakespanMillis > 0 {
			out.Speedup = float64(cpu) / float64(out.MakespanMillis)
		}
	}
	return out
}

// Running counts the intervals not yet terminated — the merged form of
// the live.procs_live gauge.
func (p *ParState) Running() int {
	n := 0
	for i := range p.Procs {
		if !p.Procs[i].Terminated {
			n++
		}
	}
	return n
}

// ---- encoding ----

// count reads a table's row count.
func count(r *obs.Cursor) uint32 {
	n := r.U32()
	if n > maxSectionEntries {
		r.Fail("count %d", n)
		return 0
	}
	return n
}

// The least a row of each table takes: a process row is all varints of
// at least a byte each, a machine row a u16 and varints, a pair row has
// an empty size histogram.
const (
	minCommRowSize  = 8
	minParRowSize   = 4
	minMachCommSize = 2 + 8
	minMachParSize  = 2 + 4
	minPairRowSize  = 2 + 2 + 4*8 + 2
)

// The live.comm payload, version 3 — open procs in (machine, pid)
// order, machines ascending, pairs in (src, dst) order, empty size
// buckets left out:
//
//	i64 events, sends, recvs, bytesSent, bytesRecvd,
//	u16 n sizes × (u8 bucket, i64 count),
//	u32 n procs, u32 bytes of the process rows that follow,
//	n procs × (uvarint key − previous row's key, counts),
//	u32 n machines × (u16 machine, zigzag varint procs, counts),
//	u32 n pairs × (u16 src, u16 dst, i64 sendMsgs, sendBytes,
//	               recvMsgs, recvBytes, u16 n sizes × (u8, i64)),
//
// where counts are zigzag varints sends, recvs, recvCalls, sockets,
// forks, bytesSent, bytesRecvd. A process's key is procKey(machine,
// pid), and the first row's distance is from key 0. A machine row sums
// the processes the collector has retired on that machine.
//
// The live.par payload, version 3, open rows in (machine, pid) order:
//
//	u8 0 (nothing swept), or u8 1, zigzag varint horizon,
//	    u32 n levels × (uvarint level, uvarint ms), levels ascending
//	    from 1,
//	u32 n machines × (u16 machine, zigzag varint procs, cpu, first,
//	                  last − first),
//	u32 n procs × (uvarint (key − previous row's key)<<1 | terminated,
//	               zigzag varint first − previous row's first,
//	               zigzag varint last − first, zigzag varint maxCPU),
//
// the first row's distances taken from key 0 and time 0. The levels are
// Swept's histogram; a machine row is a MachinePar.
//
// Each table has one row writer (appendCommRow, appendMachineComm,
// appendMachinePar, appendParRow) and one row reader that captures,
// the encoders of merged state, the mergers and the renderers all go
// through. Differences wrap as int64s, so any decoded state re-encodes
// to itself. Version-1 and version-2 payloads are refused, not read.

// maxProcKey is the largest key procKey makes: a decoded row whose
// distance passes it is corrupt.
const maxProcKey = 1<<48 - 1

func appendVarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// readKey reads a row's key as its distance d from the previous row's.
func readKey(r *obs.Cursor, prev, d uint64) (uint16, uint32) {
	if d > maxProcKey-prev {
		r.Fail("key distance %d after key %d", d, prev)
		return 0, 0
	}
	k := prev + d
	return uint16(k >> 32), uint32(k)
}

// appendCounts appends a communication row's counts.
func appendCounts(b []byte, p *analysis.ProcComm) []byte {
	return appendVarints(b, obs.Zigzag(p.Sends), obs.Zigzag(p.Recvs), obs.Zigzag(p.RecvCalls), obs.Zigzag(p.Sockets),
		obs.Zigzag(p.Forks), obs.Zigzag(p.BytesSent), obs.Zigzag(p.BytesRecvd))
}

// readCounts reads what appendCounts wrote into p.
func readCounts(r *obs.Cursor, p *analysis.ProcComm) {
	p.Sends, p.Recvs, p.RecvCalls = r.Zigzag(), r.Zigzag(), r.Zigzag()
	p.Sockets, p.Forks = r.Zigzag(), r.Zigzag()
	p.BytesSent, p.BytesRecvd = r.Zigzag(), r.Zigzag()
}

// appendCommRow appends p's live.comm row after the row prev.
func appendCommRow(b []byte, prev, p *analysis.ProcComm) []byte {
	return appendCounts(binary.AppendUvarint(b, procKey(p.Machine, p.PID)-procKey(prev.Machine, prev.PID)), p)
}

// readCommRow reads the row appendCommRow wrote after prev.
func readCommRow(r *obs.Cursor, prev *analysis.ProcComm) analysis.ProcComm {
	var p analysis.ProcComm
	p.Machine, p.PID = readKey(r, procKey(prev.Machine, prev.PID), r.Uvarint())
	readCounts(r, &p)
	return p
}

// appendMachineComm appends m's live.comm machine row.
func appendMachineComm(b []byte, m *MachineComm) []byte {
	return appendCounts(binary.AppendUvarint(binary.LittleEndian.AppendUint16(b, m.Machine), obs.Zigzag(m.Procs)), &m.ProcComm)
}

// readMachineComm reads the row appendMachineComm wrote.
func readMachineComm(r *obs.Cursor) MachineComm {
	m := MachineComm{ProcComm: analysis.ProcComm{Machine: r.U16()}, Procs: r.Zigzag()}
	readCounts(r, &m.ProcComm)
	return m
}

// appendMachinePar appends m's live.par machine row.
func appendMachinePar(b []byte, m *MachinePar) []byte {
	return appendVarints(binary.LittleEndian.AppendUint16(b, m.Machine),
		obs.Zigzag(m.Procs), obs.Zigzag(m.CPU), obs.Zigzag(m.First), obs.Zigzag(m.Last-m.First))
}

// readMachinePar reads the row appendMachinePar wrote.
func readMachinePar(r *obs.Cursor) MachinePar {
	m := MachinePar{Machine: r.U16(), Procs: r.Zigzag(), CPU: r.Zigzag(), First: r.Zigzag()}
	m.Last = m.First + r.Zigzag()
	return m
}

// appendTable appends a u32 row count and the n rows row writes.
func appendTable(b []byte, n int, row func(b []byte, i int) []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for i := 0; i < n; i++ {
		b = row(b, i)
	}
	return b
}

// rowCount reads a table's row count, failing r when its bytes cannot hold
// that many rows of at least size bytes.
func rowCount(r *obs.Cursor, size int) int {
	n := int(count(r))
	if n > r.Remaining()/size {
		r.Fail("%d rows in %d bytes", n, r.Remaining())
		return 0
	}
	return n
}

// appendSwept appends the swept part of the curve, levels ascending.
func appendSwept(b []byte, sw *Swept) []byte {
	if sw == nil {
		return append(b, 0)
	}
	levels := make([]int, 0, len(sw.Hist))
	for k := range sw.Hist {
		levels = append(levels, k)
	}
	slices.Sort(levels)
	b = binary.AppendUvarint(append(b, 1), obs.Zigzag(sw.Horizon))
	return appendTable(b, len(levels), func(b []byte, i int) []byte {
		return appendVarints(b, uint64(levels[i]), uint64(sw.Hist[levels[i]]))
	})
}

// readSwept reads what appendSwept wrote.
func readSwept(r *obs.Cursor) *Swept {
	switch flag := r.U8(); {
	case flag == 0 || r.Err() != nil:
		return nil
	case flag != 1:
		r.Fail("swept flag %d", flag)
		return nil
	}
	sw := &Swept{Horizon: r.Zigzag()}
	n := int(count(r))
	if n > r.Remaining()/2 {
		r.Fail("%d levels in %d bytes", n, r.Remaining())
		return nil
	}
	sw.Hist = make(map[int]int64, n)
	prev := uint64(0)
	for i := 0; i < n && r.Err() == nil; i++ {
		k, ms := r.Uvarint(), r.Uvarint()
		if k <= prev || k > maxSectionEntries {
			r.Fail("level %d after %d", k, prev)
		}
		sw.Hist[int(k)], prev = int64(ms), k
	}
	return sw
}

// appendParRow appends p's live.par row after the row prev.
func appendParRow(b []byte, prev, p *ProcInterval) []byte {
	d := procKey(p.Machine, p.PID) - procKey(prev.Machine, prev.PID)
	if p.Terminated {
		d = d<<1 | 1
	} else {
		d <<= 1
	}
	return appendVarints(b, d, obs.Zigzag(p.First-prev.First), obs.Zigzag(p.Last-p.First), obs.Zigzag(p.MaxCPU))
}

// readParRow reads the row appendParRow wrote after prev.
func readParRow(r *obs.Cursor, prev *ProcInterval) ProcInterval {
	d := r.Uvarint()
	iv := ProcInterval{Terminated: d&1 != 0}
	iv.Machine, iv.PID = readKey(r, procKey(prev.Machine, prev.PID), d>>1)
	iv.First = prev.First + r.Zigzag()
	iv.Last = iv.First + r.Zigzag()
	iv.MaxCPU = r.Zigzag()
	return iv
}

// interval is a cell's live.par row.
func interval(pc *analysis.Proc) ProcInterval {
	return ProcInterval{Machine: pc.Machine, PID: pc.PID, Terminated: pc.Terminated,
		First: pc.First, Last: pc.Last, MaxCPU: pc.MaxCPU}
}

func appendI64s(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendSizes(b []byte, sizes *[analysis.NumSizeBuckets]int64) []byte {
	le := binary.LittleEndian
	n := 0
	for _, v := range sizes {
		if v != 0 {
			n++
		}
	}
	b = le.AppendUint16(b, uint16(n))
	for i, v := range sizes {
		if v != 0 {
			b = append(b, uint8(i))
			b = le.AppendUint64(b, uint64(v))
		}
	}
	return b
}

// readSizes reads what appendSizes wrote into sizes, and only that:
// buckets in ascending order, none empty, none past the last — so a
// histogram that decodes encodes back to itself.
func readSizes(r *obs.Cursor, sizes *[analysis.NumSizeBuckets]int64) {
	n := int(r.U16())
	prev := -1
	for i := 0; i < n && r.Err() == nil; i++ {
		bucket := int(r.U8())
		v := r.I64()
		if r.Err() != nil {
			break
		}
		if bucket <= prev || bucket >= len(sizes) || v == 0 {
			r.Fail("size bucket %d of %d after %d", bucket, v, prev)
			break
		}
		sizes[bucket] = v
		prev = bucket
	}
}

// readPairRow reads a live.comm pair row after its src and dst.
func readPairRow(r *obs.Cursor, p *PairState) {
	p.SendMsgs, p.SendBytes = r.I64(), r.I64()
	p.RecvMsgs, p.RecvBytes = r.I64(), r.I64()
	readSizes(r, &p.Sizes)
}

// ascending fails r when row i of a table, whose key is key, does not
// come after the row before it, whose key is prev: every table is in
// strictly ascending key order, so that a payload that decodes is the
// one its state encodes to.
func ascending(r *obs.Cursor, i int, key, prev uint64) {
	if i > 0 && key <= prev {
		r.Fail("row %d: key %d after %d", i, key, prev)
	}
}

func appendCommHead(b []byte, t *analysis.Totals) []byte {
	return appendSizes(appendI64s(b, t.Events, t.Sends, t.Recvs, t.BytesSent, t.BytesRecvd), &t.SizeHist)
}

// appendProcTable appends live.comm's process table, the n rows rows
// appends, behind the count and the byte length.
func appendProcTable(b []byte, n int, rows func([]byte) []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(le.AppendUint32(b, uint32(n)), 0)
	at := len(b)
	b = rows(b)
	le.PutUint32(b[at-4:], uint32(len(b)-at))
	return b
}

func appendPairRow(b []byte, src, dst uint16, sendMsgs, sendBytes, recvMsgs, recvBytes int64, sizes *[analysis.NumSizeBuckets]int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, src)
	b = binary.LittleEndian.AppendUint16(b, dst)
	return appendSizes(appendI64s(b, sendMsgs, sendBytes, recvMsgs, recvBytes), sizes)
}

// appendComm appends the collector's live.comm payload to b.
func (c *Collector) appendComm(b []byte) []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.orderCells()
	b = appendCommHead(b, &c.totals)
	b = appendProcTable(b, len(cells), func(b []byte) []byte {
		var prev analysis.ProcComm
		for _, pc := range cells {
			b, prev = appendCommRow(b, &prev, &pc.ProcComm), pc.ProcComm
		}
		return b
	})
	b = appendTable(b, len(c.retired), func(b []byte, i int) []byte { return appendMachineComm(b, &c.retired[i].comm) })
	keys := make([]uint32, 0, len(c.pairs))
	for k := range c.pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return appendTable(b, len(keys), func(b []byte, i int) []byte {
		p := c.pairs[keys[i]]
		return appendPairRow(b, p.src, p.dst, p.sendMsgs, p.sendBytes, p.recvMsgs, p.recvBytes, &p.sizes)
	})
}

// readCommHead adds a live.comm payload's totals into t, and returns
// the count and the bytes of its process rows.
func readCommHead(r *obs.Cursor, t *analysis.Totals) (int, []byte) {
	t.Events, t.Sends, t.Recvs = t.Events+r.I64(), t.Sends+r.I64(), t.Recvs+r.I64()
	t.BytesSent, t.BytesRecvd = t.BytesSent+r.I64(), t.BytesRecvd+r.I64()
	var sizes [analysis.NumSizeBuckets]int64
	readSizes(r, &sizes)
	addSizes(&t.SizeHist, &sizes)
	np := int(count(r))
	rows := r.Take(int(r.U32()))
	if np > len(rows)/minCommRowSize {
		r.Fail("%d process rows in %d bytes", np, len(rows))
	}
	return np, rows
}

// DecodeComm parses a live.comm payload.
func DecodeComm(data []byte) (*CommState, error) {
	st := &CommState{}
	if _, err := decodeComm(data, st, true, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeComm reads a live.comm payload into st — the totals added, the
// rows appended — and reports how many processes it counts: its open
// rows and the processes its machine rows sum. With procs false the
// open rows — most of a large payload — are stepped over by their byte
// length, not read (renderComm counts them). With pair set, each pair
// row goes to it instead of into st.
func decodeComm(data []byte, st *CommState, procs bool, pair func(p PairState)) (int, error) {
	r := obs.NewCursor(data, ErrBadSection)
	np, rows := readCommHead(&r, &st.Totals)
	if procs && r.Err() == nil {
		pr := obs.NewCursor(rows, ErrBadSection)
		st.Procs = slices.Grow(st.Procs, np)
		var prev analysis.ProcComm
		for i := 0; i < np && pr.Err() == nil; i++ {
			p := readCommRow(&pr, &prev)
			ascending(&pr, i, procKey(p.Machine, p.PID), procKey(prev.Machine, prev.PID))
			st.Procs, prev = append(st.Procs, p), p
		}
		if pr.Err() == nil && pr.Remaining() != 0 {
			pr.Fail("%d bytes after the process rows", pr.Remaining())
		}
		if pr.Err() != nil {
			return 0, pr.Err()
		}
	}
	var prevMachine uint16
	for i, n := 0, rowCount(&r, minMachCommSize); i < n && r.Err() == nil; i++ {
		m := readMachineComm(&r)
		ascending(&r, i, uint64(m.Machine), uint64(prevMachine))
		st.Machines, prevMachine, np = append(st.Machines, m), m.Machine, np+int(m.Procs)
	}
	npairs := int(count(&r))
	if pair == nil {
		st.Pairs = slices.Grow(st.Pairs, min(npairs, r.Remaining()/minPairRowSize))
		pair = func(p PairState) { st.Pairs = append(st.Pairs, p) }
	}
	var p PairState
	var prev uint32
	for i := 0; i < npairs && r.Err() == nil; i++ {
		p = PairState{Src: r.U16(), Dst: r.U16()}
		readPairRow(&r, &p)
		ascending(&r, i, uint64(pairKey(p.Src, p.Dst)), uint64(prev))
		if prev = pairKey(p.Src, p.Dst); r.Err() == nil {
			pair(p)
		}
	}
	return np, r.Err()
}

// appendPar appends the collector's live.par payload to b.
func (c *Collector) appendPar(b []byte) []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.orderCells()
	var sw *Swept
	if c.horizon != math.MinInt64 {
		sw = &Swept{Horizon: c.horizon, Hist: c.hist}
	}
	b = appendSwept(b, sw)
	b = appendTable(b, len(c.retired), func(b []byte, i int) []byte { return appendMachinePar(b, &c.retired[i].par) })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cells)))
	var prev ProcInterval
	for _, pc := range cells {
		iv := interval(pc)
		b = appendParRow(b, &prev, &iv)
		prev = iv
	}
	return b
}

// appendParState appends st's live.par payload to b, its rows in the
// order they are in.
func appendParState(b []byte, st *ParState) []byte {
	b = appendSwept(b, st.Swept)
	b = appendTable(b, len(st.Machines), func(b []byte, i int) []byte { return appendMachinePar(b, &st.Machines[i]) })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Procs)))
	var prev ProcInterval
	for i := range st.Procs {
		b, prev = appendParRow(b, &prev, &st.Procs[i]), st.Procs[i]
	}
	return b
}

// readPar reads a live.par payload: the swept curve and the machine
// rows into st (the rows appended), then size is told how many process rows the payload's
// bytes can hold, and row is handed each in turn. It is the one reader
// DecodePar and renderPar share, so the two refuse the same payloads.
func readPar(data []byte, st *ParState, size func(n int), row func(iv ProcInterval)) error {
	r := obs.NewCursor(data, ErrBadSection)
	st.Swept = readSwept(&r)
	var prevMachine uint16
	for i, n := 0, rowCount(&r, minMachParSize); i < n && r.Err() == nil; i++ {
		m := readMachinePar(&r)
		ascending(&r, i, uint64(m.Machine), uint64(prevMachine))
		st.Machines, prevMachine = append(st.Machines, m), m.Machine
	}
	n := int(count(&r))
	size(min(n, r.Remaining()/minParRowSize))
	var prev ProcInterval
	for i := 0; i < n && r.Err() == nil; i++ {
		iv := readParRow(&r, &prev)
		if ascending(&r, i, procKey(iv.Machine, iv.PID), procKey(prev.Machine, prev.PID)); r.Err() == nil {
			row(iv)
			prev = iv
		}
	}
	return r.Err()
}

// DecodePar parses a live.par payload.
func DecodePar(data []byte) (*ParState, error) {
	st := &ParState{}
	err := readPar(data, st, func(n int) { st.Procs = make([]ProcInterval, 0, n) },
		func(iv ProcInterval) { st.Procs = append(st.Procs, iv) })
	if err != nil {
		return nil, err
	}
	return st, nil
}

// appendMatch writes the live.match payload:
//
//	i64 conns, streamMatched, dgramMatched, agedOut, pending.
func appendMatch(b []byte, st *MatchState) []byte {
	return appendI64s(b, st.Conns, st.StreamMatched, st.DgramMatched, st.AgedOut, st.Pending)
}

// appendMatchTo appends the collector's live.match payload to b.
func (c *Collector) appendMatchTo(b []byte) []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &c.match.MatchCounts
	return appendMatch(b, &MatchState{Conns: m.Conns, StreamMatched: m.Stream, DgramMatched: m.Dgram, AgedOut: m.Aged, Pending: m.Pending})
}

// DecodeMatch parses a live.match payload.
func DecodeMatch(data []byte) (*MatchState, error) {
	st, err := readMatch(data)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

func readMatch(data []byte) (MatchState, error) {
	r := obs.NewCursor(data, ErrBadSection)
	st := MatchState{Conns: r.I64(), StreamMatched: r.I64(), DgramMatched: r.I64(), AgedOut: r.I64(), Pending: r.I64()}
	return st, r.Err()
}

// ---- merging ----
//
// A merger reads the rows of its k payloads into one table of each
// kind, folds the rows of each key into one (fold) and encodes the
// result: each payload is read once and the merge written once,
// whatever k is. The tables are kept from one merge to the next, so a
// merge allocates little beside its result. Each merger is associative
// and commutative, and fails only on a payload it cannot read, the
// contract obs.SectionMerger asks for.

// fold sorts rows by key, stably, and folds each run of one key into
// its first row with add.
func fold[T any](rows []T, key func(T) uint64, add func(dst, src *T)) []T {
	slices.SortStableFunc(rows, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	out := rows[:0]
	for i := range rows {
		if n := len(out); n > 0 && key(out[n-1]) == key(rows[i]) {
			add(&out[n-1], &rows[i])
		} else {
			out = append(out, rows[i])
		}
	}
	return out
}

// addSizes adds the src histogram into dst.
func addSizes(dst, src *[analysis.NumSizeBuckets]int64) {
	for i, v := range src {
		dst[i] += v
	}
}

// outSize is room for what merging payloads makes: at most their sum.
func outSize(payloads [][]byte) int {
	n := 0
	for _, p := range payloads {
		n += len(p)
	}
	return n
}

// merging holds a merge's tables, kept in mergeFree between merges.
type merging struct {
	comm        CommState
	par         ParState
	starts, end []int64
}

var mergeFree = sync.Pool{New: func() any { return new(merging) }}

// mergeCommPayload merges live.comm payloads: the totals summed, and
// each table's rows folded by key with their counts summed.
func mergeCommPayload(payloads ...[]byte) ([]byte, error) {
	m := mergeFree.Get().(*merging)
	defer mergeFree.Put(m)
	st := &m.comm
	*st = CommState{CommStats: analysis.CommStats{Procs: st.Procs[:0]}, Machines: st.Machines[:0], Pairs: st.Pairs[:0]}
	for _, data := range payloads {
		if _, err := decodeComm(data, st, true, nil); err != nil {
			return nil, err
		}
	}
	st.Procs = fold(st.Procs, func(p analysis.ProcComm) uint64 { return procKey(p.Machine, p.PID) }, addComm)
	st.Machines = fold(st.Machines, func(m MachineComm) uint64 { return uint64(m.Machine) }, func(dst, m *MachineComm) {
		addComm(&dst.ProcComm, &m.ProcComm)
		dst.Procs += m.Procs
	})
	st.Pairs = fold(st.Pairs, func(p PairState) uint64 { return uint64(pairKey(p.Src, p.Dst)) }, func(dst, p *PairState) {
		dst.SendMsgs += p.SendMsgs
		dst.SendBytes += p.SendBytes
		dst.RecvMsgs += p.RecvMsgs
		dst.RecvBytes += p.RecvBytes
		addSizes(&dst.Sizes, &p.Sizes)
	})
	b := appendCommHead(make([]byte, 0, outSize(payloads)), &st.Totals)
	b = appendProcTable(b, len(st.Procs), func(b []byte) []byte {
		var prev analysis.ProcComm
		for i := range st.Procs {
			b, prev = appendCommRow(b, &prev, &st.Procs[i]), st.Procs[i]
		}
		return b
	})
	b = appendTable(b, len(st.Machines), func(b []byte, i int) []byte { return appendMachineComm(b, &st.Machines[i]) })
	return appendTable(b, len(st.Pairs), func(b []byte, i int) []byte {
		p := &st.Pairs[i]
		return appendPairRow(b, p.Src, p.Dst, p.SendMsgs, p.SendBytes, p.RecvMsgs, p.RecvBytes, &p.Sizes)
	}), nil
}

// mergeParPayload unions the open rows by key and adds the machine
// rows and the curves: the merged section is swept to the end of time,
// and its histogram is each payload's own curve, summed.
func mergeParPayload(payloads ...[]byte) ([]byte, error) {
	m := mergeFree.Get().(*merging)
	defer mergeFree.Put(m)
	st := &m.par
	*st = ParState{Machines: st.Machines[:0], Procs: st.Procs[:0]}
	hist := map[int]int64{}
	for _, data := range payloads {
		machines, procs := len(st.Machines), len(st.Procs)
		m.starts, m.end = m.starts[:0], m.end[:0]
		if err := readPar(data, st, func(int) {}, func(iv ProcInterval) {
			st.Procs, m.starts, m.end = append(st.Procs, iv), append(m.starts, iv.First), append(m.end, iv.Last)
		}); err != nil {
			return nil, err
		}
		own := ParState{Machines: st.Machines[machines:], Swept: st.Swept, Procs: st.Procs[procs:]}
		for k, ms := range own.curve(m.starts, m.end, 0).Histogram {
			hist[k] += ms
		}
	}
	st.Swept = &Swept{Horizon: math.MaxInt64, Hist: hist}
	st.Machines = fold(st.Machines, func(m MachinePar) uint64 { return uint64(m.Machine) }, addMachinePar)
	st.Procs = fold(st.Procs, func(p ProcInterval) uint64 { return procKey(p.Machine, p.PID) }, func(dst, p *ProcInterval) {
		dst.First, dst.Last = min(dst.First, p.First), max(dst.Last, p.Last)
		dst.MaxCPU, dst.Terminated = max(dst.MaxCPU, p.MaxCPU), dst.Terminated || p.Terminated
	})
	return appendParState(make([]byte, 0, outSize(payloads)+16*len(hist)), st), nil
}

// mergeMatchPayload adds live.match payloads' counters.
func mergeMatchPayload(payloads ...[]byte) ([]byte, error) {
	var sum MatchState
	for _, data := range payloads {
		st, err := readMatch(data)
		if err != nil {
			return nil, err
		}
		sum.Conns += st.Conns
		sum.StreamMatched += st.StreamMatched
		sum.DgramMatched += st.DgramMatched
		sum.AgedOut += st.AgedOut
		sum.Pending += st.Pending
	}
	return appendMatch(make([]byte, 0, 40), &sum), nil
}

// ---- rendering ----

// renderMaxPairs bounds the matrix rows a report prints; the full
// matrix stays in the section.
const renderMaxPairs = 16

func machLabel(m uint16) string {
	if m == UnknownMachine {
		return "?"
	}
	return fmt.Sprintf("m%d", m)
}

func renderComm(b []byte, s obs.Section) []byte {
	if s.Version != SectionVersion {
		return fmt.Appendf(b, "live communication: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
	}
	// A matrix row is all the report prints of a pair.
	type cell struct {
		src, dst                                 uint16
		sendMsgs, sendBytes, recvMsgs, recvBytes int64
	}
	var cells [renderMaxPairs]cell // a large matrix spills to the heap
	pairs := cells[:0]
	var st CommState
	nprocs, err := decodeComm(s.Data, &st, false, func(p PairState) {
		pairs = append(pairs, cell{p.Src, p.Dst, p.SendMsgs, p.SendBytes, p.RecvMsgs, p.RecvBytes})
	})
	if err != nil {
		return fmt.Appendf(b, "live communication: %v\n", err)
	}
	b = fmt.Appendf(b, "live communication: %d events, %d procs, sends %d (%d B), recvs %d (%d B)\n",
		st.Events, nprocs, st.Sends, st.BytesSent, st.Recvs, st.BytesRecvd)
	if st.SizeHist != ([analysis.NumSizeBuckets]int64{}) {
		b = append(b, "  send sizes:"...)
		for k, n := range st.SizeHist {
			if n != 0 {
				b = fmt.Appendf(b, " <=2^%d:%d", k, n)
			}
		}
		b = append(b, '\n')
	}
	if len(pairs) == 0 {
		return b
	}
	slices.SortFunc(pairs, func(x, y cell) int {
		return cmp.Or(cmp.Compare(y.sendBytes, x.sendBytes), cmp.Compare(pairKey(x.src, x.dst), pairKey(y.src, y.dst)))
	})
	b = fmt.Appendf(b, "  matrix %-12s %22s %22s\n", "(src->dst)", "sent msgs/bytes", "recvd msgs/bytes")
	shown := pairs[:min(len(pairs), renderMaxPairs)]
	for _, p := range shown {
		b = fmt.Appendf(b, "  %-19s %15d/%-10d %11d/%-10d\n",
			machLabel(p.src)+"->"+machLabel(p.dst), p.sendMsgs, p.sendBytes, p.recvMsgs, p.recvBytes)
	}
	if n := len(pairs) - len(shown); n > 0 {
		b = fmt.Appendf(b, "  ... and %d more pairs\n", n)
	}
	return b
}

// renderPar reads the rows straight into analysis.Sweep's start and end
// arrays; no interval table is built. Past one collector, each level's
// time is the collectors' own times at that level, summed (see
// mergeParPayload).
func renderPar(b []byte, s obs.Section) []byte {
	if s.Version != SectionVersion {
		return fmt.Appendf(b, "live parallelism: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
	}
	var st ParState
	var starts, ends []int64
	var cpu int64
	running := 0
	err := readPar(s.Data, &st, func(n int) {
		times := make([]int64, 2*n)
		starts, ends = times[:0:n], times[n:n]
	}, func(iv ProcInterval) {
		starts, ends = append(starts, iv.First), append(ends, iv.Last)
		cpu += iv.MaxCPU
		if !iv.Terminated {
			running++
		}
	})
	if err != nil {
		return fmt.Appendf(b, "live parallelism: %v\n", err)
	}
	curve := st.curve(starts, ends, cpu)
	b = fmt.Appendf(b, "live parallelism: %d procs (%d running), cpu %d ms over %d ms, speedup %.2f\n",
		curve.Processes, running, curve.TotalCPUMillis, curve.MakespanMillis, curve.Speedup)
	if len(curve.Histogram) > 0 {
		ks := make([]int, 0, len(curve.Histogram))
		for k := range curve.Histogram {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		b = append(b, "  concurrency:"...)
		for _, k := range ks {
			b = fmt.Appendf(b, " %dx:%dms", k, curve.Histogram[k])
		}
		b = append(b, '\n')
	}
	return b
}

func renderMatch(b []byte, s obs.Section) []byte {
	if s.Version != SectionVersion {
		return fmt.Appendf(b, "live matching: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
	}
	st, err := readMatch(s.Data)
	if err != nil {
		return fmt.Appendf(b, "live matching: %v\n", err)
	}
	return fmt.Appendf(b, "live matching: %d conns, stream %d, dgram %d, aged out %d, pending %d\n",
		st.Conns, st.StreamMatched, st.DgramMatched, st.AgedOut, st.Pending)
}
