package live

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

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
	p.Sends, p.Recvs, p.RecvCalls = obs.Unzigzag(r.Uvarint()), obs.Unzigzag(r.Uvarint()), obs.Unzigzag(r.Uvarint())
	p.Sockets, p.Forks = obs.Unzigzag(r.Uvarint()), obs.Unzigzag(r.Uvarint())
	p.BytesSent, p.BytesRecvd = obs.Unzigzag(r.Uvarint()), obs.Unzigzag(r.Uvarint())
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
	m := MachineComm{ProcComm: analysis.ProcComm{Machine: r.U16()}, Procs: obs.Unzigzag(r.Uvarint())}
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
	m := MachinePar{Machine: r.U16(), Procs: obs.Unzigzag(r.Uvarint()), CPU: obs.Unzigzag(r.Uvarint()), First: obs.Unzigzag(r.Uvarint())}
	m.Last = m.First + obs.Unzigzag(r.Uvarint())
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

// readMachines reads a table of machine rows, each at least size bytes,
// in strictly ascending machine order.
func readMachines[T any](r *obs.Cursor, size int, row func(*obs.Cursor) T, machine func(*T) uint16) []T {
	n := int(count(r))
	if n > r.Remaining()/size {
		r.Fail("%d machine rows in %d bytes", n, r.Remaining())
		return nil
	}
	out := make([]T, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		m := row(r)
		if i > 0 && machine(&m) <= machine(&out[i-1]) {
			r.Fail("machine %d after %d", machine(&m), machine(&out[i-1]))
		}
		out = append(out, m)
	}
	return out
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
	sw := &Swept{Horizon: obs.Unzigzag(r.Uvarint())}
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
	iv.First = prev.First + obs.Unzigzag(r.Uvarint())
	iv.Last = iv.First + obs.Unzigzag(r.Uvarint())
	iv.MaxCPU = obs.Unzigzag(r.Uvarint())
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

func appendCommHead(b []byte, t *analysis.Totals) []byte {
	return appendSizes(appendI64s(b, t.Events, t.Sends, t.Recvs, t.BytesSent, t.BytesRecvd), &t.SizeHist)
}

// appendProcTable appends live.comm's process table of n rows, which
// rows appends, behind the count and the byte length.
func appendProcTable(b []byte, n int, rows func([]byte) []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(n))
	at := len(b)
	b = rows(le.AppendUint32(b, 0))
	le.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

func appendPairRow(b []byte, src, dst uint16, sendMsgs, sendBytes, recvMsgs, recvBytes int64, sizes *[analysis.NumSizeBuckets]int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, src)
	b = binary.LittleEndian.AppendUint16(b, dst)
	return appendSizes(appendI64s(b, sendMsgs, sendBytes, recvMsgs, recvBytes), sizes)
}

// keep makes b the scratch buffer the next capture encodes into and
// returns a copy of it at its encoded length. A capture is encoded in
// one pass over cells that lie all over the heap, and copied in one
// move. The caller holds c.mu.
func (c *Collector) keep(b []byte) []byte {
	c.scratch = b
	return append(make([]byte, 0, len(b)), b...)
}

// captureComm encodes the collector's live.comm payload.
func (c *Collector) captureComm() []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.orderCells()
	b := appendCommHead(c.scratch[:0], &c.totals)
	b = appendProcTable(b, len(cells), func(b []byte) []byte {
		var prev analysis.ProcComm
		for _, pc := range cells {
			b = appendCommRow(b, &prev, &pc.ProcComm)
			prev = pc.ProcComm
		}
		return b
	})
	b = appendTable(b, len(c.retired), func(b []byte, i int) []byte { return appendMachineComm(b, &c.retired[i].comm) })
	keys := make([]uint32, 0, len(c.pairs))
	for k := range c.pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = appendTable(b, len(keys), func(b []byte, i int) []byte {
		p := c.pairs[keys[i]]
		return appendPairRow(b, p.src, p.dst, p.sendMsgs, p.sendBytes, p.recvMsgs, p.recvBytes, &p.sizes)
	})
	return c.keep(b)
}

// encodeCommState encodes a decoded (merged) state, putting its rows
// in order first.
func encodeCommState(st *CommState) []byte {
	b := make([]byte, 0, 64+minCommRowSize*len(st.Procs)+32*len(st.Machines)+80*len(st.Pairs))
	b = appendCommHead(b, &st.Totals)
	slices.SortStableFunc(st.Procs, func(x, y analysis.ProcComm) int {
		return cmp.Compare(procKey(x.Machine, x.PID), procKey(y.Machine, y.PID))
	})
	b = appendProcTable(b, len(st.Procs), func(b []byte) []byte {
		var prev analysis.ProcComm
		for i := range st.Procs {
			b = appendCommRow(b, &prev, &st.Procs[i])
			prev = st.Procs[i]
		}
		return b
	})
	slices.SortStableFunc(st.Machines, func(x, y MachineComm) int { return cmp.Compare(x.Machine, y.Machine) })
	b = appendTable(b, len(st.Machines), func(b []byte, i int) []byte { return appendMachineComm(b, &st.Machines[i]) })
	slices.SortStableFunc(st.Pairs, cmpPairKey)
	return appendTable(b, len(st.Pairs), func(b []byte, i int) []byte {
		p := &st.Pairs[i]
		return appendPairRow(b, p.Src, p.Dst, p.SendMsgs, p.SendBytes, p.RecvMsgs, p.RecvBytes, &p.Sizes)
	})
}

func cmpPairKey(x, y PairState) int {
	return cmp.Compare(pairKey(x.Src, x.Dst), pairKey(y.Src, y.Dst))
}

// DecodeComm parses a live.comm payload.
func DecodeComm(data []byte) (*CommState, error) {
	st, _, err := decodeComm(data, true)
	return st, err
}

// decodeComm parses a live.comm payload and reports how many processes
// it counts: its open rows and the processes its machine rows sum. With
// procs false the open rows — most of a large payload — are stepped
// over by their byte length, not read (renderComm counts them).
func decodeComm(data []byte, procs bool) (*CommState, int, error) {
	r := obs.NewCursor(data, ErrBadSection)
	st := &CommState{}
	t := &st.Totals
	t.Events, t.Sends, t.Recvs, t.BytesSent, t.BytesRecvd = r.I64(), r.I64(), r.I64(), r.I64(), r.I64()
	readSizes(&r, &t.SizeHist)
	np := int(count(&r))
	rows := r.Take(int(r.U32()))
	if np > len(rows)/minCommRowSize {
		r.Fail("%d process rows in %d bytes", np, len(rows))
	}
	if procs && r.Err() == nil {
		pr := obs.NewCursor(rows, ErrBadSection)
		st.Procs = make([]analysis.ProcComm, 0, np)
		var prev analysis.ProcComm
		for i := 0; i < np && pr.Err() == nil; i++ {
			prev = readCommRow(&pr, &prev)
			st.Procs = append(st.Procs, prev)
		}
		if pr.Err() == nil && pr.Remaining() != 0 {
			pr.Fail("%d bytes after the process rows", pr.Remaining())
		}
		if pr.Err() != nil {
			return nil, 0, pr.Err()
		}
	}
	st.Machines = readMachines(&r, minMachCommSize, readMachineComm, func(m *MachineComm) uint16 { return m.Machine })
	for i := range st.Machines {
		np += int(st.Machines[i].Procs)
	}
	npairs := int(count(&r))
	st.Pairs = make([]PairState, 0, min(npairs, r.Remaining()/minPairRowSize))
	for i := 0; i < npairs && r.Err() == nil; i++ {
		p := PairState{Src: r.U16(), Dst: r.U16()}
		p.SendMsgs, p.SendBytes = r.I64(), r.I64()
		p.RecvMsgs, p.RecvBytes = r.I64(), r.I64()
		readSizes(&r, &p.Sizes)
		if r.Err() == nil {
			st.Pairs = append(st.Pairs, p)
		}
	}
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	return st, np, nil
}

// capturePar encodes the collector's live.par payload.
func (c *Collector) capturePar() []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.orderCells()
	var sw *Swept
	if c.horizon != math.MinInt64 {
		sw = &Swept{Horizon: c.horizon, Hist: c.hist}
	}
	b := appendSwept(c.scratch[:0], sw)
	b = appendTable(b, len(c.retired), func(b []byte, i int) []byte { return appendMachinePar(b, &c.retired[i].par) })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cells)))
	var prev ProcInterval
	for _, pc := range cells {
		iv := interval(pc)
		b = appendParRow(b, &prev, &iv)
		prev = iv
	}
	return c.keep(b)
}

// readPar reads a live.par payload: the swept curve and the machine
// rows into st, then size is told how many process rows the payload's
// bytes can hold, and row is handed each in turn. It is the one reader
// DecodePar and renderPar share, so the two refuse the same payloads.
func readPar(data []byte, st *ParState, size func(n int), row func(iv ProcInterval)) error {
	r := obs.NewCursor(data, ErrBadSection)
	st.Swept = readSwept(&r)
	st.Machines = readMachines(&r, minMachParSize, readMachinePar, func(m *MachinePar) uint16 { return m.Machine })
	n := int(count(&r))
	size(min(n, r.Remaining()/minParRowSize))
	var prev ProcInterval
	for i := 0; i < n && r.Err() == nil; i++ {
		if iv := readParRow(&r, &prev); r.Err() == nil {
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
func appendMatch(conns, stream, dgram, aged, pending int64) []byte {
	return appendI64s(make([]byte, 0, 40), conns, stream, dgram, aged, pending)
}

// captureMatch encodes the collector's live.match payload.
func (c *Collector) captureMatch() []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &c.match.MatchCounts
	return appendMatch(m.Conns, m.Stream, m.Dgram, m.Aged, m.Pending)
}

// DecodeMatch parses a live.match payload.
func DecodeMatch(data []byte) (*MatchState, error) {
	r := obs.NewCursor(data, ErrBadSection)
	st := &MatchState{
		Conns:         r.I64(),
		StreamMatched: r.I64(),
		DgramMatched:  r.I64(),
		AgedOut:       r.I64(),
		Pending:       r.I64(),
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return st, nil
}

// ---- merging ----

// foldRows folds b's rows into a's by key — a row whose key a already
// holds is combined into it, the others are appended — which is how
// every keyed table of a section merges.
func foldRows[T any](a, b []T, key func(*T) uint64, combine func(dst, src *T)) []T {
	byKey := make(map[uint64]*T, len(a)+len(b))
	for i := range a {
		byKey[key(&a[i])] = &a[i]
	}
	var extra []T
	for i := range b {
		if dst, ok := byKey[key(&b[i])]; ok {
			combine(dst, &b[i])
		} else {
			extra = append(extra, b[i])
		}
	}
	return append(a, extra...)
}

// addSizes adds the src histogram into dst.
func addSizes(dst, src *[analysis.NumSizeBuckets]int64) {
	for i, v := range src {
		dst[i] += v
	}
}

func mergeCommPayload(a, b []byte) ([]byte, error) {
	sa, err := DecodeComm(a)
	if err != nil {
		return nil, err
	}
	sb, err := DecodeComm(b)
	if err != nil {
		return nil, err
	}
	sa.Events += sb.Events
	sa.Sends += sb.Sends
	sa.Recvs += sb.Recvs
	sa.BytesSent += sb.BytesSent
	sa.BytesRecvd += sb.BytesRecvd
	addSizes(&sa.SizeHist, &sb.SizeHist)
	sa.Procs = foldRows(sa.Procs, sb.Procs,
		func(p *analysis.ProcComm) uint64 { return procKey(p.Machine, p.PID) }, addComm)
	sa.Machines = foldRows(sa.Machines, sb.Machines,
		func(m *MachineComm) uint64 { return uint64(m.Machine) },
		func(dst, m *MachineComm) {
			addComm(&dst.ProcComm, &m.ProcComm)
			dst.Procs += m.Procs
		})
	sa.Pairs = foldRows(sa.Pairs, sb.Pairs,
		func(p *PairState) uint64 { return uint64(pairKey(p.Src, p.Dst)) },
		func(dst, p *PairState) {
			dst.SendMsgs += p.SendMsgs
			dst.SendBytes += p.SendBytes
			dst.RecvMsgs += p.RecvMsgs
			dst.RecvBytes += p.RecvBytes
			addSizes(&dst.Sizes, &p.Sizes)
		})
	return encodeCommState(sa), nil
}

// mergeParPayload unions the open rows by key and adds the machine
// rows and the two curves: the merged section is swept to the end of
// time, and its histogram is each collector's own curve, summed.
func mergeParPayload(a, b []byte) ([]byte, error) {
	sa, err := DecodePar(a)
	if err != nil {
		return nil, err
	}
	sb, err := DecodePar(b)
	if err != nil {
		return nil, err
	}
	hist := sa.Curve().Histogram
	for k, ms := range sb.Curve().Histogram {
		hist[k] += ms
	}
	sa.Swept = &Swept{Horizon: math.MaxInt64, Hist: hist}
	sa.Machines = foldRows(sa.Machines, sb.Machines, func(m *MachinePar) uint64 { return uint64(m.Machine) }, addMachinePar)
	sa.Procs = foldRows(sa.Procs, sb.Procs,
		func(p *ProcInterval) uint64 { return procKey(p.Machine, p.PID) },
		func(dst, p *ProcInterval) {
			dst.First = min(dst.First, p.First)
			dst.Last = max(dst.Last, p.Last)
			dst.MaxCPU = max(dst.MaxCPU, p.MaxCPU)
			dst.Terminated = dst.Terminated || p.Terminated
		})
	return encodeParState(sa), nil
}

// encodeParState encodes a decoded (merged) state, putting its rows in
// order first.
func encodeParState(st *ParState) []byte {
	slices.SortStableFunc(st.Machines, func(x, y MachinePar) int { return cmp.Compare(x.Machine, y.Machine) })
	slices.SortStableFunc(st.Procs, func(x, y ProcInterval) int {
		return cmp.Compare(procKey(x.Machine, x.PID), procKey(y.Machine, y.PID))
	})
	b := appendSwept(make([]byte, 0, 64+32*len(st.Machines)+2*minParRowSize*len(st.Procs)), st.Swept)
	b = appendTable(b, len(st.Machines), func(b []byte, i int) []byte { return appendMachinePar(b, &st.Machines[i]) })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Procs)))
	var prev ProcInterval
	for i := range st.Procs {
		b = appendParRow(b, &prev, &st.Procs[i])
		prev = st.Procs[i]
	}
	return b
}

func mergeMatchPayload(a, b []byte) ([]byte, error) {
	sa, err := DecodeMatch(a)
	if err != nil {
		return nil, err
	}
	sb, err := DecodeMatch(b)
	if err != nil {
		return nil, err
	}
	return appendMatch(sa.Conns+sb.Conns, sa.StreamMatched+sb.StreamMatched, sa.DgramMatched+sb.DgramMatched,
		sa.AgedOut+sb.AgedOut, sa.Pending+sb.Pending), nil
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

func renderComm(w io.Writer, s *obs.Section) {
	if s.Version != SectionVersion {
		fmt.Fprintf(w, "live communication: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
		return
	}
	st, nprocs, err := decodeComm(s.Data, false)
	if err != nil {
		fmt.Fprintf(w, "live communication: %v\n", err)
		return
	}
	fmt.Fprintf(w, "live communication: %d events, %d procs, sends %d (%d B), recvs %d (%d B)\n",
		st.Events, nprocs, st.Sends, st.BytesSent, st.Recvs, st.BytesRecvd)
	if st.SizeHist != ([analysis.NumSizeBuckets]int64{}) {
		fmt.Fprintf(w, "  send sizes:")
		for k, n := range st.SizeHist {
			if n != 0 {
				fmt.Fprintf(w, " <=2^%d:%d", k, n)
			}
		}
		fmt.Fprintf(w, "\n")
	}
	if len(st.Pairs) == 0 {
		return
	}
	pairs := st.Pairs
	slices.SortFunc(pairs, func(x, y PairState) int {
		if x.SendBytes != y.SendBytes {
			return cmp.Compare(y.SendBytes, x.SendBytes)
		}
		return cmpPairKey(x, y)
	})
	fmt.Fprintf(w, "  matrix %-12s %22s %22s\n", "(src->dst)", "sent msgs/bytes", "recvd msgs/bytes")
	shown := pairs
	if len(shown) > renderMaxPairs {
		shown = shown[:renderMaxPairs]
	}
	for i := range shown {
		p := &shown[i]
		fmt.Fprintf(w, "  %-19s %15d/%-10d %11d/%-10d\n",
			machLabel(p.Src)+"->"+machLabel(p.Dst), p.SendMsgs, p.SendBytes, p.RecvMsgs, p.RecvBytes)
	}
	if n := len(pairs) - len(shown); n > 0 {
		fmt.Fprintf(w, "  ... and %d more pairs\n", n)
	}
}

// renderPar reads the rows straight into analysis.Sweep's start and end
// arrays; no interval table is built. Past one collector, each level's
// time is the collectors' own times at that level, summed (see
// mergeParPayload).
func renderPar(w io.Writer, s *obs.Section) {
	if s.Version != SectionVersion {
		fmt.Fprintf(w, "live parallelism: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
		return
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
		fmt.Fprintf(w, "live parallelism: %v\n", err)
		return
	}
	curve := st.curve(starts, ends, cpu)
	fmt.Fprintf(w, "live parallelism: %d procs (%d running), cpu %d ms over %d ms, speedup %.2f\n",
		curve.Processes, running, curve.TotalCPUMillis, curve.MakespanMillis, curve.Speedup)
	if len(curve.Histogram) > 0 {
		ks := make([]int, 0, len(curve.Histogram))
		for k := range curve.Histogram {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		fmt.Fprintf(w, "  concurrency:")
		for _, k := range ks {
			fmt.Fprintf(w, " %dx:%dms", k, curve.Histogram[k])
		}
		fmt.Fprintf(w, "\n")
	}
}

func renderMatch(w io.Writer, s *obs.Section) {
	if s.Version != SectionVersion {
		fmt.Fprintf(w, "live matching: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
		return
	}
	st, err := DecodeMatch(s.Data)
	if err != nil {
		fmt.Fprintf(w, "live matching: %v\n", err)
		return
	}
	fmt.Fprintf(w, "live matching: %d conns, stream %d, dgram %d, aged out %d, pending %d\n",
		st.Conns, st.StreamMatched, st.DgramMatched, st.AgedOut, st.Pending)
}
