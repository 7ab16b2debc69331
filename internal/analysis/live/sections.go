package live

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"dpm/internal/analysis"
	"dpm/internal/filter"
	"dpm/internal/obs"
)

// Snapshot section names and the shared payload version. Payloads are
// little-endian fields and varints, bounds-checked on decode, and merge
// by key-wise summation (comm), interval union (par), and counter
// addition (match) — all associative and commutative, the contract
// obs.SectionMerger requires. A decoder rejects corrupt bytes with
// ErrBadSection; the obs merge then degrades to carrying both inputs
// instead of dropping state.
const (
	SectionComm  = "live.comm"
	SectionPar   = "live.par"
	SectionMatch = "live.match"
	// SectionVersion is the payload version this package writes. A
	// section arriving with a different version is left unmerged and
	// unrendered (carried opaquely), so mixed-version clusters degrade
	// instead of misparsing.
	SectionVersion = 2
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

// UnknownMachine is the matrix id for an unresolvable peer.
const UnknownMachine = unknownMachine

// CommState is the decoded live.comm section: the fold's statistics,
// as analysis.Comm computes them over a trace, and the matrix.
type CommState struct {
	analysis.CommStats
	Pairs []PairState
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

// ParState is the decoded live.par section.
type ParState struct {
	Procs []ProcInterval
}

// MatchState is the decoded live.match section.
type MatchState struct {
	Conns         int64
	StreamMatched int64
	DgramMatched  int64
	AgedOut       int64
	Pending       int64
}

// Curve derives the parallelism profile from the merged intervals
// through analysis.Sweep, as analysis.MeasureParallelism does over a
// trace.
func (p *ParState) Curve() *analysis.Parallelism {
	times := make([]int64, 2*len(p.Procs))
	starts, ends := times[:len(p.Procs)], times[len(p.Procs):]
	var cpu int64
	for i := range p.Procs {
		cpu += p.Procs[i].MaxCPU
		starts[i], ends[i] = p.Procs[i].First, p.Procs[i].Last
	}
	return analysis.Sweep(starts, ends, cpu)
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
// at least a byte each, a pair row has an empty size histogram.
const (
	minCommRowSize = 8
	minParRowSize  = 4
	minPairRowSize = 2 + 2 + 4*8 + 2
)

// The live.comm payload, version 2 — procs in (machine, pid) order,
// pairs in (src, dst) order, empty size buckets left out:
//
//	i64 events, sends, recvs, bytesSent, bytesRecvd,
//	u16 n sizes × (u8 bucket, i64 count),
//	u32 n procs, u32 bytes of the process rows that follow,
//	n procs × (uvarint key − previous row's key,
//	           zigzag varint sends, recvs, recvCalls, sockets, forks,
//	                         bytesSent, bytesRecvd),
//	u32 n pairs × (u16 src, u16 dst, i64 sendMsgs, sendBytes,
//	               recvMsgs, recvBytes, u16 n sizes × (u8, i64)).
//
// A process's key is procKey(machine, pid), and the first row's
// distance is from key 0. Version-1 payloads, whose rows were
// fixed-width, are refused, not read.
//
// The live.par payload, version 2, rows in (machine, pid) order:
//
//	u32 n procs × (uvarint (key − previous row's key)<<1 | terminated,
//	               zigzag varint first − previous row's first,
//	               zigzag varint last − first, zigzag varint maxCPU),
//
// the first row's distances taken from key 0 and time 0.
//
// Each table has one row writer (appendCommRow, appendParRow) and one
// row reader (readCommRow, readParRow) that captures, the encoders of
// merged state, the mergers and the renderers all go through.
// Differences wrap as int64s, so any decoded state re-encodes to itself.

// maxProcKey is the largest key procKey makes: a decoded row whose
// distance passes it is corrupt.
const maxProcKey = 1<<48 - 1

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// appendCommRow appends p's live.comm row after the row prev.
func appendCommRow(b []byte, prev, p *analysis.ProcComm) []byte {
	return appendVarints(b, procKey(p.Machine, p.PID)-procKey(prev.Machine, prev.PID),
		zigzag(p.Sends), zigzag(p.Recvs), zigzag(p.RecvCalls), zigzag(p.Sockets),
		zigzag(p.Forks), zigzag(p.BytesSent), zigzag(p.BytesRecvd))
}

// readCommRow reads the row appendCommRow wrote after prev.
func readCommRow(r *obs.Cursor, prev *analysis.ProcComm) analysis.ProcComm {
	var p analysis.ProcComm
	p.Machine, p.PID = readKey(r, procKey(prev.Machine, prev.PID), r.Uvarint())
	p.Sends, p.Recvs, p.RecvCalls = unzigzag(r.Uvarint()), unzigzag(r.Uvarint()), unzigzag(r.Uvarint())
	p.Sockets, p.Forks = unzigzag(r.Uvarint()), unzigzag(r.Uvarint())
	p.BytesSent, p.BytesRecvd = unzigzag(r.Uvarint()), unzigzag(r.Uvarint())
	return p
}

// appendParRow appends p's live.par row after the row prev.
func appendParRow(b []byte, prev, p *ProcInterval) []byte {
	d := procKey(p.Machine, p.PID) - procKey(prev.Machine, prev.PID)
	if p.Terminated {
		d = d<<1 | 1
	} else {
		d <<= 1
	}
	return appendVarints(b, d, zigzag(p.First-prev.First), zigzag(p.Last-p.First), zigzag(p.MaxCPU))
}

// readParRow reads the row appendParRow wrote after prev.
func readParRow(r *obs.Cursor, prev *ProcInterval) ProcInterval {
	d := r.Uvarint()
	iv := ProcInterval{Terminated: d&1 != 0}
	iv.Machine, iv.PID = readKey(r, procKey(prev.Machine, prev.PID), d>>1)
	iv.First = prev.First + unzigzag(r.Uvarint())
	iv.Last = iv.First + unzigzag(r.Uvarint())
	iv.MaxCPU = unzigzag(r.Uvarint())
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
	keys := make([]uint32, 0, len(c.pairs))
	for k := range c.pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		p := c.pairs[k]
		b = appendPairRow(b, p.src, p.dst, p.sendMsgs, p.sendBytes, p.recvMsgs, p.recvBytes, &p.sizes)
	}
	return c.keep(b)
}

// encodeCommState encodes a decoded (merged) state, putting its rows
// in order first.
func encodeCommState(st *CommState) []byte {
	b := make([]byte, 0, 64+minCommRowSize*len(st.Procs)+80*len(st.Pairs))
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
	slices.SortStableFunc(st.Pairs, cmpPairKey)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Pairs)))
	for i := range st.Pairs {
		p := &st.Pairs[i]
		b = appendPairRow(b, p.Src, p.Dst, p.SendMsgs, p.SendBytes, p.RecvMsgs, p.RecvBytes, &p.Sizes)
	}
	return b
}

func cmpPairKey(x, y PairState) int {
	return cmp.Compare(pairKey(x.Src, x.Dst), pairKey(y.Src, y.Dst))
}

// DecodeComm parses a live.comm payload.
func DecodeComm(data []byte) (*CommState, error) {
	st, _, err := decodeComm(data, true)
	return st, err
}

// decodeComm parses a live.comm payload and reports how many process
// rows it carries. With procs false the rows — most of a large payload —
// are stepped over by their byte length, not read (renderComm counts
// them).
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
	b := binary.LittleEndian.AppendUint32(c.scratch[:0], uint32(len(cells)))
	var prev ProcInterval
	for _, pc := range cells {
		iv := interval(pc)
		b = appendParRow(b, &prev, &iv)
		prev = iv
	}
	return c.keep(b)
}

// readPar reads a live.par payload: size is told how many rows the
// payload's bytes can hold, then row is handed each row in turn. It is
// the one reader DecodePar and renderPar share, so the two refuse the
// same payloads.
func readPar(data []byte, size func(n int), row func(iv ProcInterval)) error {
	r := obs.NewCursor(data, ErrBadSection)
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
	err := readPar(data, func(n int) { st.Procs = make([]ProcInterval, 0, n) },
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
	m := &c.match
	return appendMatch(m.conns, m.tStream+m.dStream, m.tDgram+m.dDgram, m.tAged+m.dAged, int64(m.pending))
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
		func(p *analysis.ProcComm) uint64 { return procKey(p.Machine, p.PID) },
		func(dst, p *analysis.ProcComm) {
			dst.Sends += p.Sends
			dst.Recvs += p.Recvs
			dst.RecvCalls += p.RecvCalls
			dst.Sockets += p.Sockets
			dst.Forks += p.Forks
			dst.BytesSent += p.BytesSent
			dst.BytesRecvd += p.BytesRecvd
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

func mergeParPayload(a, b []byte) ([]byte, error) {
	sa, err := DecodePar(a)
	if err != nil {
		return nil, err
	}
	sb, err := DecodePar(b)
	if err != nil {
		return nil, err
	}
	procs := foldRows(sa.Procs, sb.Procs,
		func(p *ProcInterval) uint64 { return procKey(p.Machine, p.PID) },
		func(dst, p *ProcInterval) {
			dst.First = min(dst.First, p.First)
			dst.Last = max(dst.Last, p.Last)
			dst.MaxCPU = max(dst.MaxCPU, p.MaxCPU)
			dst.Terminated = dst.Terminated || p.Terminated
		})
	return encodeParState(procs), nil
}

// encodeParState encodes decoded (merged) intervals, putting them in
// order first.
func encodeParState(procs []ProcInterval) []byte {
	slices.SortStableFunc(procs, func(x, y ProcInterval) int {
		return cmp.Compare(procKey(x.Machine, x.PID), procKey(y.Machine, y.PID))
	})
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+2*minParRowSize*len(procs)), uint32(len(procs)))
	var prev ProcInterval
	for i := range procs {
		b = appendParRow(b, &prev, &procs[i])
		prev = procs[i]
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
	if m == unknownMachine {
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
// arrays; no interval table is built.
func renderPar(w io.Writer, s *obs.Section) {
	if s.Version != SectionVersion {
		fmt.Fprintf(w, "live parallelism: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
		return
	}
	var starts, ends []int64
	var cpu int64
	running := 0
	err := readPar(s.Data, func(n int) {
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
	curve := analysis.Sweep(starts, ends, cpu)
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
