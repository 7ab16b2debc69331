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
// little-endian, bounds-checked on decode, and merge by key-wise
// summation (comm), interval union (par), and counter addition
// (match) — all associative and commutative, the contract
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
	SectionVersion = 1
)

// ErrBadSection reports an undecodable live-analysis payload.
var ErrBadSection = errors.New("live: corrupt section")

// maxSectionEntries bounds decoded tables against corrupt counts.
const maxSectionEntries = 1 << 20

func init() {
	obs.RegisterSectionMerger(SectionComm, mergeCommPayload)
	obs.RegisterSectionMerger(SectionPar, mergeParPayload)
	obs.RegisterSectionMerger(SectionMatch, mergeMatchPayload)
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

// ProcCommState is one process's row of the decoded communication
// state.
type ProcCommState struct {
	Machine    uint16
	PID        uint32
	Sends      int64
	Recvs      int64
	RecvCalls  int64
	Sockets    int64
	Forks      int64
	BytesSent  int64
	BytesRecvd int64
}

// PairState is one (src,dst) cell of the decoded matrix. Dst or Src
// equal to UnknownMachine mark unresolved peers.
type PairState struct {
	Src, Dst  uint16
	SendMsgs  int64
	SendBytes int64
	RecvMsgs  int64
	RecvBytes int64
	Sizes     map[int]int64
}

// UnknownMachine is the matrix id for an unresolvable peer.
const UnknownMachine = unknownMachine

// CommState is the decoded live.comm section.
type CommState struct {
	Events     int64
	Sends      int64
	Recvs      int64
	BytesSent  int64
	BytesRecvd int64
	Sizes      map[int]int64
	Procs      []ProcCommState
	Pairs      []PairState
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

// Curve derives the parallelism profile from the merged intervals —
// the same computation analysis.MeasureParallelism runs over a trace,
// so on a completed stream the two agree exactly. The sweep visits
// interval starts and ends in time order, starts before ends at equal
// times; the two kinds are sorted apart as plain integers and walked
// with two cursors, which visits them in exactly that order.
func (p *ParState) Curve() *analysis.Parallelism {
	out := &analysis.Parallelism{Histogram: make(map[int]int64)}
	if len(p.Procs) == 0 {
		return out
	}
	out.Processes = len(p.Procs)
	times := make([]int64, 2*len(p.Procs))
	starts, ends := times[:len(p.Procs)], times[len(p.Procs):]
	for i := range p.Procs {
		out.TotalCPUMillis += p.Procs[i].MaxCPU
		starts[i], ends[i] = p.Procs[i].First, p.Procs[i].Last
	}
	slices.Sort(starts)
	slices.Sort(ends)
	out.MakespanMillis = ends[len(ends)-1] - starts[0]
	if out.MakespanMillis > 0 {
		out.Speedup = float64(out.TotalCPUMillis) / float64(out.MakespanMillis)
	}
	level := 0
	prev := int64(-1)
	for i, j := 0, 0; j < len(ends); {
		t, delta := ends[j], -1
		if i < len(starts) && starts[i] <= t {
			t, delta = starts[i], +1
			i++
		} else {
			j++
		}
		if prev >= 0 && t > prev && level > 0 {
			out.Histogram[level] += t - prev
		}
		level += delta
		prev = t
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

// Row widths of the fixed-width tables, and the least a pair row takes.
const (
	procRowSize    = 2 + 4 + 7*8
	parRowSize     = 2 + 4 + 1 + 3*8
	minPairRowSize = 2 + 2 + 4*8 + 2
)

// The live.comm payload, written by appendCommHead, appendProcRow and
// appendPairRow for captures and merges alike — procs in (machine, pid)
// order, pairs in (src, dst) order, empty size buckets left out:
//
//	i64 events, sends, recvs, bytesSent, bytesRecvd,
//	u16 n sizes × (u8 bucket, i64 count),
//	u32 n procs × (u16 machine, u32 pid, i64 sends, recvs, recvCalls,
//	               sockets, forks, bytesSent, bytesRecvd),
//	u32 n pairs × (u16 src, u16 dst, i64 sendMsgs, sendBytes,
//	               recvMsgs, recvBytes, u16 n sizes × (u8, i64)).

func appendI64s(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendSizes(b []byte, sizes *[numSizeBuckets]int64) []byte {
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

// sizeArray is a decoded size histogram as the encoder takes it.
func sizeArray(sizes map[int]int64) *[numSizeBuckets]int64 {
	var out [numSizeBuckets]int64
	for k, v := range sizes {
		if k >= 0 && k < numSizeBuckets {
			out[k] = v
		}
	}
	return &out
}

func readSizes(r *obs.Cursor) map[int]int64 {
	n := int(r.U16())
	var out map[int]int64
	for i := 0; i < n && r.Err() == nil; i++ {
		bucket := int(r.U8())
		v := r.I64()
		if r.Err() == nil {
			if out == nil {
				out = make(map[int]int64, n)
			}
			out[bucket] += v
		}
	}
	return out
}

func appendCommHead(b []byte, events, sends, recvs, bytesSent, bytesRecvd int64, sizes *[numSizeBuckets]int64) []byte {
	return appendSizes(appendI64s(b, events, sends, recvs, bytesSent, bytesRecvd), sizes)
}

func appendProcRow(b []byte, machine uint16, pid uint32, sends, recvs, recvCalls, sockets, forks, bytesSent, bytesRecvd int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, machine)
	b = binary.LittleEndian.AppendUint32(b, pid)
	return appendI64s(b, sends, recvs, recvCalls, sockets, forks, bytesSent, bytesRecvd)
}

func appendPairRow(b []byte, src, dst uint16, sendMsgs, sendBytes, recvMsgs, recvBytes int64, sizes *[numSizeBuckets]int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, src)
	b = binary.LittleEndian.AppendUint16(b, dst)
	return appendSizes(appendI64s(b, sendMsgs, sendBytes, recvMsgs, recvBytes), sizes)
}

// captureComm encodes the collector's live.comm payload.
func (c *Collector) captureComm() []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.orderCells()
	b := make([]byte, 0, 64+procRowSize*len(cells)+80*len(c.pairs))
	b = appendCommHead(b, c.events, c.sends, c.recvs, c.bytesSent, c.bytesRecv, &c.sizes)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cells)))
	for _, pc := range cells {
		b = appendProcRow(b, pc.machine, pc.pid, pc.sends, pc.recvs, pc.recvCalls, pc.sockets, pc.forks, pc.bytesSent, pc.bytesRecvd)
	}
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
	return b
}

// encodeCommState encodes a decoded (merged) state, putting its rows
// in order first.
func encodeCommState(st *CommState) []byte {
	b := make([]byte, 0, 64+procRowSize*len(st.Procs)+80*len(st.Pairs))
	b = appendCommHead(b, st.Events, st.Sends, st.Recvs, st.BytesSent, st.BytesRecvd, sizeArray(st.Sizes))
	slices.SortFunc(st.Procs, func(x, y ProcCommState) int {
		return cmp.Compare(procKey(x.Machine, x.PID), procKey(y.Machine, y.PID))
	})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Procs)))
	for i := range st.Procs {
		p := &st.Procs[i]
		b = appendProcRow(b, p.Machine, p.PID, p.Sends, p.Recvs, p.RecvCalls, p.Sockets, p.Forks, p.BytesSent, p.BytesRecvd)
	}
	slices.SortFunc(st.Pairs, cmpPairKey)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Pairs)))
	for i := range st.Pairs {
		p := &st.Pairs[i]
		b = appendPairRow(b, p.Src, p.Dst, p.SendMsgs, p.SendBytes, p.RecvMsgs, p.RecvBytes, sizeArray(p.Sizes))
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
// rows it carries. With procs false the rows — fixed-width, and most of
// a large payload — are stepped over, not built (renderComm counts them).
func decodeComm(data []byte, procs bool) (*CommState, int, error) {
	r := obs.NewCursor(data, ErrBadSection)
	st := &CommState{
		Events:     r.I64(),
		Sends:      r.I64(),
		Recvs:      r.I64(),
		BytesSent:  r.I64(),
		BytesRecvd: r.I64(),
	}
	st.Sizes = readSizes(&r)
	np := int(count(&r))
	if !procs && np <= r.Remaining()/procRowSize {
		r.Take(np * procRowSize)
	} else {
		// Sized by what the bytes can hold; a count they cannot back
		// fails below, at the field that runs out.
		st.Procs = make([]ProcCommState, 0, min(np, r.Remaining()/procRowSize))
		for i := 0; i < np && r.Err() == nil; i++ {
			p := ProcCommState{Machine: r.U16(), PID: r.U32()}
			p.Sends, p.Recvs, p.RecvCalls = r.I64(), r.I64(), r.I64()
			p.Sockets, p.Forks = r.I64(), r.I64()
			p.BytesSent, p.BytesRecvd = r.I64(), r.I64()
			if r.Err() == nil {
				st.Procs = append(st.Procs, p)
			}
		}
	}
	npairs := int(count(&r))
	st.Pairs = make([]PairState, 0, min(npairs, r.Remaining()/minPairRowSize))
	for i := 0; i < npairs && r.Err() == nil; i++ {
		p := PairState{Src: r.U16(), Dst: r.U16()}
		p.SendMsgs, p.SendBytes = r.I64(), r.I64()
		p.RecvMsgs, p.RecvBytes = r.I64(), r.I64()
		p.Sizes = readSizes(&r)
		if r.Err() == nil {
			st.Pairs = append(st.Pairs, p)
		}
	}
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	return st, np, nil
}

// appendParRow writes one row of the live.par payload:
//
//	u32 n procs × (u16 machine, u32 pid, u8 terminated,
//	               i64 first, last, maxCPU),
//
// rows in (machine, pid) order.
func appendParRow(b []byte, machine uint16, pid uint32, terminated bool, first, last, maxCPU int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, machine)
	b = binary.LittleEndian.AppendUint32(b, pid)
	var term uint8
	if terminated {
		term = 1
	}
	return appendI64s(append(b, term), first, last, maxCPU)
}

// capturePar encodes the collector's live.par payload.
func (c *Collector) capturePar() []byte {
	c.sync()
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := c.orderCells()
	b := make([]byte, 0, 4+parRowSize*len(cells))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cells)))
	for _, pc := range cells {
		b = appendParRow(b, pc.machine, pc.pid, pc.terminated, max(pc.first, 0), pc.last, pc.maxCPU)
	}
	return b
}

// DecodePar parses a live.par payload.
func DecodePar(data []byte) (*ParState, error) {
	r := obs.NewCursor(data, ErrBadSection)
	n := int(count(&r))
	st := &ParState{Procs: make([]ProcInterval, 0, min(n, r.Remaining()/parRowSize))}
	for i := 0; i < n && r.Err() == nil; i++ {
		iv := ProcInterval{Machine: r.U16(), PID: r.U32(), Terminated: r.U8() != 0}
		iv.First, iv.Last, iv.MaxCPU = r.I64(), r.I64(), r.I64()
		if r.Err() == nil {
			st.Procs = append(st.Procs, iv)
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
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

// addSizes adds the src histogram into *dst.
func addSizes(dst *map[int]int64, src map[int]int64) {
	if *dst == nil && src != nil {
		*dst = make(map[int]int64, len(src))
	}
	for k, v := range src {
		(*dst)[k] += v
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
	addSizes(&sa.Sizes, sb.Sizes)
	sa.Procs = foldRows(sa.Procs, sb.Procs,
		func(p *ProcCommState) uint64 { return procKey(p.Machine, p.PID) },
		func(dst, p *ProcCommState) {
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
			addSizes(&dst.Sizes, p.Sizes)
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
	slices.SortFunc(procs, func(x, y ProcInterval) int {
		return cmp.Compare(procKey(x.Machine, x.PID), procKey(y.Machine, y.PID))
	})
	out := make([]byte, 0, 4+parRowSize*len(procs))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(procs)))
	for i := range procs {
		p := &procs[i]
		out = appendParRow(out, p.Machine, p.PID, p.Terminated, p.First, p.Last, p.MaxCPU)
	}
	return out, nil
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
	if len(st.Sizes) > 0 {
		keys := make([]int, 0, len(st.Sizes))
		for k := range st.Sizes {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Fprintf(w, "  send sizes:")
		for _, k := range keys {
			fmt.Fprintf(w, " <=2^%d:%d", k, st.Sizes[k])
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

func renderPar(w io.Writer, s *obs.Section) {
	if s.Version != SectionVersion {
		fmt.Fprintf(w, "live parallelism: unsupported payload v%d (%d bytes)\n", s.Version, len(s.Data))
		return
	}
	st, err := DecodePar(s.Data)
	if err != nil {
		fmt.Fprintf(w, "live parallelism: %v\n", err)
		return
	}
	curve := st.Curve()
	fmt.Fprintf(w, "live parallelism: %d procs (%d running), cpu %d ms over %d ms, speedup %.2f\n",
		curve.Processes, st.Running(), curve.TotalCPUMillis, curve.MakespanMillis, curve.Speedup)
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
