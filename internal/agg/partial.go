package agg

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"dpm/internal/obs"
)

// GroupKey identifies one group: the window start (cpuTime ms, 0 when
// unwindowed) and the values of the group-by fields, fixed-width so
// keys are comparable map keys. Unused key slots are zero.
type GroupKey struct {
	Window uint64
	Vals   [MaxBy]uint64
}

// compareKeys orders keys canonically: window first, then the key
// values.
func compareKeys(a, b *GroupKey) int {
	return cmp.Or(cmp.Compare(a.Window, b.Window), slices.Compare(a.Vals[:], b.Vals[:]))
}

// Group is one group's accumulator. Every operator shares the shape —
// count, sum, min, max, and (for percentile operators) the log2
// histogram sketch — so a partial can be rendered under any of the
// spec's views and merges stay operator-independent.
type Group struct {
	Key   GroupKey
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	// hist is the dense log2 sketch, empty unless the spec's operator
	// needs it: hist[b] counts values v with bits.Len64(v)==b,
	// the bucket rule of obs.Histogram, so quantile bounds come from
	// obs.HistValue.
	hist []int64
}

// observe folds one value into the accumulator; with sketch, the
// sketch must be allocated.
func (g *Group) observe(v uint64, sketch bool) {
	sv := int64(v)
	if g.Count == 0 || sv < g.Min {
		g.Min = sv
	}
	if g.Count == 0 || sv > g.Max {
		g.Max = sv
	}
	g.Count++
	g.Sum += sv
	if sketch {
		b := bits.Len64(v)
		if b >= obs.NumBuckets {
			b = obs.NumBuckets - 1
		}
		g.hist[b]++
	}
}

// add merges another accumulator of the same key into g: counts and
// sums add, min/max narrow, sketch buckets add.
func (g *Group) add(og *Group) {
	if og.Count > 0 && (g.Count == 0 || og.Min < g.Min) {
		g.Min = og.Min
	}
	if og.Count > 0 && (g.Count == 0 || og.Max > g.Max) {
		g.Max = og.Max
	}
	g.Count += og.Count
	g.Sum += og.Sum
	if len(og.hist) > 0 && len(g.hist) == 0 {
		g.hist = append(g.hist[:0], make([]int64, obs.NumBuckets)...)
	}
	for b, n := range og.hist {
		g.hist[b] += n
	}
}

// Partial is one machine's bounded partial aggregate: the compact
// thing that crosses the wire instead of the matching records. A
// partial is complete for the records its machine scanned; partials
// of different machines Merge into the same result in any order. One
// machine's records reach one partial under one MaxGroups cap, a
// segment's group table at a time (Eval says why that is exact).
type Partial struct {
	// Spec is the canonical specification string; Merge refuses
	// partials of different specs.
	Spec string
	// MinTime and MaxTime bound the cpuTime of the folded records;
	// MaxTime < MinTime (the zero state) means no records. Rate
	// rendering without a window divides by this span.
	MinTime uint64
	MaxTime uint64
	// Records counts matched records folded; Skipped counts matched
	// records lacking a group or value field; Dropped counts matched
	// records not attributed because the group table was at MaxGroups —
	// nonzero Dropped marks the answer as approximate.
	Records int64
	Skipped int64
	Dropped int64
	// Groups is one flat table, one group per key in canonical key
	// order (compareKeys): as Eval leaves it, the encoding writes it, a
	// decode demands it and Merge reads and writes it.
	Groups []Group

	nvals int            // key values per group: the spec's group-by fields
	table *segment       // the table Eval folded Groups in, pooled with p
	mem   *obs.FreeStats // the traffic of Eval's registry with partialFree
	// What a merge or rendering reuses: the other table of the merge,
	// and the rows' values and order.
	spare []Group
	vals  []float64
	order []int32
}

// NewPartial returns an empty partial for a spec.
func NewPartial(s *Spec) *Partial { return new(Partial).Reset(s) }

// Reset empties p for a partial of spec s, keeping its storage, and
// returns it.
func (p *Partial) Reset(s *Spec) *Partial {
	p.Spec, p.nvals, p.MinTime, p.MaxTime = s.String(), len(s.By), ^uint64(0), 0
	p.Records, p.Skipped, p.Dropped, p.Groups = 0, 0, 0, p.Groups[:0]
	return p
}

// Release gives a partial Eval returned back, with the table it was
// folded in, for the next Eval to reuse; nothing may use p, or still
// hold its groups, after.
func (p *Partial) Release() {
	if p.table != nil {
		partialFree.Put(p, p.mem)
	}
}

// widen takes [lo, hi] into the observed time range; an empty range
// (hi < lo) adds nothing.
func (p *Partial) widen(lo, hi uint64) { p.MinTime, p.MaxTime = min(p.MinTime, lo), max(p.MaxTime, hi) }

// ErrSpecMismatch reports an attempt to merge partials of different
// aggregate specifications.
var ErrSpecMismatch = errors.New("agg: partials have different specs")

// Merge folds others into p: the time range widens, the record counters
// add, and the group tables merge in one pass over all of them — the
// least key at the tables' heads next, the groups of one key added
// (Group.add) in argument order, p's first — into p's spare table,
// whose places lend their sketches' arrays; no group of others is
// written. That is associative and commutative, the discipline
// obs.Snapshot.Merge set, so a scatter-gather can fold per-machine
// partials in whatever order they arrive. Merge applies no MaxGroups cap
// and never evicts, so merge order cannot change the result and the
// merged table can exceed the cap: it combines machines, never pieces of
// one machine's fold.
func (p *Partial) Merge(others ...*Partial) error {
	for _, o := range others {
		if o != nil && o.Spec != p.Spec {
			return fmt.Errorf("%w: %q vs %q", ErrSpecMismatch, p.Spec, o.Spec)
		}
	}
	runs := append(make([][]Group, 0, 1+len(others)), p.Groups)
	for _, o := range others {
		if o != nil {
			p.widen(o.MinTime, o.MaxTime)
			p.Records, p.Skipped, p.Dropped = p.Records+o.Records, p.Skipped+o.Skipped, p.Dropped+o.Dropped
			runs = append(runs, o.Groups)
		}
	}
	dst := p.spare[:0]
	for {
		least := -1
		for i, r := range runs {
			if len(r) > 0 && (least < 0 || compareKeys(&r[0].Key, &runs[least][0].Key) < 0) {
				least = i
			}
		}
		if least < 0 {
			break
		}
		g := &runs[least][0]
		runs[least] = runs[least][1:]
		if n := len(dst); n == 0 || dst[n-1].Key != g.Key {
			dst = slices.Grow(dst, 1)[:n+1]
			dst[n] = Group{Key: g.Key, Min: g.Min, Max: g.Max, hist: dst[n].hist[:0]}
		}
		dst[len(dst)-1].add(g)
	}
	p.Groups, p.spare, p.table = dst, p.Groups, nil
	return nil
}

// Binary partial format, version 1. Little-endian throughout:
//
//	"DPAG" magic, u16 version,
//	string spec (canonical),
//	u64 minTime, u64 maxTime,
//	i64 records, i64 skipped, i64 dropped,
//	u32 n groups × (u64 window, u8 nvals × u64 val,
//	                i64 count, i64 sum, i64 min, i64 max,
//	                u16 n pairs × (u8 bucket, i64 count)).
//
// Strings are u16-length-prefixed. Groups are written in canonical key
// order, nvals is the spec's number of group-by fields and the pairs
// are the sketch's nonzero buckets in bucket order, so the encoding of
// a partial is deterministic — the randomized merge-order tests compare
// encodings byte for byte — and a decode refuses any other order. A
// parser ignores trailing bytes and accepts newer versions by their
// version-1 prefix, the obs snapshot discipline.

// PartialVersion is the binary format version this package writes.
const PartialVersion = 1

var partialMagic = [4]byte{'D', 'P', 'A', 'G'}

// ErrPartialCorrupt reports undecodable partial bytes.
var ErrPartialCorrupt = errors.New("agg: corrupt partial")

// maxPartialGroups bounds the decoded group count against corrupt
// headers; it is far above any legal MaxGroups times a realistic
// machine count.
const maxPartialGroups = 1 << 20

// MarshalBinary encodes the partial deterministically in the versioned
// binary format.
func (p *Partial) MarshalBinary() []byte { return p.AppendBinary(nil) }

// AppendBinary appends the partial's encoding to b.
func (p *Partial) AppendBinary(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint16(append(b, partialMagic[:]...), PartialVersion)
	b = append(le.AppendUint16(b, uint16(len(p.Spec))), p.Spec...)
	for _, v := range [...]uint64{p.MinTime, p.MaxTime, uint64(p.Records), uint64(p.Skipped), uint64(p.Dropped)} {
		b = le.AppendUint64(b, v)
	}
	b = le.AppendUint32(b, uint32(len(p.Groups)))
	for i := range p.Groups {
		g := &p.Groups[i]
		b = append(le.AppendUint64(b, g.Key.Window), uint8(p.nvals))
		for _, v := range g.Key.Vals[:p.nvals] {
			b = le.AppendUint64(b, v)
		}
		for _, v := range [...]int64{g.Count, g.Sum, g.Min, g.Max} {
			b = le.AppendUint64(b, uint64(v))
		}
		at := len(b)
		b = append(b, 0, 0)
		for bucket, n := range g.hist {
			if n != 0 {
				b = le.AppendUint64(append(b, uint8(bucket)), uint64(n))
			}
		}
		le.PutUint16(b[at:], uint16((len(b)-at-2)/9))
	}
	return b
}

// ParsePartial decodes a binary partial. Trailing bytes beyond the
// known sections are ignored, and newer versions are accepted by
// their version-1 prefix.
func ParsePartial(data []byte) (*Partial, error) {
	p := new(Partial)
	if err := p.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalBinary decodes a binary partial into p, reusing its storage,
// as ParsePartial does; a spec equal to p's is not parsed again.
// Besides bytes that end early, it refuses what no writer makes: a
// group whose key width is not its spec's, keys repeated or out of
// canonical order, and sketch pairs of a zero count or out of bucket
// order. After an error p holds no partial to use.
func (p *Partial) UnmarshalBinary(data []byte) error {
	r := obs.NewCursor(data, ErrPartialCorrupt)
	if magic := r.Take(4); r.Err() == nil && [4]byte(magic) != partialMagic {
		r.Fail("bad magic")
	}
	if v := r.U16(); v < 1 {
		r.Fail("version %d", v)
	}
	if spec := r.Take(int(r.U16())); string(spec) != p.Spec {
		s, err := ParseSpec(string(spec))
		if p.Spec, p.nvals = string(spec), 0; err == nil {
			p.nvals = len(s.By)
		}
	}
	p.MinTime, p.MaxTime = r.U64(), r.U64()
	p.Records, p.Skipped, p.Dropped = r.I64(), r.I64(), r.I64()
	ng := r.U32()
	if ng > maxPartialGroups {
		return fmt.Errorf("%w: %d groups", ErrPartialCorrupt, ng)
	}
	p.Groups = p.Groups[:0]
	for i := 0; i < int(ng) && r.Err() == nil; i++ {
		p.Groups = slices.Grow(p.Groups, 1)[:i+1]
		g := &p.Groups[i]
		*g = Group{Key: GroupKey{Window: r.U64()}, hist: g.hist[:0]}
		if n := int(r.U8()); n != p.nvals {
			r.Fail("group %d has %d key values, its spec %d", i, n, p.nvals)
		}
		for j := range p.nvals {
			g.Key.Vals[j] = r.U64()
		}
		g.Count, g.Sum, g.Min, g.Max = r.I64(), r.I64(), r.I64(), r.I64()
		for j, last, pairs := 0, -1, int(r.U16()); j < pairs; j++ {
			bucket, n := int(r.U8()), r.I64()
			if bucket >= obs.NumBuckets || bucket <= last || n == 0 {
				r.Fail("group %d has bucket %d of count %d after bucket %d", i, bucket, n, last)
				break
			}
			if len(g.hist) == 0 {
				g.hist = append(g.hist, make([]int64, obs.NumBuckets)...)
			}
			g.hist[bucket], last = n, bucket
		}
		if i > 0 && compareKeys(&p.Groups[i-1].Key, &g.Key) >= 0 {
			r.Fail("group %d's key repeats or goes backwards", i)
		}
	}
	return r.Err()
}
