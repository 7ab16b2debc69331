package agg

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// hist is the dense log2 sketch, allocated only when the spec's
	// operator needs it: hist[b] counts values v with bits.Len64(v)==b,
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

// HistValue adapts the group's sketch to obs.HistValue, whose
// Quantile carries the nearest-rank upper-bound semantics the obs
// layer already pins down.
func (g *Group) HistValue() obs.HistValue {
	hv := obs.HistValue{Count: g.Count, Sum: g.Sum}
	for b, n := range g.hist {
		if n != 0 {
			hv.Buckets = append(hv.Buckets, obs.BucketCount{Bucket: uint8(b), Count: n})
		}
	}
	return hv
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
	Groups  map[GroupKey]*Group
}

// NewPartial returns an empty partial for a spec.
func NewPartial(s *Spec) *Partial {
	return &Partial{Spec: s.String(), MinTime: ^uint64(0), Groups: make(map[GroupKey]*Group)}
}

// absorb merges a group into p: into p's group of its key, else as a
// new group while p has fewer than maxGroups, else into Dropped.
func (p *Partial) absorb(sg *Group, maxGroups int) {
	g, ok := p.Groups[sg.Key]
	if !ok {
		if len(p.Groups) >= maxGroups {
			p.Dropped += sg.Count
			return
		}
		g = &Group{Key: sg.Key, Min: sg.Min, Max: sg.Max}
		p.Groups[sg.Key] = g
	}
	g.add(sg)
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
	if og.hist != nil && g.hist == nil {
		g.hist = make([]int64, obs.NumBuckets)
	}
	for b, n := range og.hist {
		g.hist[b] += n
	}
}

// widen takes [lo, hi] into the observed time range; an empty range
// (hi < lo) adds nothing.
func (p *Partial) widen(lo, hi uint64) { p.MinTime, p.MaxTime = min(p.MinTime, lo), max(p.MaxTime, hi) }

// ErrSpecMismatch reports an attempt to merge partials of different
// aggregate specifications.
var ErrSpecMismatch = errors.New("agg: partials have different specs")

// Merge folds other into p: groups merge key-wise (Group.add), the time
// range widens, and the record counters add — associative and
// commutative, the discipline obs.Snapshot.Merge set, so a
// scatter-gather can fold per-machine partials in whatever order they
// arrive. Merge applies no MaxGroups cap and never evicts, so merge
// order cannot change the result and the merged table can exceed the
// cap: it combines machines, never pieces of one machine's fold.
func (p *Partial) Merge(other *Partial) error {
	if other == nil {
		return nil
	}
	if p.Spec != other.Spec {
		return fmt.Errorf("%w: %q vs %q", ErrSpecMismatch, p.Spec, other.Spec)
	}
	p.widen(other.MinTime, other.MaxTime)
	p.Records += other.Records
	p.Skipped += other.Skipped
	p.Dropped += other.Dropped
	for _, og := range other.Groups {
		p.absorb(og, math.MaxInt)
	}
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
// Strings are u16-length-prefixed. Groups are written in sorted key
// order, so the encoding of a partial is deterministic — the
// randomized merge-order tests compare encodings byte for byte. A
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

// sortedGroups returns the groups in canonical key order: window
// first, then the key values.
func (p *Partial) sortedGroups() []*Group {
	out := make([]*Group, 0, len(p.Groups))
	for _, g := range p.Groups {
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b *Group) int {
		return cmp.Or(cmp.Compare(a.Key.Window, b.Key.Window), slices.Compare(a.Key.Vals[:], b.Key.Vals[:]))
	})
	return out
}

// nvals returns how many key slots the spec's by-list uses; encoded so
// a reader does not need the spec to frame the key.
func nvalsOf(spec string) int {
	s, err := ParseSpec(spec)
	if err != nil {
		return MaxBy
	}
	return len(s.By)
}

// MarshalBinary encodes the partial deterministically in the versioned
// binary format.
func (p *Partial) MarshalBinary() []byte {
	le := binary.LittleEndian
	b := make([]byte, 0, 64+48*len(p.Groups))
	b = append(b, partialMagic[:]...)
	b = le.AppendUint16(b, PartialVersion)
	b = le.AppendUint16(b, uint16(len(p.Spec)))
	b = append(b, p.Spec...)
	b = le.AppendUint64(b, p.MinTime)
	b = le.AppendUint64(b, p.MaxTime)
	b = le.AppendUint64(b, uint64(p.Records))
	b = le.AppendUint64(b, uint64(p.Skipped))
	b = le.AppendUint64(b, uint64(p.Dropped))
	nvals := nvalsOf(p.Spec)
	groups := p.sortedGroups()
	b = le.AppendUint32(b, uint32(len(groups)))
	for _, g := range groups {
		b = le.AppendUint64(b, g.Key.Window)
		b = append(b, uint8(nvals))
		for i := 0; i < nvals; i++ {
			b = le.AppendUint64(b, g.Key.Vals[i])
		}
		b = le.AppendUint64(b, uint64(g.Count))
		b = le.AppendUint64(b, uint64(g.Sum))
		b = le.AppendUint64(b, uint64(g.Min))
		b = le.AppendUint64(b, uint64(g.Max))
		pairs := 0
		for _, n := range g.hist {
			if n != 0 {
				pairs++
			}
		}
		b = le.AppendUint16(b, uint16(pairs))
		for bucket, n := range g.hist {
			if n != 0 {
				b = append(b, uint8(bucket))
				b = le.AppendUint64(b, uint64(n))
			}
		}
	}
	return b
}

// ParsePartial decodes a binary partial. Trailing bytes beyond the
// known sections are ignored, and newer versions are accepted by
// their version-1 prefix.
func ParsePartial(data []byte) (*Partial, error) {
	r := obs.NewCursor(data, ErrPartialCorrupt)
	magic := r.Take(4)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if [4]byte(magic) != partialMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrPartialCorrupt)
	}
	if v := r.U16(); v < 1 {
		return nil, fmt.Errorf("%w: version %d", ErrPartialCorrupt, v)
	}
	p := &Partial{Groups: make(map[GroupKey]*Group)}
	p.Spec = r.Str()
	p.MinTime = r.U64()
	p.MaxTime = r.U64()
	p.Records = int64(r.U64())
	p.Skipped = int64(r.U64())
	p.Dropped = int64(r.U64())
	ng := r.U32()
	if ng > maxPartialGroups {
		return nil, fmt.Errorf("%w: %d groups", ErrPartialCorrupt, ng)
	}
	for i := uint32(0); i < ng && r.Err() == nil; i++ {
		g := &Group{}
		g.Key.Window = r.U64()
		nvals := int(r.U8())
		if nvals > MaxBy {
			return nil, fmt.Errorf("%w: group %d has %d key values", ErrPartialCorrupt, i, nvals)
		}
		for j := 0; j < nvals; j++ {
			g.Key.Vals[j] = r.U64()
		}
		g.Count = int64(r.U64())
		g.Sum = int64(r.U64())
		g.Min = int64(r.U64())
		g.Max = int64(r.U64())
		pairs := int(r.U16())
		for j := 0; j < pairs && r.Err() == nil; j++ {
			bucket := int(r.U8())
			n := int64(r.U64())
			if bucket >= obs.NumBuckets {
				return nil, fmt.Errorf("%w: bucket %d", ErrPartialCorrupt, bucket)
			}
			if g.hist == nil {
				g.hist = make([]int64, obs.NumBuckets)
			}
			g.hist[bucket] = n
		}
		if r.Err() == nil {
			p.Groups[g.Key] = g
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return p, nil
}
