package agg

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"

	"dpm/internal/obs"
)

// The partial as a map-keyed table, with its pairwise merge and its fmt
// rendering through a Result of keyed rows: how the package kept a
// partial before it became one sorted table. Kept as the reference the
// sorted table, its merge and AppendTable are held to.

// refPartial is a partial whose groups are keyed by a map, each a
// *Group.
type refPartial struct {
	Spec                      string
	MinTime, MaxTime          uint64
	Records, Skipped, Dropped int64
	Groups                    map[GroupKey]*Group
}

func newRefPartial(s *Spec) *refPartial {
	return &refPartial{Spec: s.String(), MinTime: ^uint64(0), Groups: make(map[GroupKey]*Group)}
}

func (p *refPartial) widen(lo, hi uint64) {
	p.MinTime, p.MaxTime = min(p.MinTime, lo), max(p.MaxTime, hi)
}

// recordFold is the fold Eval did before per-segment group tables: one
// record attributed to its group, false when the table is at maxGroups
// and the key is new (the caller counts Dropped).
func (p *refPartial) recordFold(key GroupKey, v uint64, sketch bool, maxGroups int) bool {
	g, ok := p.Groups[key]
	if !ok {
		if len(p.Groups) >= maxGroups {
			return false
		}
		g = &Group{Key: key}
		if sketch {
			g.hist = make([]int64, obs.NumBuckets)
		}
		p.Groups[key] = g
	}
	g.observe(v, sketch)
	return true
}

// absorb merges a group into p: into p's group of its key, else as a
// new group while p has fewer than maxGroups, else into Dropped.
func (p *refPartial) absorb(sg *Group, maxGroups int) {
	g, ok := p.Groups[sg.Key]
	if !ok {
		if len(p.Groups) >= maxGroups {
			p.Dropped += sg.Count
			return
		}
		g = &Group{Key: sg.Key, Min: sg.Min, Max: sg.Max}
		p.Groups[sg.Key] = g
	}
	refAdd(g, sg)
}

// refAdd merges og into g as Group.add did: counts and sums add,
// min/max narrow, and a sketch is allocated where og has one.
func refAdd(g, og *Group) {
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

// Merge folds other into p key-wise, with no cap.
func (p *refPartial) Merge(other *refPartial) error {
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

// sortedGroups returns the groups in canonical key order.
func (p *refPartial) sortedGroups() []*Group {
	out := make([]*Group, 0, len(p.Groups))
	for _, g := range p.Groups {
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b *Group) int {
		return cmp.Or(cmp.Compare(a.Key.Window, b.Key.Window), slices.Compare(a.Key.Vals[:], b.Key.Vals[:]))
	})
	return out
}

// MarshalBinary encodes the partial in the version-1 format, groups in
// sorted key order.
func (p *refPartial) MarshalBinary() []byte {
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

// parseRefPartial decodes a binary partial into a map: a repeated key's
// last group wins, a bucket's last pair.
func parseRefPartial(data []byte) (*refPartial, error) {
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
	p := &refPartial{Groups: make(map[GroupKey]*Group)}
	p.Spec = string(r.Take(int(r.U16())))
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

// partialOf is the sorted table of a reference partial, through its
// encoding, which every reference partial's is.
func partialOf(ref *refPartial) *Partial {
	p, err := ParsePartial(ref.MarshalBinary())
	if err != nil {
		panic(err)
	}
	return p
}

// refRow and refResult are the keyed rows of a partial and the result
// that rendered them.
type refRow struct {
	Window uint64
	Key    map[string]uint64
	Count  int64
	Value  float64
}

type refResult struct {
	Spec    *Spec
	Partial *refPartial
	Rows    []refRow
	Records int64
	Skipped int64
	Dropped int64
}

// newRefResult computes the rendered rows of a partial: each group's
// operator value, sorted — heaviest first with the top-k cut applied
// for a top spec, canonical key order otherwise.
func newRefResult(s *Spec, p *refPartial) *refResult {
	r := &refResult{Spec: s, Partial: p, Records: p.Records, Skipped: p.Skipped, Dropped: p.Dropped}
	groups := p.sortedGroups()
	rows := make([]refRow, 0, len(groups))
	for _, g := range groups {
		row := refRow{Window: g.Key.Window, Count: g.Count, Value: refValue(s, g, p)}
		if len(s.By) > 0 {
			row.Key = make(map[string]uint64, len(s.By))
			for i, f := range s.By {
				row.Key[f] = g.Key.Vals[i]
			}
		}
		rows = append(rows, row)
	}
	if s.TopK > 0 {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Value > rows[j].Value })
		if len(rows) > s.TopK {
			rows = rows[:s.TopK]
		}
	}
	r.Rows = rows
	return r
}

// refValue computes one group's answer under the spec's operator.
func refValue(s *Spec, g *Group, p *refPartial) float64 {
	switch s.Fn {
	case FnCount:
		return float64(g.Count)
	case FnSum:
		return float64(g.Sum)
	case FnMin:
		return float64(g.Min)
	case FnMax:
		return float64(g.Max)
	case FnRate:
		ms := s.WindowMS
		if ms == 0 {
			if p.MaxTime < p.MinTime {
				return 0
			}
			ms = int64(p.MaxTime-p.MinTime) + 1
		}
		return float64(g.Count) * 1000 / float64(ms)
	case FnP50, FnP95, FnP99:
		hv := obs.HistValue{Count: g.Count, Sum: g.Sum}
		for b, n := range g.hist {
			if n != 0 {
				hv.Buckets = append(hv.Buckets, obs.BucketCount{Bucket: uint8(b), Count: n})
			}
		}
		return float64(hv.Quantile(s.Fn.Quantile()))
	}
	return 0
}

// refFormatValue renders a value in the operator's natural precision:
// rates keep fractions, everything else is integral.
func refFormatValue(s *Spec, v float64) string {
	if s.Fn == FnRate {
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Render writes the result as the readable table.
func (r *refResult) Render(w io.Writer) {
	s := r.Spec
	fmt.Fprintf(w, "%s\n", s.String())
	fmt.Fprintf(w, "%-12s", "")
	if s.WindowMS > 0 {
		fmt.Fprintf(w, "%12s ", "window")
	}
	for _, f := range s.By {
		fmt.Fprintf(w, "%12s ", f)
	}
	fmt.Fprintf(w, "%14s %10s\n", s.Fn.String(), "count")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s", "")
		if s.WindowMS > 0 {
			fmt.Fprintf(w, "%12d ", row.Window)
		}
		for _, f := range s.By {
			fmt.Fprintf(w, "%12d ", row.Key[f])
		}
		fmt.Fprintf(w, "%14s %10d\n", refFormatValue(s, row.Value), row.Count)
	}
	fmt.Fprintf(w, "groups=%d records=%d", len(r.Partial.Groups), r.Records)
	if r.Skipped > 0 {
		fmt.Fprintf(w, " skipped=%d", r.Skipped)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(w, " dropped=%d (approximate: group cap hit)", r.Dropped)
	}
	fmt.Fprintf(w, "\n")
}

// nvalsOf returns how many key slots a spec's by-list uses, 0 for a spec
// that does not parse.
func nvalsOf(spec string) int {
	s, err := ParseSpec(spec)
	if err != nil {
		return 0
	}
	return len(s.By)
}

// maxGroups is the cap Eval folds under: MaxGroups, or DefaultMaxGroups
// when unset.
func (s *Spec) maxGroups() int { return cmp.Or(s.MaxGroups, DefaultMaxGroups) }
