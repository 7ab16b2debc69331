package obs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
	"unsafe"
)

// Snapshot is a point-in-time capture of one registry — the portable
// form of a machine's metrics. It travels over the daemon wire (binary,
// MarshalBinary/ParseSnapshot), lands in forensic files (JSON), and
// merges with snapshots of other machines for cluster-wide reports.
type Snapshot struct {
	// Machine labels the node the snapshot came from; empty on merged
	// snapshots spanning several machines.
	Machine string `json:"machine,omitempty"`
	// TakenUnixNano is when the snapshot was captured (wall clock of
	// the capturing process); a merge keeps the latest.
	TakenUnixNano int64        `json:"taken_unix_nano,omitempty"`
	Counters      []NamedValue `json:"counters"`
	Gauges        []NamedValue `json:"gauges"`
	Hists         []HistValue  `json:"histograms"`
	// Sections carry opaque, versioned subsystem state (see Section).
	Sections []Section `json:"sections,omitempty"`
}

// NamedValue is one counter or gauge reading.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketCount is one non-empty histogram bucket: observations v with
// bitlen(v) == Bucket (see NumBuckets).
type BucketCount struct {
	Bucket uint8 `json:"bucket"`
	Count  int64 `json:"count"`
}

// HistValue is one histogram's distribution, buckets stored sparsely
// in ascending bucket order.
type HistValue struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns an upper bound for the q'th quantile (0 < q <= 1)
// of the distribution: the top of the log bucket the quantile falls
// in, so the true value is within a factor of two below the returned
// one. The rank is nearest-rank (ceiling), so p99 of a handful of
// observations reads the maximum rather than undershooting it.
// Returns 0 for an empty histogram.
func (h *HistValue) Quantile(q float64) int64 {
	if h.Count <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.Bucket == 0 {
				return 0
			}
			if int(b.Bucket) >= NumBuckets-1 {
				return int64(^uint64(0) >> 1)
			}
			return (int64(1) << b.Bucket) - 1
		}
	}
	return 0
}

// Mean returns the average observation, 0 when empty.
func (h *HistValue) Mean() int64 {
	if h.Count <= 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Merge folds other into s: counters and gauges sum by name (a merged
// gauge is the cluster total of the level), histograms add bucket-wise
// — the associative, commutative combination that lets the controller
// fold per-machine snapshots in any order. Names absent on one side
// carry over unchanged. The result keeps sorted name order.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	a := *s
	*s = Snapshot{}
	s.MergeOf([]*Snapshot{&a, other})
}

// MergeOf makes s the merge of snaps — what folding each into the
// first with Merge makes it — in one pass over their name-sorted
// counter, gauge and histogram lists, with no map per pair. s is none
// of snaps. A registry writes every list sorted
// by name; a snapshot read from elsewhere whose lists are not is merged
// from a sorted copy. The machine label is the first snapshot's if all
// share it, else empty; the time is the latest. A section folds in the
// order Merge folds it: the first snapshot's payloads as they are, then
// with each later snapshot's, sorted, through the merger registered
// for its name and version (mergeSections).
func (s *Snapshot) MergeOf(snaps []*Snapshot) {
	snaps = inNameOrder(snaps)
	s.Machine, s.TakenUnixNano = "", 0
	if len(snaps) > 0 {
		s.Machine, s.TakenUnixNano = snaps[0].Machine, snaps[0].TakenUnixNano
	}
	for _, o := range snaps {
		s.TakenUnixNano = max(s.TakenUnixNano, o.TakenUnixNano)
		if o.Machine != s.Machine {
			s.Machine = ""
		}
	}
	at := make([]int, len(snaps))
	valueName := func(v *NamedValue) string { return v.Name }
	addValue := func(acc, v *NamedValue, first bool) {
		if first {
			*acc = *v
		} else {
			acc.Value += v.Value
		}
	}
	s.Counters = mergeByName(snaps, at, func(o *Snapshot) []NamedValue { return o.Counters }, valueName, addValue)
	s.Gauges = mergeByName(snaps, at, func(o *Snapshot) []NamedValue { return o.Gauges }, valueName, addValue)
	s.Hists = mergeByName(snaps, at, func(o *Snapshot) []HistValue { return o.Hists },
		func(h *HistValue) string { return h.Name },
		func(acc, h *HistValue, first bool) {
			if first {
				*acc = HistValue{Name: h.Name}
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			acc.Buckets = append(acc.Buckets, h.Buckets...)
		})
	// Each histogram holds every bucket of its name; add them up.
	var counts [256]int64
	var seen [256]bool
	for i := range s.Hists {
		h := &s.Hists[i]
		for _, bc := range h.Buckets {
			counts[bc.Bucket] += bc.Count
			seen[bc.Bucket] = true
		}
		h.Buckets = h.Buckets[:0]
		for b := range seen {
			if seen[b] {
				h.Buckets = append(h.Buckets, BucketCount{Bucket: uint8(b), Count: counts[b]})
				counts[b], seen[b] = 0, false
			}
		}
	}
	s.Sections = mergeSections(snaps)
}

// inNameOrder returns snaps, or, when a snapshot's counter, gauge or
// histogram list is out of name order — in a JSON file written by
// hand, say — a copy of it that holds in that snapshot's place a copy
// with those lists sorted. No snapshot of snaps is changed.
func inNameOrder(snaps []*Snapshot) []*Snapshot {
	out, copied := snaps, false
	for i, o := range snaps {
		if slices.IsSortedFunc(o.Counters, cmpValueName) && slices.IsSortedFunc(o.Gauges, cmpValueName) &&
			slices.IsSortedFunc(o.Hists, cmpHistName) {
			continue
		}
		if !copied {
			out, copied = slices.Clone(snaps), true
		}
		c := *o
		c.Counters, c.Gauges, c.Hists = slices.Clone(o.Counters), slices.Clone(o.Gauges), slices.Clone(o.Hists)
		slices.SortStableFunc(c.Counters, cmpValueName)
		slices.SortStableFunc(c.Gauges, cmpValueName)
		slices.SortStableFunc(c.Hists, cmpHistName)
		out[i] = &c
	}
	return out
}

func cmpValueName(a, b NamedValue) int { return strings.Compare(a.Name, b.Name) }
func cmpHistName(a, b HistValue) int   { return strings.Compare(a.Name, b.Name) }

// mergeByName merges the lists list takes from snaps: one entry for
// each name, in name order, which fold opens with the first entry of
// that name (first set) and then folds every other into, in snapshot
// order. at holds one cursor per snapshot. The result is never nil.
func mergeByName[T any](snaps []*Snapshot, at []int, list func(*Snapshot) []T,
	name func(*T) string, fold func(acc, v *T, first bool)) []T {
	clear(at)
	longest := 0
	for _, o := range snaps {
		longest = max(longest, len(list(o)))
	}
	out := make([]T, 0, longest)
	for {
		least, ok := "", false
		for i, o := range snaps {
			if l := list(o); at[i] < len(l) && (!ok || name(&l[at[i]]) < least) {
				least, ok = name(&l[at[i]]), true
			}
		}
		if !ok {
			return out
		}
		var zero T
		out = append(out, zero)
		acc, first := &out[len(out)-1], true
		for i, o := range snaps {
			for l := list(o); at[i] < len(l) && name(&l[at[i]]) == least; at[i]++ {
				fold(acc, &l[at[i]], first)
				first = false
			}
		}
	}
}

// Binary snapshot format, version 2. Little-endian throughout:
//
//	"DPOB" magic, u16 version,
//	string machine, i64 takenUnixNano,
//	u32 n counters × (string name, i64 value),
//	u32 n gauges   × (string name, i64 value),
//	u32 n hists    × (string name, i64 count, i64 sum,
//	                  u16 n pairs × (u8 bucket, i64 count)),
//	u32 n sections × (string name, u16 version, u32 len, bytes)   [v2+]
//
// Strings are u16-length-prefixed. A parser ignores any bytes after
// the fields it knows, and accepts versions above its own by reading
// the prefix it understands — future versions extend by appending, the
// same trailing-field discipline as the daemon's wire bodies. Version
// 1 snapshots (pre-section writers) parse as having no sections; a
// section payload's inner format is versioned independently by its
// u16, so a producer can evolve one section without touching the
// snapshot version.

// SnapshotVersion is the binary format version this package writes.
const SnapshotVersion = 2

var snapshotMagic = [4]byte{'D', 'P', 'O', 'B'}

// ErrSnapshotCorrupt reports undecodable snapshot bytes.
var ErrSnapshotCorrupt = errors.New("obs: corrupt snapshot")

// maxSnapshotEntries bounds each section against corrupt counts.
const maxSnapshotEntries = 1 << 20

// MarshalBinary encodes the snapshot in the versioned binary format.
func (s *Snapshot) MarshalBinary() []byte {
	return s.AppendBinary(make([]byte, 0, s.BinarySize()))
}

// AppendBinary appends the snapshot's binary form to b — BinarySize
// bytes of it, what a daemon writes straight into a stats reply's frame.
func (s *Snapshot) AppendBinary(b []byte) []byte {
	le := binary.LittleEndian
	b = append(b, snapshotMagic[:]...)
	b = le.AppendUint16(b, SnapshotVersion)
	b = appendString(b, s.Machine)
	b = le.AppendUint64(b, uint64(s.TakenUnixNano))
	for _, list := range [2][]NamedValue{s.Counters, s.Gauges} {
		b = le.AppendUint32(b, uint32(len(list)))
		for _, v := range list {
			b = le.AppendUint64(appendString(b, v.Name), uint64(v.Value))
		}
	}
	b = le.AppendUint32(b, uint32(len(s.Hists)))
	for _, h := range s.Hists {
		b = appendString(b, h.Name)
		b = le.AppendUint64(b, uint64(h.Count))
		b = le.AppendUint64(b, uint64(h.Sum))
		b = le.AppendUint16(b, uint16(len(h.Buckets)))
		for _, bc := range h.Buckets {
			b = le.AppendUint64(append(b, bc.Bucket), uint64(bc.Count))
		}
	}
	b = le.AppendUint32(b, uint32(len(s.Sections)))
	for _, sec := range s.Sections {
		b = le.AppendUint16(appendString(b, sec.Name), sec.Version)
		b = append(le.AppendUint32(b, uint32(len(sec.Data))), sec.Data...)
	}
	return b
}

// BinarySize is the exact length of the binary form, so that encoding
// a snapshot whose sections run to megabytes allocates it once.
func (s *Snapshot) BinarySize() int {
	n := 4 + 2 + 2 + len(s.Machine) + 8 + 4*4
	for _, v := range s.Counters {
		n += 2 + len(v.Name) + 8
	}
	for _, v := range s.Gauges {
		n += 2 + len(v.Name) + 8
	}
	for _, h := range s.Hists {
		n += 2 + len(h.Name) + 8 + 8 + 2 + 9*len(h.Buckets)
	}
	for _, sec := range s.Sections {
		n += 2 + len(sec.Name) + 2 + 4 + len(sec.Data)
	}
	return n
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// ParseSnapshot decodes a binary snapshot. Trailing bytes beyond the
// known sections are ignored, and versions newer than SnapshotVersion
// are accepted by their version-1 prefix, so old readers keep working
// against extended writers. Nothing in the result aliases data.
func ParseSnapshot(data []byte) (*Snapshot, error) { return parseSnapshot(data, "") }

// ParseSnapshotString is ParseSnapshot over bytes held in a string — a
// reply's Data — read in place: names are substrings of data, and
// section payloads are slices of its bytes, which must not be written
// to. Nothing is copied.
func ParseSnapshotString(data string) (*Snapshot, error) {
	return parseSnapshot(unsafe.Slice(unsafe.StringData(data), len(data)), data)
}

// parseSnapshot decodes data. When src is not empty, data is its bytes
// and the snapshot is read in place.
func parseSnapshot(data []byte, src string) (*Snapshot, error) {
	r := NewCursor(data, ErrSnapshotCorrupt)
	magic := r.Take(4)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if [4]byte(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	version := r.U16()
	if version < 1 {
		return nil, fmt.Errorf("%w: version %d", ErrSnapshotCorrupt, version)
	}
	str := func() string {
		n := int(r.U16())
		at := r.off
		if b := r.Take(n); b == nil || src == "" {
			return string(b)
		}
		return src[at : at+n]
	}
	s := &Snapshot{}
	s.Machine = str()
	s.TakenUnixNano = r.I64()
	nc := r.U32()
	if nc > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d counters", ErrSnapshotCorrupt, nc)
	}
	// Each list is sized from its count, clipped to the entries the
	// bytes left can hold.
	s.Counters = listOf[NamedValue](min(int(nc), r.Remaining()/10))
	for i := uint32(0); i < nc && r.Err() == nil; i++ {
		s.Counters = append(s.Counters, NamedValue{Name: str(), Value: r.I64()})
	}
	ng := r.U32()
	if ng > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d gauges", ErrSnapshotCorrupt, ng)
	}
	s.Gauges = listOf[NamedValue](min(int(ng), r.Remaining()/10))
	for i := uint32(0); i < ng && r.Err() == nil; i++ {
		s.Gauges = append(s.Gauges, NamedValue{Name: str(), Value: r.I64()})
	}
	nh := r.U32()
	if nh > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d histograms", ErrSnapshotCorrupt, nh)
	}
	s.Hists = listOf[HistValue](min(int(nh), r.Remaining()/20))
	for i := uint32(0); i < nh && r.Err() == nil; i++ {
		h := HistValue{Name: str(), Count: r.I64(), Sum: r.I64()}
		np := int(r.U16())
		h.Buckets = listOf[BucketCount](min(np, r.Remaining()/9))
		for j := 0; j < np && r.Err() == nil; j++ {
			h.Buckets = append(h.Buckets, BucketCount{Bucket: r.U8(), Count: r.I64()})
		}
		s.Hists = append(s.Hists, h)
	}
	if version >= 2 {
		ns := r.U32()
		if r.Err() == nil && ns > maxSnapshotEntries {
			return nil, fmt.Errorf("%w: %d sections", ErrSnapshotCorrupt, ns)
		}
		for i := uint32(0); i < ns && r.Err() == nil; i++ {
			sec := Section{Name: str(), Version: r.U16()}
			n := int(r.U32())
			if body := r.Take(n); body != nil {
				sec.Data = body[:n:n]
				if src == "" {
					sec.Data = append([]byte(nil), body...)
				}
			}
			if r.Err() == nil {
				s.Sections = append(s.Sections, sec)
			}
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return s, nil
}

// MarshalJSON output is the forensic-file form (cmd/dpstat reads it);
// the default encoding of the exported struct is already what we want,
// so Snapshot has no custom JSON methods. EncodeJSON writes it with a
// trailing newline, the shape shutdown exports use.
func (s *Snapshot) EncodeJSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// A Snapshot of plain integers and strings cannot fail to
		// encode; keep the signature convenient.
		return []byte("{}")
	}
	return append(b, '\n')
}

// ParseSnapshotJSON decodes the forensic-file form.
func ParseSnapshotJSON(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return s, nil
}

// Render writes the snapshot as a readable report: counters and gauges
// one per line, histograms with count, mean and p50/p95/p99 rendered
// as durations (histograms hold nanoseconds by convention).
func (s *Snapshot) Render(w io.Writer) {
	if s.Machine != "" {
		fmt.Fprintf(w, "machine %s\n", s.Machine)
	}
	if s.TakenUnixNano != 0 {
		fmt.Fprintf(w, "taken %s\n", time.Unix(0, s.TakenUnixNano).UTC().Format(time.RFC3339))
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, v := range s.Counters {
			fmt.Fprintf(w, "  %-40s %12d\n", v.Name, v.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		for _, v := range s.Gauges {
			fmt.Fprintf(w, "  %-40s %12d\n", v.Name, v.Value)
		}
	}
	if len(s.Hists) > 0 {
		fmt.Fprintf(w, "histograms:%31s %12s %10s %10s %10s %10s\n", "", "count", "mean", "p50", "p95", "p99")
		for i := range s.Hists {
			h := &s.Hists[i]
			fmt.Fprintf(w, "  %-40s %12d %10v %10v %10v %10v\n",
				h.Name, h.Count,
				time.Duration(h.Mean()).Round(time.Microsecond),
				time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
		}
	}
	renderSections(w, s.Sections)
}

// Get returns the named counter or gauge value and whether it exists —
// the lookup assertions and tools use.
func (s *Snapshot) Get(name string) (int64, bool) {
	for _, v := range s.Counters {
		if v.Name == name {
			return v.Value, true
		}
	}
	for _, v := range s.Gauges {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// Hist returns the named histogram, nil when absent.
func (s *Snapshot) Hist(name string) *HistValue {
	for i := range s.Hists {
		if s.Hists[i].Name == name {
			return &s.Hists[i]
		}
	}
	return nil
}
