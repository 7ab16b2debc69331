package obs

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
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
	if other.TakenUnixNano > s.TakenUnixNano {
		s.TakenUnixNano = other.TakenUnixNano
	}
	if s.Machine != other.Machine {
		s.Machine = ""
	}
	s.Counters = mergeValues(s.Counters, other.Counters)
	s.Gauges = mergeValues(s.Gauges, other.Gauges)
	s.Hists = mergeHists(s.Hists, other.Hists)
	s.Sections = mergeSections(s.Sections, other.Sections)
}

func mergeValues(a, b []NamedValue) []NamedValue {
	byName := make(map[string]int64, len(a)+len(b))
	for _, v := range a {
		byName[v.Name] += v.Value
	}
	for _, v := range b {
		byName[v.Name] += v.Value
	}
	out := make([]NamedValue, 0, len(byName))
	for name, v := range byName {
		out = append(out, NamedValue{Name: name, Value: v})
	}
	slices.SortFunc(out, cmpValueName)
	return out
}

func cmpValueName(a, b NamedValue) int { return strings.Compare(a.Name, b.Name) }
func cmpHistName(a, b HistValue) int   { return strings.Compare(a.Name, b.Name) }

func mergeHists(a, b []HistValue) []HistValue {
	byName := make(map[string]*HistValue, len(a)+len(b))
	fold := func(h HistValue) {
		dst, ok := byName[h.Name]
		if !ok {
			cp := HistValue{Name: h.Name, Count: h.Count, Sum: h.Sum}
			cp.Buckets = append(cp.Buckets, h.Buckets...)
			byName[h.Name] = &cp
			return
		}
		dst.Count += h.Count
		dst.Sum += h.Sum
		counts := make(map[uint8]int64, len(dst.Buckets)+len(h.Buckets))
		for _, bc := range dst.Buckets {
			counts[bc.Bucket] += bc.Count
		}
		for _, bc := range h.Buckets {
			counts[bc.Bucket] += bc.Count
		}
		dst.Buckets = dst.Buckets[:0]
		for bucket, n := range counts {
			dst.Buckets = append(dst.Buckets, BucketCount{Bucket: bucket, Count: n})
		}
		slices.SortFunc(dst.Buckets, func(a, b BucketCount) int { return cmp.Compare(a.Bucket, b.Bucket) })
	}
	for _, h := range a {
		fold(h)
	}
	for _, h := range b {
		fold(h)
	}
	out := make([]HistValue, 0, len(byName))
	for _, h := range byName {
		out = append(out, *h)
	}
	slices.SortFunc(out, cmpHistName)
	return out
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
	b := bytes.NewBuffer(make([]byte, 0, s.binarySize()))
	s.writeBinary(b)
	return b.Bytes()
}

// MarshalString is MarshalBinary as a string — the form a daemon reply
// carries — written once into the string's own bytes rather than
// encoded and then copied.
func (s *Snapshot) MarshalString() string {
	var b strings.Builder
	b.Grow(s.binarySize())
	s.writeBinary(&b)
	return b.String()
}

// writeBinary is the one encoder under MarshalBinary and MarshalString.
// Everything but the section payloads is gathered in a buffer that goes
// to w before each payload, so w sees two writes a section.
func (s *Snapshot) writeBinary(w io.Writer) {
	le := binary.LittleEndian
	payloads := 0
	for _, sec := range s.Sections {
		payloads += len(sec.Data)
	}
	b := make([]byte, 0, s.binarySize()-payloads)
	b = append(b, snapshotMagic[:]...)
	b = le.AppendUint16(b, SnapshotVersion)
	b = appendString(b, s.Machine)
	b = le.AppendUint64(b, uint64(s.TakenUnixNano))
	b = le.AppendUint32(b, uint32(len(s.Counters)))
	for _, v := range s.Counters {
		b = appendString(b, v.Name)
		b = le.AppendUint64(b, uint64(v.Value))
	}
	b = le.AppendUint32(b, uint32(len(s.Gauges)))
	for _, v := range s.Gauges {
		b = appendString(b, v.Name)
		b = le.AppendUint64(b, uint64(v.Value))
	}
	b = le.AppendUint32(b, uint32(len(s.Hists)))
	for _, h := range s.Hists {
		b = appendString(b, h.Name)
		b = le.AppendUint64(b, uint64(h.Count))
		b = le.AppendUint64(b, uint64(h.Sum))
		b = le.AppendUint16(b, uint16(len(h.Buckets)))
		for _, bc := range h.Buckets {
			b = append(b, bc.Bucket)
			b = le.AppendUint64(b, uint64(bc.Count))
		}
	}
	b = le.AppendUint32(b, uint32(len(s.Sections)))
	for _, sec := range s.Sections {
		b = appendString(b, sec.Name)
		b = le.AppendUint16(b, sec.Version)
		b = le.AppendUint32(b, uint32(len(sec.Data)))
		w.Write(b)
		w.Write(sec.Data)
		b = b[:0]
	}
	w.Write(b)
}

// binarySize is the exact length of the binary form, so that encoding
// a snapshot whose sections run to megabytes allocates it once.
func (s *Snapshot) binarySize() int {
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
func ParseSnapshot(data []byte) (*Snapshot, error) { return parseSnapshot(data, true) }

// ParseSnapshotOwned is ParseSnapshot for a caller that gives data up —
// one that just made its own copy of the bytes, of a reply's Data string
// say: section payloads are slices of data, which must not be written to.
func ParseSnapshotOwned(data []byte) (*Snapshot, error) { return parseSnapshot(data, false) }

func parseSnapshot(data []byte, copyOut bool) (*Snapshot, error) {
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
	s := &Snapshot{}
	s.Machine = r.Str()
	s.TakenUnixNano = r.I64()
	nc := r.U32()
	if nc > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d counters", ErrSnapshotCorrupt, nc)
	}
	for i := uint32(0); i < nc && r.Err() == nil; i++ {
		s.Counters = append(s.Counters, NamedValue{Name: r.Str(), Value: r.I64()})
	}
	ng := r.U32()
	if ng > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d gauges", ErrSnapshotCorrupt, ng)
	}
	for i := uint32(0); i < ng && r.Err() == nil; i++ {
		s.Gauges = append(s.Gauges, NamedValue{Name: r.Str(), Value: r.I64()})
	}
	nh := r.U32()
	if nh > maxSnapshotEntries {
		return nil, fmt.Errorf("%w: %d histograms", ErrSnapshotCorrupt, nh)
	}
	for i := uint32(0); i < nh && r.Err() == nil; i++ {
		h := HistValue{Name: r.Str(), Count: r.I64(), Sum: r.I64()}
		np := int(r.U16())
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
			sec := Section{Name: r.Str(), Version: r.U16()}
			n := int(r.U32())
			if body := r.Take(n); body != nil {
				sec.Data = body[:n:n]
				if copyOut {
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
