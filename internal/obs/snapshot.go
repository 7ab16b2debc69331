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
	rank := min(max(int64(math.Ceil(q*float64(h.Count))), 1), h.Count)
	var cum int64
	for _, b := range h.Buckets {
		if cum += b.Count; cum >= rank {
			return bucketTop(b.Bucket)
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
// first with Merge makes it — in one walk over their binary forms side
// by side, the walk AppendReport renders. s is none of snaps. A
// snapshot whose lists are not in name order — in a JSON file written
// by hand, say — is merged from a sorted copy; none of snaps is
// changed. The machine label is the first snapshot's if all share it,
// else empty; the time is the latest. Each section group folds in one
// call of the merger registered for its name and version.
func (s *Snapshot) MergeOf(snaps []*Snapshot) {
	wire := make([][]byte, len(snaps))
	for i, o := range snaps {
		wire[i] = o.MarshalBinary()
	}
	*s = Snapshot{Counters: []NamedValue{}, Gauges: []NamedValue{}, Hists: []HistValue{}}
	w := walker{snap: s}
	if err := w.walk(wire, true); err != nil {
		// ParseSnapshotJSON refuses what the binary form cannot carry.
		panic(fmt.Sprintf("obs: merging snapshots: %v", err))
	}
}

func cmpValueName(a, b NamedValue) int { return strings.Compare(a.Name, b.Name) }
func cmpHistName(a, b HistValue) int   { return strings.Compare(a.Name, b.Name) }

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

// MarshalBinary encodes the snapshot in the versioned binary format,
// into a buffer of exactly its size.
func (s *Snapshot) MarshalBinary() []byte {
	le := binary.LittleEndian
	b := append(make([]byte, 0, s.BinarySize()), snapshotMagic[:]...)
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
func ParseSnapshot(data []byte) (*Snapshot, error) {
	w := walker{snap: &Snapshot{}}
	if err := w.walk([][]byte{data}, false); err != nil {
		return nil, err
	}
	return w.snap, nil
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

// ParseSnapshotJSON decodes the forensic-file form. A snapshot the
// binary form cannot carry — a name past 64 KiB, a list past
// maxSnapshotEntries, a histogram of more than 64 Ki buckets — is
// refused as corrupt: a merge and a report read snapshots in that form.
func ParseSnapshotJSON(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	fits := len(s.Machine) <= math.MaxUint16 && len(s.Counters) <= maxSnapshotEntries && len(s.Gauges) <= maxSnapshotEntries &&
		len(s.Hists) <= maxSnapshotEntries && len(s.Sections) <= maxSnapshotEntries
	for _, v := range slices.Concat(s.Counters, s.Gauges) {
		fits = fits && len(v.Name) <= math.MaxUint16
	}
	for _, h := range s.Hists {
		fits = fits && len(h.Name) <= math.MaxUint16 && len(h.Buckets) <= math.MaxUint16
	}
	for _, sec := range s.Sections {
		fits = fits && len(sec.Name) <= math.MaxUint16 && len(sec.Data) <= math.MaxUint32
	}
	if !fits {
		return nil, fmt.Errorf("%w: too large for the binary form", ErrSnapshotCorrupt)
	}
	return s, nil
}

// Render writes the snapshot as a readable report: counters and gauges
// one per line, histograms with count, mean and p50/p95/p99 rendered
// as durations (histograms hold nanoseconds by convention), then each
// section through its renderer. It is AppendReport of the snapshot's
// binary form.
func (s *Snapshot) Render(w io.Writer) {
	b, _, _ := AppendReport(nil, s.MarshalBinary())
	_, _ = w.Write(b)
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
