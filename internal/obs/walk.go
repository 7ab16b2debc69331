package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
	"unsafe"
)

// Snapshots are read in their binary form, where they land, by one
// walk: the report of one snapshot, or of the merge of several, is
// rendered as the walk goes (AppendReport), and the same walk fills a
// Snapshot instead (ParseSnapshot, MergeOf). A merge reads the
// name-sorted counter, gauge and histogram lists of every snapshot side
// by side, each entry of the output folded from the inputs' entries of
// its name, and hands each section group's payloads to its merger in
// one call. No Snapshot of an input is built.

// The lists of a snapshot, in their binary order.
const (
	listCounters = iota
	listGauges
	listHists
	listSections
	numLists
)

// snapReader is one snapshot's bytes, read whole once by readSnapshot:
// where each list begins, how many entries it holds, and whether each
// list is in order — counters, gauges and histograms by name, sections
// by name and version.
type snapReader struct {
	data    []byte
	machine []byte
	taken   int64
	at, n   [numLists]int
	sorted  bool
}

// readSnapshot reads data, a snapshot in its binary form, through every
// entry. Trailing bytes beyond the known lists are ignored, and
// versions newer than SnapshotVersion are read by the prefix this
// version knows; version 1 has no sections.
func readSnapshot(data []byte) (snapReader, error) {
	r := snapReader{data: data, sorted: true}
	c := NewCursor(data, ErrSnapshotCorrupt)
	if magic := c.Take(4); magic != nil && [4]byte(magic) != snapshotMagic {
		c.Fail("bad magic")
	}
	if version := c.U16(); version < 1 {
		c.Fail("version %d", version)
	} else if version < 2 {
		r.n[listSections] = -1
	}
	r.machine = c.Take(int(c.U16()))
	r.taken = c.I64()
	for list := 0; list < numLists && r.n[list] == 0 && c.Err() == nil; list++ {
		n := c.U32()
		if n > maxSnapshotEntries {
			c.Fail("%d entries in list %d", n, list)
		}
		r.at[list], r.n[list] = c.Off(), int(n)
		e := entry{c: c, left: int(n)}
		for prev := e; e.next(list); prev = e {
			r.sorted = r.sorted && (prev.left == int(n) || cmpEntries(&prev, &e, list) <= 0)
		}
		c = e.c
	}
	r.n[listSections] = max(r.n[listSections], 0)
	return r, c.Err()
}

// entry is a position in one list of a snapshot and the entry there.
type entry struct {
	c       Cursor
	left    int // entries after this one
	name    []byte
	v, sum  int64  // a value; a histogram's count and sum
	version uint16 // a section's
	data    []byte // a histogram's buckets, 9 bytes each, or a section's payload
}

// next reads the list's next entry and reports whether it had one.
func (e *entry) next(list int) bool {
	if e.left == 0 || e.c.Err() != nil {
		e.left = -1
		return false
	}
	e.left--
	e.name = e.c.Take(int(e.c.U16()))
	switch list {
	case listCounters, listGauges:
		e.v = e.c.I64()
	case listHists:
		e.v, e.sum = e.c.I64(), e.c.I64()
		e.data = e.c.Take(9 * int(e.c.U16()))
	case listSections:
		e.version = e.c.U16()
		e.data = e.c.Take(int(e.c.U32()))
	}
	return e.c.Err() == nil
}

func cmpEntries(a, b *entry, list int) int {
	if list == listSections {
		return cmp.Or(bytes.Compare(a.name, b.name), cmp.Compare(a.version, b.version))
	}
	return bytes.Compare(a.name, b.name)
}

// CheckSnapshot reports whether data is a snapshot in its binary form
// that AppendReport can read.
func CheckSnapshot(data []byte) error {
	_, err := readSnapshot(data)
	return err
}

// AppendReport appends to b the report of snaps, each a snapshot in its
// binary form: for one snapshot what Render writes of it, for several
// what Render writes of their merge (MergeOf). It returns with it what
// Residuals returns of the same snapshot. A snapshot that does not
// decode (CheckSnapshot) fails the report.
func AppendReport(b []byte, snaps ...[]byte) ([]byte, []NamedValue, error) {
	w := walker{out: b}
	if err := w.walk(snaps, len(snaps) > 1); err != nil {
		return b, nil, err
	}
	return w.out, w.terms.residuals(), nil
}

// walker is one walk: what it writes, and its scratch.
type walker struct {
	merge bool      // fold into one, sorted; else pass one snapshot through
	snap  *Snapshot // where the walk puts what it reads; nil renders into out
	out   []byte
	terms termValues
	// A histogram's buckets, and a merged one's summed.
	buckets [256]BucketCount
	counts  [256]int64
	seen    [256]bool
	// Scratch for a section group's merger.
	args [][]byte
}

func (w *walker) walk(snaps [][]byte, merge bool) error {
	w.merge = merge
	// A cluster's worth of snapshots are read from the stack.
	var rsArr [16]snapReader
	var esArr [16]entry
	var psArr [16]payload
	rs, es := rsArr[:0], esArr[:0]
	for _, data := range snaps {
		r, err := readSnapshot(data)
		if err != nil {
			return err
		}
		if merge && !r.sorted {
			r, _ = readSnapshot(sortedCopy(data))
		}
		rs, es = append(rs, r), append(es, entry{})
	}
	var machine []byte
	var taken int64
	for i := range rs {
		if i == 0 {
			machine, taken = rs[0].machine, rs[0].taken
		}
		if taken = max(taken, rs[i].taken); !bytes.Equal(rs[i].machine, machine) {
			machine = nil
		}
	}
	switch {
	case w.snap != nil:
		w.snap.Machine, w.snap.TakenUnixNano = string(machine), taken
	default:
		if len(machine) > 0 {
			w.out = append(append(append(w.out, "machine "...), machine...), '\n')
		}
		if taken != 0 {
			w.out = append(time.Unix(0, taken).UTC().AppendFormat(append(w.out, "taken "...), time.RFC3339), '\n')
		}
	}
	for list := range numLists {
		w.walkList(list, rs, es, psArr[:0])
	}
	return nil
}

// sortedCopy returns data, a snapshot whose lists are not all in
// order, re-encoded with each list stably sorted — what a merge reads
// a hand-written JSON file as.
func sortedCopy(data []byte) []byte {
	s, _ := ParseSnapshot(data)
	slices.SortStableFunc(s.Counters, cmpValueName)
	slices.SortStableFunc(s.Gauges, cmpValueName)
	slices.SortStableFunc(s.Hists, cmpHistName)
	slices.SortStableFunc(s.Sections, func(a, b Section) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Version, b.Version))
	})
	return s.MarshalBinary()
}

// walkList writes one list: a snapshot's entries as they are, or the
// merge of every snapshot's, one entry a name (a name and version for
// sections). es holds each snapshot's position in the list, and ps a
// section group's payloads.
func (w *walker) walkList(list int, rs []snapReader, es []entry, ps []payload) {
	for i := range rs {
		es[i] = entry{c: NewCursor(rs[i].data[rs[i].at[list]:], ErrSnapshotCorrupt), left: rs[i].n[list]}
		es[i].next(list)
	}
	for n := 0; ; n++ {
		var least *entry
		for i := range es {
			if e := &es[i]; e.left >= 0 && (least == nil || cmpEntries(e, least, list) < 0) {
				least = e
			}
		}
		if least == nil {
			return
		}
		if !w.merge {
			w.emit(list, least, false, n)
			least.next(list)
			continue
		}
		acc := entry{name: least.name, version: least.version}
		ps = ps[:0]
		for i := range es {
			for e := &es[i]; e.left >= 0 && cmpEntries(e, &acc, list) == 0; e.next(list) {
				acc.v += e.v
				acc.sum += e.sum
				switch list {
				case listHists:
					for c := NewCursor(e.data, ErrSnapshotCorrupt); c.Remaining() > 0; {
						b := c.U8()
						w.counts[b] += c.I64()
						w.seen[b] = true
					}
				case listSections:
					ps = append(ps, payload{e.data, i})
				}
			}
		}
		if list != listSections {
			w.emit(list, &acc, true, n)
			continue
		}
		var fn SectionMerger
		if len(rs) > 1 {
			fn = sectionMerger(sectionKey{unsafeString(acc.name), acc.version})
		}
		if cap(w.args) < len(ps) {
			w.args = make([][]byte, 0, len(ps))
		}
		for _, p := range foldGroup(fn, ps, w.args) {
			acc.data = p
			w.emit(list, &acc, false, n)
		}
	}
}

// unsafeString is b's bytes as a string, for reading only while b is.
func unsafeString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// histHeader heads the histogram rows of a report.
var histHeader = fmt.Sprintf("histograms:%31s %12s %10s %10s %10s %10s\n", "", "count", "mean", "p50", "p95", "p99")

// emit writes e, the list's entry after n others. A merged histogram's
// buckets are in counts and seen, which emit empties; any other's are
// e.data.
func (w *walker) emit(list int, e *entry, merged bool, n int) {
	if list < listHists {
		w.terms.note(list, e.name, e.v)
	}
	h := HistValue{Count: e.v, Sum: e.sum, Buckets: w.buckets[:0]}
	for c := NewCursor(e.data, ErrSnapshotCorrupt); list == listHists && !merged && c.Remaining() > 0; {
		h.Buckets = append(h.Buckets, BucketCount{c.U8(), c.I64()})
	}
	for b := 0; merged && b < len(w.seen); b++ {
		if w.seen[b] {
			h.Buckets = append(h.Buckets, BucketCount{uint8(b), w.counts[b]})
			w.counts[b], w.seen[b] = 0, false
		}
	}
	if s := w.snap; s != nil {
		switch list {
		case listCounters:
			s.Counters = append(s.Counters, NamedValue{string(e.name), e.v})
		case listGauges:
			s.Gauges = append(s.Gauges, NamedValue{string(e.name), e.v})
		case listHists:
			var buckets []BucketCount
			if len(h.Buckets) > 0 {
				buckets = append(make([]BucketCount, 0, len(h.Buckets)), h.Buckets...)
			}
			s.Hists = append(s.Hists, HistValue{Name: string(e.name), Count: e.v, Sum: e.sum, Buckets: buckets})
		case listSections:
			s.Sections = append(s.Sections, Section{string(e.name), e.version, append([]byte(nil), e.data...)})
		}
		return
	}
	b := w.out
	switch list {
	case listSections:
		w.out = appendSection(b, Section{Name: unsafeString(e.name), Version: e.version, Data: e.data})
		return
	case listHists:
		if n == 0 {
			b = append(b, histHeader...)
		}
	default:
		if n == 0 {
			b = append(b, [...]string{"counters:\n", "gauges:\n"}[list]...)
		}
	}
	b = appendInt(append(appendPadded(append(b, "  "...), e.name, 40), ' '), e.v, 12)
	if list == listHists {
		for _, ns := range [4]int64{h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)} {
			b = AppendRight(append(b, ' '), time.Duration(ns).Round(time.Microsecond).String(), 10)
		}
	}
	w.out = append(b, '\n')
}

// bucketTop is the largest observation bucket b holds.
func bucketTop(b uint8) int64 {
	switch {
	case b == 0:
		return 0
	case int(b) >= NumBuckets-1:
		return math.MaxInt64
	}
	return int64(1)<<b - 1
}

// appendPadded appends s, then spaces to width runes: fmt's %-*s.
func appendPadded(b, s []byte, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCount(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// AppendRight appends spaces, then s, to width runes: fmt's %*s.
func AppendRight[T string | []byte](b []byte, s T, width int) []byte {
	for n := utf8.RuneCountInString(string(s)); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// appendInt appends v right-aligned to width: fmt's %*d.
func appendInt(b []byte, v int64, width int) []byte {
	var digits [20]byte
	return AppendRight(b, strconv.AppendInt(digits[:0], v, 10), width)
}
