package store

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

// hookBackend is a Backend with a seam at each call the snapshot rule
// cares about: afterList runs once, after the first List returns (the
// gap between a reader's listing and its reads); failRemove makes every
// Remove fail, as a crash between a merge's Create and its Removes
// would.
type hookBackend struct {
	Backend
	afterList  func()
	failRemove bool
	lists      int
}

func (b *hookBackend) List() ([]Entry, error) {
	listed, err := b.Backend.List()
	b.lists++
	if f := b.afterList; f != nil {
		b.afterList = nil
		f()
	}
	return listed, err
}

func (b *hookBackend) Remove(name string) error {
	if b.failRemove {
		return errors.New("remove: injected failure")
	}
	return b.Backend.Remove(name)
}

// tinySegments writes n one-record sealed segments to shard 0 of a
// fresh store behind be, none of them merged, and returns the lines.
func tinySegments(t *testing.T, be Backend, n int) []string {
	t.Helper()
	st, err := Open(be, Config{Shards: 1, CompactMin: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < n; i++ {
		m := Meta{Machine: 0, Time: uint32(1000 + i), Type: 3, PID: 100}
		line := recLine(m, uint64(i))
		if err := st.AppendLine(m, line); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// snapshotLines reads every record of a snapshot of be, sorted: the
// multiset a query over it would see.
func snapshotLines(t *testing.T, be Backend) []string {
	t.Helper()
	var lines []string
	for _, r := range allRecs(t, be) {
		lines = append(lines, r.Line)
	}
	sort.Strings(lines)
	return lines
}

func segmentNames(t *testing.T, be Backend) []string {
	t.Helper()
	listed, err := be.List()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range listed {
		names = append(names, e.Name)
	}
	return names
}

// hot is the record archival's store takes first.
var hot = Meta{Machine: 0, Time: 100_000, Type: 3, PID: 100}

// merges are the two maintenance passes that replace a run of segments
// with one: each returns a store over be whose Flush performs the
// merge.
var merges = []struct {
	name string
	open func(be Backend) (*Store, error)
}{
	{"compaction", func(be Backend) (*Store, error) {
		return Open(be, Config{Shards: 1, CompactMin: 3})
	}},
	{"archival", func(be Backend) (*Store, error) {
		st, err := Open(be, Config{Shards: 1, CompactMin: 1 << 20, ArchiveAfter: 5_000})
		if err != nil {
			return nil, err
		}
		// One hot record far in the future makes the existing run cold.
		return st, st.AppendLine(hot, recLine(hot))
	}},
}

// TestOpenReaderMergeBetweenListAndRead: a live store merges a run of
// segments after a reader has listed them and before it reads them.
// The reader must notice the listing went stale and retake it, not fail
// the query — and must end up with every record exactly once.
func TestOpenReaderMergeBetweenListAndRead(t *testing.T) {
	for _, m := range merges {
		t.Run(m.name, func(t *testing.T) {
			mem := NewMemBackend()
			want := tinySegments(t, mem, 6)
			st, err := m.open(mem)
			if err != nil {
				t.Fatal(err)
			}
			before := len(segmentNames(t, mem))
			be := &hookBackend{Backend: mem, afterList: func() {
				if err := st.Flush(); err != nil {
					t.Error(err)
				}
			}}
			got := snapshotLines(t, be)
			if after := len(segmentNames(t, mem)); after >= before {
				t.Fatalf("fixture did not merge under the reader: %d segments before, %d after", before, after)
			}
			if be.lists < 3 {
				t.Fatalf("reader listed %d times: it never saw the stale listing", be.lists)
			}
			if m.name == "archival" {
				want = append(want, recLine(hot))
			}
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot across a merge:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestSnapshotBothGenerationsListed: the listing holds a merged segment
// and the run it replaced (the merge's Removes have not happened, or
// never will: a crash). A reader must serve one generation; the writer
// reopening the store must adopt one and clear the other away.
func TestSnapshotBothGenerationsListed(t *testing.T) {
	for _, m := range merges {
		t.Run(m.name, func(t *testing.T) {
			mem := NewMemBackend()
			want := tinySegments(t, mem, 6)
			be := &hookBackend{Backend: mem, failRemove: true}
			st, err := m.open(be)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if m.name == "archival" {
				want = append(want, recLine(hot))
			}
			sort.Strings(want)
			both := segmentNames(t, mem)
			if len(both) <= 6 {
				t.Fatalf("fixture holds one generation only: %v", both)
			}
			if got := snapshotLines(t, mem); !reflect.DeepEqual(got, want) {
				t.Fatalf("reader over both generations:\n got %q\nwant %q", got, want)
			}
			// The crashed writer comes back.
			if _, err := Open(mem, Config{Shards: 1, CompactMin: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			if after := segmentNames(t, mem); len(after) >= len(both)-1 {
				t.Fatalf("reopen left the replaced run on disk: %v", after)
			}
			if got := snapshotLines(t, mem); !reflect.DeepEqual(got, want) {
				t.Fatalf("after reopen:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestSnapshotTornMergeOutput: the crash landed inside the merge's
// Create, so the merged file is a torn prefix and the whole run is
// still there. The run is the truth; the torn file must not shadow it.
func TestSnapshotTornMergeOutput(t *testing.T) {
	mem := NewMemBackend()
	want := tinySegments(t, mem, 6)
	sort.Strings(want)
	be := &hookBackend{Backend: mem, failRemove: true}
	st, err := Open(be, Config{Shards: 1, CompactMin: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	const merged = "s0-000001-000006.seg"
	data, err := mem.Read(merged)
	if err != nil {
		t.Fatalf("fixture: %v (have %v)", err, segmentNames(t, mem))
	}
	if err := mem.Create(merged, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if got := snapshotLines(t, mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("reader beside a torn merge output:\n got %q\nwant %q", got, want)
	}
	if _, err := Open(mem, Config{Shards: 1, CompactMin: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, mem); len(names) != 6 {
		t.Fatalf("reopen kept the torn merge output: %v", names)
	}
	if got := snapshotLines(t, mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen:\n got %q\nwant %q", got, want)
	}
}

// ghostBackend lists, on every other List, a segment that does not
// exist — a listing that never stops going stale.
type ghostBackend struct {
	Backend
	lists int
}

func (b *ghostBackend) List() ([]Entry, error) {
	listed, err := b.Backend.List()
	if b.lists++; b.lists%2 == 1 {
		listed = append(listed, Entry{Name: "s0-000099-000099.seg"})
	}
	return listed, err
}

func TestOpenReaderRetriesAreBounded(t *testing.T) {
	mem := NewMemBackend()
	tinySegments(t, mem, 2)
	be := &ghostBackend{Backend: mem}
	if _, err := OpenReader(be); err == nil {
		t.Fatal("OpenReader succeeded over a segment that never exists")
	}
	if be.lists != 2*openReaderAttempts {
		t.Fatalf("OpenReader listed %d times, want %d attempts of list + re-list", be.lists, openReaderAttempts)
	}
	// A listed segment that is unreadable but still listed is an error
	// at once, not a stale listing.
	if err := mem.Create("s0-000099-000099.seg", nil); err != nil {
		t.Fatal(err)
	}
	bad := &unreadableBackend{Backend: mem, name: "s0-000099-000099.seg"}
	if _, err := OpenReader(bad); err == nil || bad.lists != 2 {
		t.Fatalf("unreadable listed segment: err=%v after %d lists, want an error after 2", err, bad.lists)
	}
}

type unreadableBackend struct {
	Backend
	name  string
	lists int
}

func (b *unreadableBackend) List() ([]Entry, error) { b.lists++; return b.Backend.List() }

func (b *unreadableBackend) Read(name string) ([]byte, error) {
	if name == b.name {
		return nil, errors.New("read: injected failure")
	}
	return b.Backend.Read(name)
}

func TestCurrentGeneration(t *testing.T) {
	cases := []struct {
		name       string
		listed     []segRange
		torn       []segRange
		current    []segRange
		superseded []segRange
	}{
		{"plain rotation, out of order", []segRange{{3, 3, 0}, {1, 1, 0}, {2, 2, 0}}, nil,
			[]segRange{{1, 1, 0}, {2, 2, 0}, {3, 3, 0}}, nil},
		{"merged beside its run", []segRange{{1, 1, 0}, {2, 2, 0}, {1, 3, 0}, {3, 3, 0}, {4, 4, 0}}, nil,
			[]segRange{{1, 3, 0}, {4, 4, 0}}, []segRange{{1, 1, 0}, {2, 2, 0}, {3, 3, 0}}},
		{"run half removed", []segRange{{1, 3, 0}, {3, 3, 0}, {4, 4, 0}}, nil,
			[]segRange{{1, 3, 0}, {4, 4, 0}}, []segRange{{3, 3, 0}}},
		{"archive beside hot run", []segRange{{1, 1, 0}, {2, 2, 0}, {1, 2, 1}, {3, 3, 0}}, nil,
			[]segRange{{1, 2, 1}, {3, 3, 0}}, []segRange{{1, 1, 0}, {2, 2, 0}}},
		{"archive of one segment", []segRange{{5, 5, 0}, {5, 5, 1}}, nil,
			[]segRange{{5, 5, 1}}, []segRange{{5, 5, 0}}},
		{"merge of merges", []segRange{{1, 4, 0}, {1, 8, 1}, {5, 8, 0}, {9, 9, 0}}, nil,
			[]segRange{{1, 8, 1}, {9, 9, 0}}, []segRange{{1, 4, 0}, {5, 8, 0}}},
		{"torn merge output", []segRange{{1, 1, 0}, {2, 2, 0}, {1, 2, 0}}, []segRange{{1, 2, 0}},
			[]segRange{{1, 1, 0}, {2, 2, 0}}, []segRange{{1, 2, 0}}},
		{"torn archive of one", []segRange{{5, 5, 0}, {5, 5, 1}}, []segRange{{5, 5, 1}},
			[]segRange{{5, 5, 0}}, []segRange{{5, 5, 1}}},
		{"unsealed active segment", []segRange{{1, 1, 0}, {2, 2, 0}}, []segRange{{2, 2, 0}},
			[]segRange{{1, 1, 0}, {2, 2, 0}}, nil},
	}
	for _, c := range cases {
		current, superseded := currentGeneration(c.listed,
			func(s segRange) segRange { return s },
			func(s segRange) bool {
				for _, torn := range c.torn {
					if torn == s {
						return false
					}
				}
				return true
			})
		if !reflect.DeepEqual(current, c.current) || !reflect.DeepEqual(superseded, c.superseded) {
			t.Errorf("%s: current %v superseded %v, want %v and %v", c.name, current, superseded, c.current, c.superseded)
		}
	}
}
