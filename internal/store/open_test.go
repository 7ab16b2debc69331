package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpm/internal/fsys"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// TestMemBackendReadBorrowed is fsys.TestViewBorrowed for MemBackend:
// what Read lent before concurrent Appends, a Create over the name and
// a Remove reads byte-identical throughout (under -race: no writer
// touches a lent byte), and an append on it cannot reach the file.
func TestMemBackendReadBorrowed(t *testing.T) {
	be := NewMemBackend()
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 8)
	for i := 0; i < 5; i++ { // grown by Append: spare capacity past the length
		if err := be.Append("f", chunk); err != nil {
			t.Fatal(err)
		}
	}
	lent, err := be.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat(chunk, 5)
	if !bytes.Equal(lent, want) || cap(lent) != len(lent) {
		t.Fatalf("lent len %d cap %d, want the %d bytes written and no spare capacity", len(lent), cap(lent), len(want))
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			if !bytes.Equal(lent, want) {
				t.Error("lent bytes changed under a concurrent writer")
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				if err := be.Append("f", []byte("appended beside a reader")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	if err := be.Create("f", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if err := be.Append("f", []byte(" and extended")); err != nil {
		t.Fatal(err)
	}
	if grown := append(lent, "past the end"...); &grown[0] == &lent[0] {
		t.Fatal("append on lent bytes extended the file's own array")
	}
	if got, _ := be.Read("f"); string(got) != "replaced and extended" {
		t.Fatalf("file = %q after an append on stale lent bytes", got)
	}
	if err := be.Remove("f"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	if !bytes.Equal(lent, want) {
		t.Fatal("lent bytes changed after Create and Remove of their name")
	}
}

// sealedV2Store builds a store of segments sealed segments (4 shards,
// no compaction), each holding perSegment records.
func sealedV2Store(t *testing.T, segments, perSegment int) *MemBackend {
	t.Helper()
	const shards = 4
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: shards, SegmentCap: 1 << 30, CompactMin: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for round := 0; round < segments/shards; round++ {
		for sh := 0; sh < shards; sh++ {
			for i := 0; i < perSegment; i++ {
				seq++
				m := Meta{Machine: uint16(sh), Time: uint32(round*1000 + i), Type: uint32(1 + i%3), PID: uint32(100 + i%7)}
				line := fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=%d sock=3 msgLength=%d", sh, m.Time, m.PID, 64+seq%512)
				if err := st.AppendLine(m, line); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return be
}

// TestOpenReaderNoAllocBodies gates what opening a store costs: per
// sealed segment a fixed handful of bytes — the ReaderSegment and its
// share of the listing — whatever the segment holds. No body is copied
// or decoded: four times the records per segment allocate the same.
func TestOpenReaderNoAllocBodies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation sizes")
	}
	const (
		segments         = 64
		budgetPerSegment = 512 // bytes; measured 344
	)
	perOpen := func(be *MemBackend) uint64 {
		open := func() {
			rd, err := OpenReader(be)
			if err != nil {
				t.Fatal(err)
			}
			if rd.NumSegments() != segments {
				t.Fatalf("fixture has %d segments, want %d", rd.NumSegments(), segments)
			}
		}
		const runs = 50
		open()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			open()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, big := sealedV2Store(t, segments, 50), sealedV2Store(t, segments, 200)
	a, b := perOpen(small), perOpen(big)
	t.Logf("OpenReader over %d segments: %d B/op at 50 records each, %d B/op at 200", segments, a, b)
	if a > segments*budgetPerSegment {
		t.Errorf("OpenReader allocates %d B/op, %d per segment; budget %d", a, a/segments, budgetPerSegment)
	}
	// Equal but for the odd runtime-internal allocation landing in one
	// measurement; one copied or decoded body would be kilobytes each.
	if diff := int64(b) - int64(a); diff > int64(a)/50 || diff < -int64(a)/50 {
		t.Errorf("OpenReader allocates %d B/op over 4x the records vs %d: the cost of opening depends on segment size", b, a)
	}

	rd, err := OpenReader(big)
	if err != nil {
		t.Fatal(err)
	}
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			if !rs.Sealed || rs.Index.Count != 200 {
				t.Fatalf("%s: sealed=%v count=%d, want a sealed segment of 200", rs.Name, rs.Sealed, rs.Index.Count)
			}
		}
	}
}

// parseSegNameSscanf is parseSegName as it was before the hand-written
// parser: the differential oracle. It accepted a superset of what
// segName writes (signs, missing zero padding, any shard number).
func parseSegNameSscanf(name string) (shard, start, end, tier int, ok bool) {
	if !strings.HasSuffix(name, ".seg") {
		return 0, 0, 0, 0, false
	}
	format := "s%d-%d-%d.seg"
	switch {
	case strings.HasPrefix(name, "s"):
	case strings.HasPrefix(name, "a"):
		tier, format = 1, "a%d-%d-%d.seg"
	default:
		return 0, 0, 0, 0, false
	}
	if n, err := fmt.Sscanf(name, format, &shard, &start, &end); err != nil || n != 3 {
		return 0, 0, 0, 0, false
	}
	if shard < 0 || start < 1 || end < start {
		return 0, 0, 0, 0, false
	}
	return shard, start, end, tier, true
}

// checkSegName holds parseSegName to its contract on one name: whatever
// it accepts the old parser accepted with the same result, and it is
// exactly what segName would write for that result.
func checkSegName(t *testing.T, name string) {
	t.Helper()
	shard, start, end, tier, ok := parseSegName(name)
	if !ok {
		if shard != 0 || start != 0 || end != 0 || tier != 0 {
			t.Fatalf("parseSegName(%q) rejected with non-zero results", name)
		}
		return
	}
	if s2, a2, e2, t2, ok2 := parseSegNameSscanf(name); !ok2 || s2 != shard || a2 != start || e2 != end || t2 != tier {
		t.Fatalf("parseSegName(%q) = %d %d %d %d, old parser: %d %d %d %d ok=%v", name, shard, start, end, tier, s2, a2, e2, t2, ok2)
	}
	if shard > maxShardID || start < 1 || end < start || segName(shard, start, end, tier) != name {
		t.Fatalf("parseSegName(%q) = %d %d %d %d, which segName writes as %q", name, shard, start, end, tier, segName(shard, start, end, tier))
	}
}

// TestParseSegNameDifferential: every name segName can produce parses
// back to what produced it, in agreement with the old Sscanf parser, and
// everything near such a name that segName does not write is rejected.
func TestParseSegNameDifferential(t *testing.T) {
	seqs := []int{1, 2, 9, 10, 99999, 100000, 999999, 1000000, 1000001, 123456789, 1<<31 - 1, 1 << 40, 1<<63 - 1}
	for _, shard := range []int{0, 1, 7, 9, 10, 63, 64, 255, 4096, 65534, 65535} {
		for i, start := range seqs {
			for _, end := range seqs[i:] {
				for tier := 0; tier <= 1; tier++ {
					name := segName(shard, start, end, tier)
					s, a, e, tr, ok := parseSegName(name)
					if !ok || s != shard || a != start || e != end || tr != tier {
						t.Fatalf("parseSegName(%q) = %d %d %d %d ok=%v, want %d %d %d %d", name, s, a, e, tr, ok, shard, start, end, tier)
					}
					checkSegName(t, name)
				}
			}
		}
	}
	for _, name := range []string{
		"", ".seg", "s.seg", "s0.seg", "s0-000001.seg", "s0-000001-000002", "s0-000001-000002.seg.tmp",
		"x0-000001-000002.seg", "S0-000001-000002.seg", "s-000001-000002.seg", "s0--000001-000002.seg",
		"s+0-000001-000002.seg", "s-1-000001-000002.seg", "s00-000001-000002.seg", "s01-000001-000002.seg",
		"s0-1-2.seg", "s0-00001-000002.seg", "s0-0000001-000002.seg", "s0-000001-0000002.seg",
		"s0-+00001-000002.seg", "s0-000001-+00002.seg", "s0- 00001-000002.seg", "s0-000001-000002 .seg",
		"s0-000000-000002.seg", "s0-000002-000001.seg", "s0-000001-000002-000003.seg", "s0-000001_000002.seg",
		"s0-00000a-000002.seg", "s0-000001-000002x.seg", "s0x-000001-000002.seg",
		"s65536-000001-000001.seg", "s999999999-000001-000001.seg", "a999999999-000001-000001.seg",
		"s0-000001-9223372036854775808.seg", "s0-9223372036854775808-9223372036854775808.seg",
		"s0-000001-99999999999999999999.seg", "s18446744073709551616-000001-000001.seg",
	} {
		if _, _, _, _, ok := parseSegName(name); ok {
			t.Errorf("parseSegName(%q) accepted a name segName never writes", name)
		}
		checkSegName(t, name)
	}
}

// TestParseSegNameMaxIntEdge: a sequence number is refused exactly when
// it is past math.MaxInt — one under it and it parse, one past does not,
// in the start field and in the end field.
func TestParseSegNameMaxIntEdge(t *testing.T) {
	const under, at, past = "9223372036854775806", "9223372036854775807", "9223372036854775808"
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"s0-000001-" + under + ".seg", true},
		{"s0-000001-" + at + ".seg", true},
		{"s0-000001-" + past + ".seg", false},
		{"s0-" + under + "-" + at + ".seg", true},
		{"s0-" + at + "-" + at + ".seg", true},
		{"s0-" + past + "-" + past + ".seg", false},
		{"a7-" + at + "-" + past + ".seg", false},
	} {
		_, start, end, _, ok := parseSegName(c.name)
		if ok != c.ok {
			t.Errorf("parseSegName(%q) ok = %v, want %v", c.name, ok, c.ok)
		}
		if ok && end != math.MaxInt && end != math.MaxInt-1 || ok && start > end {
			t.Errorf("parseSegName(%q) = %d-%d", c.name, start, end)
		}
		checkSegName(t, c.name)
	}
}

// FuzzParseSegName: on arbitrary names the new parser accepts a subset
// of what the old one did, with the same result, and only names that
// segName writes.
func FuzzParseSegName(f *testing.F) {
	for _, seed := range []string{
		"s0-000001-000001.seg", "a3-000001-000008.seg", "s65535-1000000-1000001.seg", "s65536-000001-000001.seg",
		"s999999999-000001-000001.seg", "s0-1-2.seg", "s+1-000001-000002.seg", "s0-000001-9223372036854775808.seg", "", ".seg",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) { checkSegName(t, name) })
}

// TestStrayShardNameIgnored: a file whose name claims an absurd shard
// must be ignored, not answered with a shard (and, compressing, a flate
// writer) per integer below it. The largest shard a name may claim is
// still opened without building an encoder per idle shard.
func TestStrayShardNameIgnored(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, st, 20)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	whole, err := be.Read(segmentNames(t, be)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, stray := range []string{"s999999999-000001-000001.seg", "a4294967296-000001-000001.seg", "s65536-000001-000001.seg", "s0-000001-9223372036854775808.seg"} {
		if err := be.Create(stray, whole); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Shards()) != 2 || len(allRecs(t, be)) != 20 {
		t.Fatalf("reader over stray names: %d shards, %d records; want 2 and 20", len(rd.Shards()), len(allRecs(t, be)))
	}
	st, err = Open(be, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.shards) != 2 || len(st.Segments()) != rd.NumSegments() {
		t.Fatalf("store over stray names: %d shards, %d segments; want 2 and %d", len(st.shards), len(st.Segments()), rd.NumSegments())
	}

	// The top of the legal range: 65536 shards, and none of the idle
	// ones may cost an encoder.
	if err := be.Create(segName(maxShardID, 1, 1, 0), whole); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err = Open(be, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(st.shards) != maxShardID+1 {
		t.Fatalf("store over a shard-%d segment has %d shards", maxShardID, len(st.shards))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("opening %d mostly idle shards allocated %d MB", len(st.shards), grew>>20)
	}
	if err := st.AppendLine(Meta{Machine: 5, Time: 1, Type: 1, PID: 1}, "SEND machine=5 cpuTime=1 procTime=0 pid=1"); err != nil {
		t.Fatalf("append to a lazily equipped shard: %v", err)
	}
}

// TestReopenNoAllocPerSegment gates what a query pays to reopen a store
// it has opened before, with records appended in between: only the
// segments appended to are read again, and the allocations are a fixed
// count and one pointer a segment of each shard appended to — nothing
// for a shard no record reached, which keeps its slice.
//
// Measured with this body on an x86-64 Linux host (Go 1.24): appending
// to both shards, 8 allocs and 1 240 B over 66 segments, 8 allocs and
// 5 272 B over 514 (9 B a segment more: the two slices' size classes
// round 2 064 B up to 2 304); appending to one shard beside 64 or 512
// segments in the other, 5 allocs and 424 B either way. A file read
// again is read by the path its listing carries: building the path at
// every read cost one allocation a file read (10 and 6). When Reopen
// copied the whole listing, the old single case (one shard appended to
// of two even ones) measured 8 allocs and 28 616 B (55 B a segment) over
// 514 segments; before segments were matched by file id, when every
// listed segment was read, 568 allocs and 66 741 B.
func TestReopenNoAllocPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation sizes")
	}
	type cost struct{ allocs, bytes, listed int }
	// measure reopens a store of two shards, sealed[s] sealed segments in
	// shard s, after each of 20 rounds that append a record to each shard
	// of to.
	measure := func(sealed [2]int, to ...int) cost {
		const runs = 20
		be := NewFsysBackend(fsys.New(), fsys.Superuser, "/usr/tmp/f.store")
		st, err := Open(be, Config{Shards: 2, CompactMin: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		add := func(machine int) {
			i++
			line := fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=100 sock=3 msgLength=%d", machine, i, 64+i%512)
			if err := st.AppendLine(Meta{Machine: uint16(machine), Time: uint32(i), Type: 1, PID: 100}, line); err != nil {
				t.Fatal(err)
			}
		}
		for sh, n := range sealed {
			for k := 0; k < n; k++ {
				add(sh)
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		rd, err := Reopen(nil, be)
		if err != nil {
			t.Fatal(err)
		}
		var c cost
		var before, after runtime.MemStats
		for r := 0; r < runs; r++ {
			for _, sh := range to {
				add(sh) // a new or grown unsealed segment
			}
			prev := rd
			runtime.ReadMemStats(&before)
			rd, err = Reopen(prev, be)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if read := rd.NumSegments() - sharedSegments(prev, rd); read != len(to) {
				t.Fatalf("%v segments: Reopen read %d files after appends to %d shards, want the ones appended to", sealed, read, len(to))
			}
			c.allocs += int(after.Mallocs - before.Mallocs)
			c.bytes += int(after.TotalAlloc - before.TotalAlloc)
		}
		c.allocs, c.bytes, c.listed = c.allocs/runs, c.bytes/runs, rd.NumSegments()
		t.Logf("Reopen over %v sealed segments, appends to shards %v: %d allocs, %d B (%d B per segment)", sealed, to, c.allocs, c.bytes, c.bytes/c.listed)
		return c
	}
	// The same count at both sizes, but for an odd runtime-internal
	// allocation landing in one measurement.
	small, big := measure([2]int{32, 32}, 0, 1), measure([2]int{256, 256}, 0, 1)
	if small.allocs > 8 {
		t.Errorf("Reopen after appends to both shards allocates %d times; want at most 8, no path built for a file it reads", small.allocs)
	}
	if big.allocs > small.allocs+2 {
		t.Errorf("Reopen after appends to every shard allocates %d times over %d segments and %d over %d: the count grows with the store", big.allocs, big.listed, small.allocs, small.listed)
	}
	// Past what the small store costs, one pointer a segment, in the
	// allocator's size classes, which round a slice up by at most an
	// eighth.
	const bytesPerSegment = 8 * 9 / 8
	if perSeg := (big.bytes - small.bytes) / (big.listed - small.listed); perSeg > bytesPerSegment {
		t.Errorf("Reopen after appends to every shard allocates %d B more per listed segment at %d segments than at %d; budget %d", perSeg, big.listed, small.listed, bytesPerSegment)
	}
	beside, besideMany := measure([2]int{8, 64}, 0), measure([2]int{8, 512}, 0)
	if besideMany.allocs > beside.allocs+2 || besideMany.bytes > beside.bytes+64 {
		t.Errorf("Reopen after an append to a shard of 9 segments allocates %d times and %d B beside %d segments, %d and %d B beside %d: the shard not appended to costs",
			besideMany.allocs, besideMany.bytes, besideMany.listed-9, beside.allocs, beside.bytes, beside.listed-9)
	}
}

// sharedSegments counts the segments of rd that are prev's own.
func sharedSegments(prev, rd *Reader) int {
	old := map[*ReaderSegment]bool{}
	for _, segs := range prev.Shards() {
		for _, rs := range segs {
			old[rs] = true
		}
	}
	n := 0
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			if old[rs] {
				n++
			}
		}
	}
	return n
}

// TestOpenRefusesOtherFormats: a segment file whose 8-byte header is not
// this format's — a payload version from the future, a v2 header
// (payload 0), a v1 file sealed and not — fails Open, OpenReader, Reopen
// and Load with ErrFormat naming the file, and no file of the store
// changes. Open used to salvage such a file: it rewrote it, under its
// own name, as an empty sealed segment, and the torn segment beside it
// would have been recovered too.
func TestOpenRefusesOtherFormats(t *testing.T) {
	recs := []Rec{{Meta{Machine: 1, Time: 5, Type: 1, PID: 7}, "SEND machine=1 cpuTime=5 procTime=0 pid=7"}}
	sealed, err := newCompWriter().encodeSealed(recs)
	if err != nil {
		t.Fatal(err)
	}
	checkRefused(t, "payload 7", withPayloadVersion(sealed, 7))
	checkRefused(t, "payload 0", withPayloadVersion(sealed, 0))
	checkRefused(t, "v1", v1File(recs, true))
	checkRefused(t, "v1 unsealed", v1File(recs, false))
}

// TestOldLayoutRefused: a segment of the layout before this one — a
// table of blocks, each its own DEFLATE stream, behind header payload
// version 1 (testdata/blocks.seg, written by that store) — is refused as
// TestOpenRefusesOtherFormats refuses any other format, sealed or cut
// short, and never taken for a torn segment of this one.
func TestOldLayoutRefused(t *testing.T) {
	old := oldLayout(t)
	checkRefused(t, "block table", old)
	checkRefused(t, "block table unsealed", old[:len(old)/2])
	if _, ok := parseTail(old); ok {
		t.Error("the old layout's footer parses as a tail")
	}
}

// TestTextLayoutRefused: a segment of the layout before this one, whose
// records could be front-coded text behind header payload version 2
// (testdata/text.seg, written by that store, three of its ten records
// text), is refused as any other format, sealed or cut short — never
// read as corrupt, which Open would salvage and rewrite.
func TestTextLayoutRefused(t *testing.T) {
	old := textLayout(t)
	checkRefused(t, "text shape", old)
	checkRefused(t, "text shape unsealed", old[:len(old)-TailSize])
}

// checkRefused holds a file of another format, placed in a store beside
// a torn segment of this one, to ErrFormat from Open, OpenReader, Reopen,
// ScanViews and Load, each naming it, with no file of the store changed.
func checkRefused(t *testing.T, what string, data []byte) {
	t.Helper()
	be := NewMemBackend()
	bad, torn := segName(0, 1, 1, 0), segName(1, 1, 1, 0)
	if err := be.Create(torn, encodeUnsealed(compRecs(0, 20), true)); err != nil {
		t.Fatal(err)
	}
	prev, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Create(bad, data); err != nil {
		t.Fatal(err)
	}
	before := backendFiles(t, be)
	refused := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s: %s: err = %v, want ErrFormat naming %s", what, op, err, bad)
		}
	}
	_, err = Open(be, Config{Shards: 2})
	refused("Open", err)
	_, err = OpenReader(be)
	refused("OpenReader", err)
	_, err = Reopen(prev, be)
	refused("Reopen", err)
	d := AcquireDecoder()
	_, err = newReaderSegment(bad, 0, 1, 1, 0, data).ScanViews(d, func(Meta, *trace.View) { t.Errorf("%s: ScanViews emitted a record", what) })
	ReleaseDecoder(d)
	refused("ScanViews", err)
	_, err = newReaderSegment(bad, 0, 1, 1, 0, data).Load()
	refused("Load", err)
	if after := backendFiles(t, be); !reflect.DeepEqual(after, before) {
		t.Errorf("%s: the store's files changed under a refused Open", what)
	}
}

// TestOpenSalvagesTornHeader: a file shorter than the header that
// begins it is a write torn inside the header, not another format: Open
// salvages it, as any torn segment, to an empty sealed one.
func TestOpenSalvagesTornHeader(t *testing.T) {
	for _, data := range [][]byte{nil, []byte(segHeader[:5])} {
		be := NewMemBackend()
		if err := be.Create(segName(0, 1, 1, 0), data); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st, err := Open(be, Config{Shards: 1, Obs: reg})
		if err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		if segs := st.Segments(); reg.Counter("store.recovered").Load() != 1 || len(segs) != 1 || !segs[0].Sealed || segs[0].Index.Count != 0 {
			t.Fatalf("%q: segments %+v, store.recovered %d; want one empty sealed segment, recovered", data, segs, reg.Counter("store.recovered").Load())
		}
		if recs := allRecs(t, be); len(recs) != 0 {
			t.Fatalf("%q: %d records read back", data, len(recs))
		}
	}
}

// TestReopenUnchangedNoAlloc: reopening a store nothing was written to
// since returns the reader it was given and allocates nothing; a write
// that lands in between is seen.
func TestReopenUnchangedNoAlloc(t *testing.T) {
	be := NewFsysBackend(fsys.New(), fsys.Superuser, "/usr/tmp/f.store")
	st, err := Open(be, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	add := func(i int) {
		line := fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=100 sock=3 msgLength=64", i%2, i)
		if err := st.AppendLine(Meta{Machine: uint16(i % 2), Time: uint32(i), Type: 1, PID: 100}, line); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		add(i)
	}
	rd, err := Reopen(nil, be)
	if err != nil {
		t.Fatal(err)
	}
	var again *Reader
	if allocs := testing.AllocsPerRun(100, func() { again, err = Reopen(rd, be) }); allocs != 0 || err != nil || again != rd {
		t.Fatalf("reopening an unchanged store: %v allocs, err %v, same reader %v", allocs, err, again == rd)
	}
	add(40)
	if again, err = Reopen(rd, be); err != nil || again == rd || again.NumSegments() < rd.NumSegments() {
		t.Fatalf("a store appended to reopened as the reader before it (err %v)", err)
	}
}
