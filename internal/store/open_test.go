package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"
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

// sealedV2Store builds a store of segments sealed v2 segments (4 shards,
// no compaction), each holding perSegment records.
func sealedV2Store(t *testing.T, segments, perSegment int) *MemBackend {
	t.Helper()
	const shards = 4
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: shards, SegmentCap: 1 << 30, CompactMin: 1 << 30, BlockTarget: 1024})
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
				if err := st.Append(m, line); err != nil {
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
// or decoded: four times the records per segment allocate the same, and
// no footer body is decoded until a scan asks.
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
			if !rs.Sealed || rs.FormatVersion() != 3 || rs.Index.Count != 200 {
				t.Fatalf("%s: sealed=%v v%d count=%d, want a sealed v3 segment of 200", rs.Name, rs.Sealed, rs.FormatVersion(), rs.Index.Count)
			}
			if rs.BodyDecoded() {
				t.Fatalf("%s: OpenReader decoded the footer body", rs.Name)
			}
		}
	}
	first := rd.Shards()[0][0]
	if len(first.Blocks()) < 2 || !first.BodyDecoded() {
		t.Fatalf("%s: Blocks() = %d blocks, decoded=%v", first.Name, len(first.Blocks()), first.BodyDecoded())
	}
	if rd.Shards()[0][1].BodyDecoded() {
		t.Fatal("decoding one segment's footer body decoded another's")
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
	if err := st.Append(Meta{Machine: 5, Time: 1, Type: 1, PID: 1}, "SEND machine=5 cpuTime=1 procTime=0 pid=1"); err != nil {
		t.Fatalf("append to a lazily equipped shard: %v", err)
	}
}

// resealV2 recomputes, in place, the body CRC and the tail CRC of a v2
// segment whose footer body was edited without changing its length.
func resealV2(seg []byte) {
	le := binary.LittleEndian
	t := seg[len(seg)-FooterV2Size:]
	dataLen, bodyLen := int(le.Uint32(t[48:52])), int(le.Uint32(t[52:56]))
	le.PutUint32(t[64:68], crc32.ChecksumIEEE(seg[dataLen:dataLen+bodyLen]))
	le.PutUint32(t[68:72], crc32.ChecksumIEEE(t[:68]))
}

// undecodableBody rewrites a sealed v2 segment so that its tail still
// verifies — own CRC, length equation, body CRC — over a footer body
// that does not decode (a dictionary count beyond the limit). No writer
// produces this; a crafted or bit-rotted-and-rechecksummed file can.
func undecodableBody(t testing.TB, seg []byte) []byte {
	t.Helper()
	f, ok := parseFooterV2(seg)
	if !ok || f.bodyLen < 3 {
		t.Fatalf("fixture is not a sealed v2 segment with a body (ok=%v bodyLen=%d)", ok, f.bodyLen)
	}
	out := bytes.Clone(seg)
	copy(out[f.DataLen:], []byte{0xff, 0xff, 0x7f}) // uvarint 2097151 dictionary entries
	resealV2(out)
	return out
}

// TestUndecodableBodyDegradesAtScan: the tail alone seals the segment
// for OpenReader — index and all — and the first scan finds the body
// undecodable and salvages the block streams, exactly as a reader that
// had parsed the whole footer up front (and so never believed the seal)
// would have: same records, same ScanStats, ErrTruncated.
func TestUndecodableBodyDegradesAtScan(t *testing.T) {
	good := fuzzSeedV2()
	bad := undecodableBody(t, good)
	// The reference: the same file with the tail's CRC broken, which no
	// reader ever took for sealed.
	unsealed := bytes.Clone(bad)
	unsealed[len(unsealed)-1] ^= 0xff

	scan := func(data []byte) (lines []string, st ScanStats, sealed bool, err error) {
		be := NewMemBackend()
		if err := be.Create(segName(0, 1, 1, 0), data); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenReader(be)
		if err != nil {
			t.Fatal(err)
		}
		rs := rd.Shards()[0][0]
		d := AcquireDecoder()
		defer ReleaseDecoder(d)
		st, err = rs.Scan(d, func(Index) bool { return true }, func(_ Meta, line []byte) { lines = append(lines, string(line)) })
		if rs.Blocks() != nil {
			t.Fatalf("Blocks() of a segment without a decodable table = %v", rs.Blocks())
		}
		return lines, st, rs.Sealed, err
	}
	wantLines, wantStats, sealed, wantErr := scan(unsealed)
	if sealed || len(wantLines) != 40 || !errors.Is(wantErr, ErrTruncated) {
		t.Fatalf("reference scan: sealed=%v %d records err=%v, want an unsealed salvage of 40 ending in ErrTruncated", sealed, len(wantLines), wantErr)
	}
	lines, st, sealed, err := scan(bad)
	if !sealed {
		t.Fatal("a verifying tail did not seal the segment for OpenReader")
	}
	if !errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over an undecodable body: err = %v, want ErrTruncated", err)
	}
	if st != wantStats || strings.Join(lines, "\n") != strings.Join(wantLines, "\n") {
		t.Fatalf("scan over an undecodable body: %d records %+v, want %d records %+v", len(lines), st, len(wantLines), wantStats)
	}

	// Load, the same scan collected, and so Open's recovery, treat it the
	// same.
	seg, err := ParseSegment(bad)
	if seg.Sealed || len(seg.Recs) != 40 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("Load: sealed=%v %d records err=%v, want an unsealed salvage of 40", seg.Sealed, len(seg.Recs), err)
	}
}
