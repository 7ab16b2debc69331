package store

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dpm/internal/obs"
)

func rec(machine uint16, t, typ, pid uint32, line string) (Meta, string) {
	return Meta{Machine: machine, Time: t, Type: typ, PID: pid}, line
}

func fill(t *testing.T, st *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		m, line := rec(uint16(i%4), uint32(i*10), uint32(i%8+1), uint32(100+i%4),
			fmt.Sprintf("line %d payload padding to some reasonable width", i))
		if err := st.AppendLine(m, line); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func allRecs(t *testing.T, be Backend) []Rec {
	t.Helper()
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	var out []Rec
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			seg, err := rs.Load()
			if err != nil {
				t.Fatalf("load %s: %v", rs.Name, err)
			}
			out = append(out, seg.Recs...)
		}
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, st, 50)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := allRecs(t, be)
	if len(recs) != 50 {
		t.Fatalf("got %d records, want 50", len(recs))
	}
	// Every record must land on the shard its machine routes to, with
	// its metadata intact.
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.Line] {
			t.Fatalf("duplicate record %q", r.Line)
		}
		seen[r.Line] = true
		if !strings.HasPrefix(r.Line, "line ") {
			t.Fatalf("mangled line %q", r.Line)
		}
	}
}

func TestStoreRotation(t *testing.T) {
	be := NewMemBackend()
	// A tiny cap so a handful of appends rotates; a huge CompactMin so
	// compaction stays out of the way.
	reg := obs.NewRegistry()
	st, err := Open(be, Config{Shards: 1, SegmentCap: 256, CompactMin: 1 << 20, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, st, 40)
	if reg.Counter("store.rotations").Load() == 0 {
		t.Fatal("no rotations despite tiny segment cap")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumSegments() < 2 {
		t.Fatalf("got %d segments, want several", rd.NumSegments())
	}
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			if !rs.Sealed {
				t.Fatalf("segment %s not sealed after Flush", rs.Name)
			}
			if rs.Index.Count == 0 {
				t.Fatalf("segment %s has empty index", rs.Name)
			}
		}
	}
	if len(allRecs(t, be)) != 40 {
		t.Fatal("records lost across rotation")
	}
}

func TestStoreCompaction(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{Shards: 1, SegmentCap: 10 << 10, CompactMin: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Seal lots of tiny segments by flushing after every append; the
	// trailing run of small segments should collapse.
	for i := 0; i < 9; i++ {
		m, line := rec(0, uint32(i), 1, 100, fmt.Sprintf("tiny %d", i))
		if err := st.AppendLine(m, line); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Counter("store.compactions").Load() == 0 {
		t.Fatal("no compactions despite many tiny sealed segments")
	}
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	if n := rd.NumSegments(); n >= 9 {
		t.Fatalf("compaction did not reduce segment count: %d", n)
	}
	recs := allRecs(t, be)
	if len(recs) != 9 {
		t.Fatalf("got %d records after compaction, want 9", len(recs))
	}
	// Compaction must preserve append order within the shard.
	for i, r := range recs {
		if want := fmt.Sprintf("tiny %d", i); r.Line != want {
			t.Fatalf("record %d = %q, want %q", i, r.Line, want)
		}
	}
}

// A writer "crashed" without Flush: its active segment has no tail and
// its last record is torn. (What a crash
// leaves of a segment the online writer writes:
// TestCompressedUnsealedSalvage, TestTornTypedTailSalvage.)
func TestStoreRecovery(t *testing.T) {
	be := NewMemBackend()
	var recs []Rec
	for i := 0; i < 10; i++ {
		recs = append(recs, Rec{Meta{Machine: 0, Time: uint32(i * 10), Type: 1, PID: 100}, fmt.Sprintf("line %d of a crashed writer", i)})
	}
	if err := be.Create(segName(0, 1, 1, 0), encodeUnsealed(recs, true)); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st2, err := Open(be, Config{Shards: 1, Obs: reg})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if got := reg.Counter("store.recovered").Load(); got != 1 {
		t.Fatalf("store.recovered = %d, want 1", got)
	}
	if got := allRecs(t, be); !slices.Equal(got, recs[:9]) {
		t.Fatalf("got %d records after recovery, want the first 9 (torn final append dropped)", len(got))
	}
	// The salvage must be sealed and indexed so later queries can prune.
	rd, _ := OpenReader(be)
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			if !rs.Sealed {
				t.Fatalf("recovered segment %s is not sealed", rs.Name)
			}
		}
	}
	// And the recovered store keeps accepting appends past the salvage.
	m, line := rec(0, 999, 1, 100, "after recovery")
	if err := st2.AppendLine(m, line); err != nil {
		t.Fatal(err)
	}
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(allRecs(t, be)) != 10 {
		t.Fatal("append after recovery lost")
	}
}

func TestParseSegmentSealedCorruption(t *testing.T) {
	var recs []Rec
	for i := 0; i < 5; i++ {
		recs = append(recs, Rec{Meta{Machine: 1, Time: uint32(i), Type: 1, PID: 7}, fmt.Sprintf("line %d", i)})
	}
	sealed, err := newCompWriter().encodeSealed(recs)
	if err != nil {
		t.Fatal(err)
	}

	seg, err := ParseSegment(sealed)
	if err != nil || !seg.Sealed || len(seg.Recs) != 5 {
		t.Fatalf("clean sealed parse: %v sealed=%v recs=%d", err, seg.Sealed, len(seg.Recs))
	}

	// Flip a payload byte inside a sealed segment's stream: the stream
	// CRC fails and the damage is corruption (it cannot be a torn append
	// — the tail was written after the stream), so no record is trusted.
	bad := append([]byte(nil), sealed...)
	bad[(len(bad)-TailSize)/2] ^= 0xff
	seg, err = ParseSegment(bad)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed corruption: got %v, want ErrCorrupt", err)
	}
	if len(seg.Recs) != 0 {
		t.Fatalf("corrupt sealed segment gave %d records, want none", len(seg.Recs))
	}
}

func TestParseSegmentUnsealedTruncation(t *testing.T) {
	var recs []Rec
	for i := 0; i < 5; i++ {
		recs = append(recs, Rec{Meta{Machine: 1, Time: uint32(i)}, fmt.Sprintf("line %d", i)})
	}
	// Clean unsealed scan: an active segment.
	seg, err := ParseSegment(encodeUnsealed(recs, false))
	if err != nil || seg.Sealed || len(seg.Recs) != 5 {
		t.Fatalf("clean unsealed parse: %v sealed=%v recs=%d", err, seg.Sealed, len(seg.Recs))
	}
	if seg.Index.Count != 5 {
		t.Fatalf("unsealed scan index count = %d, want 5", seg.Index.Count)
	}
	// A torn tail: the valid prefix survives with ErrTruncated.
	seg, err = ParseSegment(encodeUnsealed(recs, true))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn tail: got %v, want ErrTruncated", err)
	}
	if len(seg.Recs) != 4 {
		t.Fatalf("torn tail prefix = %d records, want 4", len(seg.Recs))
	}
}

func TestDirBackend(t *testing.T) {
	be := NewDirBackend(t.TempDir())
	st, err := Open(be, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, st, 20)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// A fresh backend over the same directory sees the same store — the
	// dpquery offline path.
	recs := allRecs(t, NewDirBackend(be.root))
	if len(recs) != 20 {
		t.Fatalf("got %d records through DirBackend, want 20", len(recs))
	}
	for _, name := range []string{"../escape.seg", "a/b.seg", ".hidden"} {
		if err := be.Create(name, nil); err == nil {
			t.Fatalf("Create(%q) accepted a bad name", name)
		}
	}
}

func TestSegName(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ok    bool
		shard int
		tier  int
	}{
		{"s0-000001-000001.seg", true, 0, 0},
		{"s3-000007-000010.seg", true, 3, 0},
		{"a1-000002-000009.seg", true, 1, 1},
		{"s0-000002-000001.seg", false, 0, 0}, // end < start
		{"junk.seg", false, 0, 0},
		{"s0-000001-000001.log", false, 0, 0},
		{"b0-000001-000001.seg", false, 0, 0}, // unknown tier prefix
	} {
		sh, _, _, tier, ok := parseSegName(tc.name)
		if ok != tc.ok || (ok && (sh != tc.shard || tier != tc.tier)) {
			t.Fatalf("parseSegName(%q) = shard %d tier %d ok %v", tc.name, sh, tier, ok)
		}
	}
	if got := segName(2, 3, 4, 0); got != "s2-000003-000004.seg" {
		t.Fatalf("segName = %q", got)
	}
	if got := segName(2, 3, 4, 1); got != "a2-000003-000004.seg" {
		t.Fatalf("segName = %q", got)
	}
}
