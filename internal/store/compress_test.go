package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"dpm/internal/obs"
)

// compRec makes realistic meter-record traffic: a handful of event
// shapes with recurring names and monotone timestamps — the structure
// the v2 encoder exists to exploit.
func compRec(i int) (Meta, string) {
	m := Meta{
		Machine: uint16(i % 6),
		Time:    uint32(1000 + i*7),
		Type:    uint32(i%4 + 1),
		PID:     uint32(100 + i%5),
	}
	return m, recLine(m, uint64(16384+i%6), uint64(3+i%4), uint64(64+i%32))
}

// compRecs is compRec(from) .. compRec(from+n-1).
func compRecs(from, n int) []Rec {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i].Meta, recs[i].Line = compRec(from + i)
	}
	return recs
}

func fillComp(t *testing.T, st *Store, n int) map[string]Meta {
	t.Helper()
	want := make(map[string]Meta, n)
	for i := 0; i < n; i++ {
		m, line := compRec(i)
		if err := st.AppendLine(m, line); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[line] = m
	}
	return want
}

func checkRecs(t *testing.T, recs []Rec, want map[string]Meta) {
	t.Helper()
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		m, ok := want[r.Line]
		if !ok {
			t.Fatalf("unexpected line %q", r.Line)
		}
		if r.Meta != m {
			t.Fatalf("line %q: meta %+v, want %+v", r.Line, r.Meta, m)
		}
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := fillComp(t, st, 500)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	checkRecs(t, allRecs(t, be), want)

	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			if !rs.Sealed {
				t.Fatalf("segment %s not sealed", rs.Name)
			}
			if rs.RawBytes() <= rs.DiskBytes() {
				t.Fatalf("segment %s: raw %d <= disk %d, no compression",
					rs.Name, rs.RawBytes(), rs.DiskBytes())
			}
		}
	}
}

func TestCompressedRotationAndCompaction(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{Shards: 1, SegmentCap: 2048, CompactMin: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := fillComp(t, st, 400)
	if reg.Counter("store.rotations").Load() == 0 {
		t.Fatal("no rotations despite tiny segment cap")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	checkRecs(t, allRecs(t, be), want)
}

// An unsealed compressed segment must yield every acknowledged record:
// each online flush ends on a flate sync marker, so the whole file is
// a decodable prefix; a torn tail costs only unacknowledged bytes.
func TestCompressedUnsealedSalvage(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fillComp(t, st, 60)
	// No Flush: the active segment stays unsealed on the backend.
	var name string
	for _, info := range st.Segments() {
		if !info.Sealed {
			name = info.Name
		}
	}
	if name == "" {
		t.Fatal("no unsealed active segment")
	}
	data, err := be.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ParseSegment(data)
	if err != nil {
		t.Fatalf("clean unsealed parse: %v", err)
	}
	checkRecs(t, seg.Recs, want)

	// Tearing only the trailing sync marker loses nothing: every
	// acknowledged record still decodes, cleanly.
	clean, err := ParseSegment(data[:len(data)-3])
	if err != nil {
		t.Fatalf("sync-marker tear: %v", err)
	}
	checkRecs(t, clean.Recs, want)

	// Tear into the last record's compressed bytes: the prefix
	// survives (possibly with ErrTruncated naming the damage), nothing
	// is invented, and at most the unacknowledged tail is lost.
	torn, err := ParseSegment(data[:len(data)-10])
	if err != nil && !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn parse error = %v, want nil or ErrTruncated", err)
	}
	if len(torn.Recs) == 0 || len(torn.Recs) > len(want) {
		t.Fatalf("torn parse recovered %d records", len(torn.Recs))
	}
	for i, r := range torn.Recs {
		if m, ok := want[r.Line]; !ok || r.Meta != m {
			t.Fatalf("torn record %d mangled: %+v %q", i, r.Meta, r.Line)
		}
	}

	// Reopening recovers the orphan: rewritten sealed, fully indexed.
	if err := be.Create(name, data[:len(data)-10]); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Open(be, Config{Shards: 1, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("store.recovered").Load() == 0 {
		t.Fatal("no recovery recorded")
	}
	recs := allRecs(t, be)
	if len(recs) != len(torn.Recs) {
		t.Fatalf("recovered store has %d records, want %d", len(recs), len(torn.Recs))
	}
}

// A byte flipped inside a DEFLATE block of a sealed segment fails the
// scan with ErrCorrupt before any record is emitted: the stream's CRC
// catches flips that DEFLATE would happily decompress, and which of the
// records it would have garbled no reader can tell.
func TestCompressedCorruptBlock(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillComp(t, st, 300)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	rs := rd.Shards()[0][0]
	data, err := be.Read(rs.Name)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data)
	data[(len(data)-TailSize)*3/4] ^= 0x40
	seg, err := ParseSegment(data)
	if !errors.Is(err, ErrCorrupt) || !seg.Sealed {
		t.Fatalf("corrupt parse: sealed=%v, error %v; want sealed, ErrCorrupt", seg.Sealed, err)
	}
	if len(seg.Recs) != 0 {
		t.Fatalf("corrupt parse emitted %d records, want none", len(seg.Recs))
	}
}

// Load and Scan both return exactly the records written, in order, for
// every segment shape: what the offline encoder writes (encodeSealed, and
// its file unsealed) and what the store writes, sealed and unsealed.
// (Load is a Scan collected, so holding one to the other would prove
// nothing.)
func TestScanMatchesLoad(t *testing.T) {
	want := compRecs(0, 120)
	for _, offline := range []bool{true, false} {
		for _, seal := range []bool{false, true} {
			name := fmt.Sprintf("offline=%v/sealed=%v", offline, seal)
			be := NewMemBackend()
			if offline {
				data, err := newCompWriter().encodeSealed(want)
				if !seal {
					data = encodeUnsealed(want, false)
				}
				if err == nil {
					err = be.Create(segName(0, 1, 1, 0), data)
				}
				if err != nil {
					t.Fatal(err)
				}
			} else {
				st, err := Open(be, Config{Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				fillComp(t, st, len(want))
				if seal {
					if err := st.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			rd, err := OpenReader(be)
			if err != nil {
				t.Fatal(err)
			}
			rs := rd.Shards()[0][0]
			seg, err := rs.Load()
			if err != nil || seg.Sealed != seal || seg.Index != indexOf(want) {
				t.Fatalf("%s: load: sealed=%v index %+v, err %v; want sealed=%v, %+v", name, seg.Sealed, seg.Index, err, seal, indexOf(want))
			}
			d := AcquireDecoder()
			var got []Rec
			_, err = rs.Scan(d, func(m Meta, line []byte) {
				got = append(got, Rec{Meta: m, Line: string(line)})
			})
			ReleaseDecoder(d)
			if err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			if !slices.Equal(got, want) || !slices.Equal(seg.Recs, want) {
				t.Fatalf("%s: scan returned %d records and load %d of the %d written, or they differ", name, len(got), len(seg.Recs), len(want))
			}
		}
	}
}

// The warmed decode path must be allocation-free: pooled decoder,
// reused raw/line buffers, a dictionary that aliases the decoded
// payload, no per-record or per-segment garbage. This is the scan path
// queries sit in for hours.
func TestBlockDecodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillComp(t, st, 400)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	rs := rd.Shards()[0][0]
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	n := 0
	fn := func(m Meta, line []byte) { n += len(line) }
	// Warm the decoder's buffers once, then demand zero steady-state.
	if _, err := rs.Scan(d, fn); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rs.Scan(d, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed decode scan allocates %.1f/op, want 0", allocs)
	}
}

// TestStoredWriterIsDeflate: what the level-0 writer emits by hand is a
// DEFLATE stream — compress/flate reads every block's bytes back,
// whatever the sizes written, a block over 64 KiB included — and, write
// for write and flush for flush, the very bytes flate.NoCompression
// emits, so that a file cut after any flush holds a decodable prefix.
func TestStoredWriterIsDeflate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sink compSink
	var ref bytes.Buffer
	sw := storedWriter{&sink}
	fw, _ := flate.NewWriter(&ref, flate.NoCompression)
	var want []byte
	for i := 0; i < 40; i++ {
		p := make([]byte, rng.Intn(300))
		if i == 17 {
			p = make([]byte, 70000)
		}
		rng.Read(p)
		want = append(want, p...)
		sw.Write(p)
		fw.Write(p)
		// flate holds a write back until it is flushed: flush both after
		// every write, or the block boundaries differ.
		sw.Flush()
		fw.Flush()
		if !bytes.Equal(sink.buf, ref.Bytes()) {
			t.Fatalf("after write %d of %d bytes: by hand %d bytes, flate %d", i, len(p), len(sink.buf), ref.Len())
		}
		got, err := io.ReadAll(flate.NewReader(bytes.NewReader(sink.buf)))
		if !errors.Is(err, io.ErrUnexpectedEOF) || !bytes.Equal(got, want) {
			t.Fatalf("after flush %d the prefix decodes to %d of %d bytes: %v", i, len(got), len(want), err)
		}
	}
	sw.Close()
	fw.Close()
	if !bytes.Equal(sink.buf, ref.Bytes()) || sink.total != len(sink.buf) {
		t.Fatalf("closed: by hand %d bytes (total %d), flate %d", len(sink.buf), sink.total, ref.Len())
	}
	if got, err := io.ReadAll(flate.NewReader(bytes.NewReader(sink.buf))); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("closed stream decodes to %d of %d bytes: %v", len(got), len(want), err)
	}
}
