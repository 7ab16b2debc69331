package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dpm/internal/obs"
	"dpm/internal/trace"
)

// The oracle: the cold rewrite as it was before it streamed — every
// input parsed into []Rec, the records re-encoded with one DEFLATE
// write per record by a writer built for the occasion. Kept here as the
// reference the streamed rewrite is compared against.

// oracleReadRun parses the named segments, each into its run of records,
// and returns the runs, all their records, their index and their
// v1-equivalent size.
func oracleReadRun(t *testing.T, be Backend, names []string) (runs [][]Rec, recs []Rec, x Index, rawBytes int) {
	t.Helper()
	for _, name := range names {
		data, err := be.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := ParseSegment(data)
		if err != nil {
			t.Fatalf("oracle parse %s: %v", name, err)
		}
		for _, r := range seg.Recs {
			x.Add(r.Meta)
			rawBytes += FrameSize(len(r.Line))
		}
		runs = append(runs, seg.Recs)
		recs = append(recs, seg.Recs...)
	}
	return runs, recs, x, rawBytes
}

// TestArchiveEncodersKeptAcrossGCNoAlloc: an archive encoder given back
// survives two collections, and the next archive's take is a hit that
// allocates nothing: not the megabyte of a new flate.Writer.
func TestArchiveEncodersKeptAcrossGCNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	reg := obs.NewRegistry()
	st := archiveEncoders.Stats(reg)
	archiveEncoders.Put(archiveEncoders.Take(0, st), st)
	runtime.GC()
	runtime.GC()
	hits := reg.Counter("mem.encoders.hits")
	before := hits.Load()
	if n := testing.AllocsPerRun(10, func() { archiveEncoders.Put(archiveEncoders.Take(0, st), st) }); n != 0 {
		t.Fatalf("an archive encoder's take and give back allocate %v times", n)
	}
	if hits := hits.Load() - before; hits != 11 {
		t.Fatalf("%d of 11 takes after the collections hit", hits)
	}
}

// tierWriter is the encoder a rewrite into the tier uses.
func tierWriter(tier int) *compWriter {
	if tier == 0 {
		return newCompWriter()
	}
	return archiveEncoders.New(0)
}

func oracleEncode(t *testing.T, runs [][]BatchRec, tier int) []byte {
	t.Helper()
	w := tierWriter(tier)
	w.openSegment()
	var x Index
	rawTotal := 0
	for _, run := range runs {
		for _, r := range run {
			w.stage(r.Meta, r.Line, r.Slots)
			if err := w.flushStaged(false); err != nil {
				t.Fatal(err)
			}
			x.Add(r.Meta)
			rawTotal += FrameSize(len(r.Line))
		}
	}
	out, _, err := w.seal(x, rawTotal)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// appendSealed appends compRec(from..from+n) and seals them into one
// segment.
func appendSealed(t *testing.T, st *Store, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		m, line := compRec(i)
		if err := st.AppendLine(m, line); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

// createEncoded writes the records as shard 0's sealed segment number
// seq, encoded offline (encodeSealed) in one DEFLATE write, where the
// store writes each batch it is handed.
func createEncoded(t *testing.T, be Backend, seq int, recs []BatchRec) {
	t.Helper()
	data, err := newCompWriter().encodeRuns(recs)
	if err == nil {
		err = be.Create(segName(0, seq, seq, 0), data)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// sealedTail parses the tail of a sealed segment.
func sealedTail(t *testing.T, data []byte) tail {
	t.Helper()
	f, ok := parseTail(data)
	if !ok {
		t.Fatal("not a sealed segment")
	}
	return f
}

// coldNow is a cpuTime far enough ahead of everything compRec makes
// that one record there turns every earlier segment cold.
const (
	coldNow     = 50_000_000
	coldArchive = 1_000_000
)

// The streamed rewrite produces what the materializing one did: the
// same records in the same order under the same index, v1-equivalent
// size and decoded payload length — for archival and for compaction,
// over inputs encoded offline, the store's own and a run of both.
func TestStreamedRewriteMatchesOracle(t *testing.T) {
	base := Config{Shards: 1, CompactMin: 1 << 20}
	// "v1" in a case's name stands for inputs encoded offline
	// (createEncoded), where files of the v1 format once stood; "v2" for
	// the store's own.
	const v1, v3 = true, false
	cases := []struct {
		name string
		v1   []bool // one sealed input segment per entry: encoded offline?
		tier int
	}{
		{"archive/v1", []bool{v1, v1, v1}, 1},
		{"archive/v2", []bool{v3, v3, v3}, 1},
		{"archive/mixed", []bool{v1, v3, v1, v3}, 1},
		{"compact/v1", []bool{v1, v1, v1}, 0},
		{"compact/v2", []bool{v3, v3, v3}, 0},
		{"compact/mixed", []bool{v1, v3, v3}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be := NewMemBackend()
			for n, v1 := range tc.v1 {
				if v1 {
					createEncoded(t, be, n+1, lineRecs(compRecs(n*40, 40)))
					continue
				}
				st, err := Open(be, base)
				if err != nil {
					t.Fatal(err)
				}
				appendSealed(t, st, n*40, 40)
			}
			names := segmentNames(t, be)
			if len(names) != len(tc.v1) {
				t.Fatalf("built %v, want %d segments", names, len(tc.v1))
			}
			runs, recs, x, raw := oracleReadRun(t, be, names)
			var typedRuns [][]BatchRec
			for _, run := range runs {
				typedRuns = append(typedRuns, lineRecs(run))
			}
			want := oracleEncode(t, typedRuns, tc.tier)

			cfg := base
			cfg.Obs = obs.NewRegistry()
			if tc.tier == 1 {
				cfg.ArchiveAfter = coldArchive
			} else {
				cfg.CompactMin = len(names)
				cfg.SegmentCap = 1 << 20 // everything built above is "small"
			}
			st, err := Open(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tier == 1 {
				if err := st.AppendLine(Meta{Time: coldNow, Type: 1}, "now"); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := cfg.Obs.Counter("store.maintain_errors").Load(); got != 0 {
				t.Fatalf("store.maintain_errors = %d", got)
			}

			merged := segName(0, 1, len(names), tc.tier)
			got, err := be.Read(merged)
			if err != nil {
				t.Fatalf("no merged segment: %v (have %v)", err, segmentNames(t, be))
			}
			for _, name := range names {
				if _, err := be.Read(name); err == nil && name != merged {
					t.Errorf("input %s survived the rewrite", name)
				}
			}
			seg, err := ParseSegment(got)
			if err != nil || !seg.Sealed {
				t.Fatalf("merged segment: sealed=%v err=%v", seg.Sealed, err)
			}
			if !reflect.DeepEqual(seg.Recs, recs) {
				t.Fatalf("merged segment holds %d records, oracle %d, or they differ", len(seg.Recs), len(recs))
			}
			if seg.Index != x {
				t.Fatalf("index %+v, oracle %+v", seg.Index, x)
			}
			info := st.Segments()[0]
			if info.Name != merged || info.Bytes != raw || info.Index != x || info.DiskBytes != len(got) || info.Tier != tc.tier {
				t.Fatalf("segment info %+v, want %s with %d raw bytes, %d on disk", info, merged, raw, len(got))
			}
			gotTail, wantTail := sealedTail(t, got), sealedTail(t, want)
			if gotTail.RawTotal != raw || wantTail.RawTotal != raw {
				t.Fatalf("tail raw total %d, oracle's %d, oracle %d", gotTail.RawTotal, wantTail.RawTotal, raw)
			}
			wantSeg, err := ParseSegment(want)
			if err != nil || !reflect.DeepEqual(wantSeg.Recs, seg.Recs) {
				t.Fatalf("oracle output does not parse to the same records: %v", err)
			}
			if gotTail.RawLen != wantTail.RawLen || gotTail.Index != wantTail.Index {
				t.Fatalf("payloads differ:\n got  %+v\n want %+v", gotTail, wantTail)
			}
		})
	}
}

// TestRewriteTranscodesTyped: a rewrite moves the records its inputs
// hold as the views they decode to, and the file it writes is, byte for
// byte, the one encoding the same records afresh writes — every kind of
// record the filter hands over, names no line spells among them,
// archived and compacted, with and without inputs encoded offline in one
// DEFLATE write ("v1" in a case's name, where files of the v1 format
// once stood).
func TestRewriteTranscodesTyped(t *testing.T) {
	base := Config{Shards: 1, CompactMin: 1 << 20, SegmentCap: 1 << 30}
	const v1, v3 = true, false
	all := shapeRecs(rand.New(rand.NewSource(2)), 1600)
	for _, tc := range []struct {
		name string
		v1   []bool // one sealed input segment per entry: encoded offline?
		tier int
	}{
		{"archive/v3", []bool{v3, v3, v3, v3, v3, v3, v3, v3}, 1},
		{"archive/v3+v1", []bool{v3, v1, v3, v3, v1, v3, v3, v3}, 1},
		{"compact/v3", []bool{v3, v3, v3, v3, v3, v3, v3, v3}, 0},
		{"compact/v3+v1", []bool{v1, v3, v3, v1, v3, v3, v3, v3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := NewMemBackend()
			per := len(all) / len(tc.v1)
			var runs [][]BatchRec
			for n, v1 := range tc.v1 {
				runs = append(runs, shapeBatch(all[n*per:(n+1)*per]))
				if v1 {
					createEncoded(t, be, n+1, runs[n])
					continue
				}
				st, err := Open(be, base)
				if err != nil {
					t.Fatal(err)
				}
				// Small batches: the online writer flushes only between them.
				var batch []BatchRec
				for i, r := range runs[n] {
					if batch = append(batch, r); len(batch) >= 1+i%5 {
						if err := st.AppendBatch(batch); err != nil {
							t.Fatal(err)
						}
						batch = batch[:0]
					}
				}
				if err := st.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			recs, in := scanAll(t, be)
			if len(recs) != len(all) || in.Streams != len(tc.v1) {
				t.Fatalf("inputs hold %d of %d records in %d streams", len(recs), len(all), in.Streams)
			}
			for i, r := range all {
				if recs[i] != r.Rec {
					t.Fatalf("input record %d (%s) is %+v, stored %+v", i, r.kind, recs[i], r.Rec)
				}
			}

			cfg := base
			cfg.Obs = obs.NewRegistry()
			if tc.tier == 1 {
				cfg.ArchiveAfter = coldArchive
			} else {
				cfg.CompactMin = len(tc.v1)
			}
			// What encoding the same records afresh writes.
			want, err := tierWriter(tc.tier).encodeRuns(runs...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tier == 1 && !bytes.Equal(want, oracleEncode(t, runs, tc.tier)) {
				t.Fatal("the encoder and the oracle disagree on the archive's bytes")
			}
			st, err := Open(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.tier == 1 {
				if err := st.AppendLine(Meta{Time: coldNow, Type: 1}, "now"); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			merged := segName(0, 1, len(tc.v1), tc.tier)
			got, err := be.Read(merged)
			if err != nil {
				t.Fatalf("no merged segment: %v (have %v)", err, segmentNames(t, be))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("the rewrite wrote %d bytes that are not the %d a fresh encode writes", len(got), len(want))
			}

			rs := newReaderSegment(merged, 0, 1, len(tc.v1), tc.tier, got)
			d := AcquireDecoder()
			defer ReleaseDecoder(d)
			i := 0
			out, err := rs.Scan(d, func(m Meta, line []byte) {
				if (Rec{m, string(line)}) != recs[i] {
					t.Fatalf("record %d (%s) came out as %+v %q, went in as %+v", i, all[i].kind, m, line, recs[i])
				}
				i++
			})
			if err != nil || out.Records != len(recs) {
				t.Fatalf("output scan: %v, %+v; want %d records", err, out, len(recs))
			}
			reg := cfg.Obs
			if typed := reg.Counter("store.rewrite_records_typed").Load(); typed != int64(out.Records) {
				t.Fatalf("store.rewrite_records_typed = %d, the reader counts %d", typed, out.Records)
			}
			if n := reg.Counter("store.maintain_errors").Load(); n != 0 {
				t.Fatalf("store.maintain_errors = %d", n)
			}
		})
	}
}

// TestRewriteSizesByInputs: a rewrite sizes its output by its inputs,
// not record by record. After a compaction and an archive run, typed and
// text records alike, the merged segment's Bytes, its tail's raw
// total, the sum of its inputs' Bytes and the v1-equivalent size of its
// records (FrameSize) are one number, and store.raw_bytes — counted as
// each input was sealed, never again by a rewrite — advanced by exactly
// it. A segment Open salvages is sized at the file it was salvaged from:
// its size on disk.
func TestRewriteSizesByInputs(t *testing.T) {
	const inputs = 5
	all := shapeRecs(rand.New(rand.NewSource(5)), inputs*60)
	for _, tier := range []int{0, 1} {
		reg := obs.NewRegistry()
		be := NewMemBackend()
		cfg := Config{Shards: 1, CompactMin: 1 << 20, Obs: reg}
		st, err := Open(be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < inputs; n++ {
			for _, r := range all[n*60 : (n+1)*60] {
				if err := st.AppendBatch([]BatchRec{r.batchRec()}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		sumIn := 0
		for _, info := range st.Segments() {
			sumIn += info.Bytes
		}
		_, _, _, oracle := oracleReadRun(t, be, segmentNames(t, be))
		if tier == 1 {
			cfg.ArchiveAfter = coldArchive
		} else {
			cfg.CompactMin = inputs
		}
		if st, err = Open(be, cfg); err != nil {
			t.Fatal(err)
		}
		if tier == 1 {
			if err := st.AppendLine(Meta{Time: coldNow, Type: 1}, "now"); err != nil {
				t.Fatal(err)
			}
			err = st.Maintain()
		} else {
			err = st.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		merged := st.Segments()[0]
		data, err := be.Read(merged.Name)
		if err != nil {
			t.Fatal(err)
		}
		raw := sealedTail(t, data).RawTotal
		if merged.Tier != tier || merged.End != inputs {
			t.Fatalf("tier %d: first segment %+v is not the merged run", tier, merged)
		}
		if merged.Bytes != sumIn || raw != sumIn || oracle != sumIn {
			t.Fatalf("tier %d: Bytes %d, tail raw total %d, oracle %d; the inputs' Bytes sum to %d", tier, merged.Bytes, raw, oracle, sumIn)
		}
		if got := reg.Counter("store.raw_bytes").Load(); got != int64(sumIn) {
			t.Fatalf("tier %d: store.raw_bytes = %d, want the inputs' %d", tier, got, sumIn)
		}
	}

	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all[:60] {
		if err := st.AppendLine(r.Meta, r.Line); err != nil {
			t.Fatal(err)
		}
	}
	name := segName(0, 1, 1, 0)
	data, err := be.Read(name)
	torn := len(data) - 10 // cut inside its last flush
	if err == nil {
		err = be.Create(name, data[:torn])
	}
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if st, err = Open(be, Config{Shards: 1, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.recovered").Load(); got != 1 {
		t.Fatalf("store.recovered = %d, want the torn segment", got)
	}
	salvaged := st.Segments()[0]
	if data, err = be.Read(name); err != nil {
		t.Fatal(err)
	}
	if raw := sealedTail(t, data).RawTotal; salvaged.Bytes != torn || raw != torn {
		t.Fatalf("salvaged segment: Bytes %d, tail raw total %d; want the torn file's %d bytes on disk", salvaged.Bytes, raw, torn)
	}
}

// stuckBackend refuses the next refuse calls of Remove.
type stuckBackend struct {
	Backend
	refuse int
}

func (b *stuckBackend) Remove(name string) error {
	if b.refuse > 0 {
		b.refuse--
		return errors.New("remove refused")
	}
	return b.Backend.Remove(name)
}

// An input the backend will not remove once the merged file is written
// is counted, not swallowed: the rewrite stands, the run is replaced,
// the superseded file left behind hides behind the archive that covers
// it, and the archive is not archived again.
func TestRewriteCountsFailedRemove(t *testing.T) {
	be := &stuckBackend{Backend: NewMemBackend()}
	reg := obs.NewRegistry()
	st, err := Open(be, Config{
		Shards: 1, CompactMin: 1 << 20,
		ArchiveAfter: coldArchive, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]Meta)
	for n := 0; n < 3; n++ {
		appendSealed(t, st, n*40, 40)
	}
	for i := 0; i < 120; i++ {
		m, line := compRec(i)
		want[line] = m
	}
	now := Meta{Time: coldNow, Type: 1}
	if err := st.AppendLine(now, recLine(now)); err != nil {
		t.Fatal(err)
	}
	want[recLine(now)] = now
	be.refuse = 1
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush with one input stuck = %v, want the rewrite to stand", err)
	}
	if got := reg.Counter("store.maintain_errors").Load(); got != 1 {
		t.Fatalf("store.maintain_errors = %d, want 1", got)
	}
	if got := reg.Counter("store.archive_runs").Load(); got != 1 {
		t.Fatalf("store.archive_runs = %d, want 1", got)
	}
	archive, stuck := segName(0, 1, 3, 1), segName(0, 1, 1, 0)
	if names := segmentNames(t, be); !reflect.DeepEqual(names, []string{archive, stuck, segName(0, 4, 4, 0)}) {
		t.Fatalf("files %v, want the archive, the input that stuck and the hot segment", names)
	}
	if segs := st.Segments(); len(segs) != 2 || segs[0].Name != archive || segs[0].Index.Count != 120 {
		t.Fatalf("segment list %+v, want the archive and the hot segment", segs)
	}
	checkRecs(t, allRecs(t, be), want) // every record, and no line twice

	before := backendFiles(t, be)
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.archive_runs").Load(); got != 1 {
		t.Fatalf("store.archive_runs = %d after another pass: the archive was archived again", got)
	}
	if got := reg.Counter("store.maintain_errors").Load(); got != 1 {
		t.Fatalf("store.maintain_errors = %d after a pass with nothing to do", got)
	}
	if after := backendFiles(t, be); !reflect.DeepEqual(after, before) {
		t.Fatalf("files changed on a pass with nothing to do: %v", segmentNames(t, be))
	}
}

// flipBackend lends a damaged copy of one file: the byte at offset off
// of name reads inverted while bad is set. The file itself is intact.
type flipBackend struct {
	Backend
	name string
	off  int
	bad  bool
}

func (b *flipBackend) Read(name string) ([]byte, error) {
	data, err := b.Backend.Read(name)
	if err != nil || !b.bad || name != b.name {
		return data, err
	}
	data = append([]byte(nil), data...)
	data[b.off] ^= 0xFF
	return data, nil
}

func backendFiles(t *testing.T, be Backend) map[string]string {
	t.Helper()
	files := make(map[string]string)
	for _, name := range segmentNames(t, be) {
		data, err := be.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(data)
	}
	return files
}

// A sealed input whose stream no longer matches its CRC fails the
// rewrite before any file is written or removed; the run stands and is
// archived once the segment reads true again.
func TestRewriteCorruptInputTouchesNothing(t *testing.T) {
	mem := NewMemBackend()
	be := &flipBackend{Backend: mem, name: segName(0, 2, 2, 0), off: headerSize + 5}
	reg := obs.NewRegistry()
	st, err := Open(be, Config{
		Shards: 1, CompactMin: 1 << 20,
		ArchiveAfter: coldArchive, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		appendSealed(t, st, n*40, 40)
	}
	if err := st.AppendLine(Meta{Time: coldNow, Type: 1}, "now"); err != nil {
		t.Fatal(err)
	}
	be.bad = true
	before, segsBefore := backendFiles(t, mem), st.Segments()
	if err := st.Flush(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Flush over a corrupt cold segment = %v, want ErrCorrupt", err)
	}
	if err := st.Maintain(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Maintain over a corrupt cold segment = %v, want ErrCorrupt", err)
	}
	if got := reg.Counter("store.maintain_errors").Load(); got != 2 {
		t.Fatalf("store.maintain_errors = %d, want 2", got)
	}
	// Flush sealed the hot segment; nothing else may have changed.
	hot := segName(0, 4, 4, 0)
	after := backendFiles(t, mem)
	delete(before, hot)
	delete(after, hot)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("files changed under a failed rewrite: now %v", segmentNames(t, mem))
	}
	if segs := st.Segments(); !reflect.DeepEqual(segs[:3], segsBefore[:3]) || len(segs) != 4 {
		t.Fatalf("segment list changed under a failed rewrite: %+v", segs)
	}
	if n := reg.Counter("store.archive_runs").Load(); n != 0 {
		t.Fatalf("%d archive runs counted", n)
	}

	be.bad = false
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.archived_segments").Load(); got != 3 {
		t.Fatalf("archived %d segments once readable, want 3", got)
	}
	if got := len(allRecs(t, mem)); got != 121 {
		t.Fatalf("%d records after the archive, want 121", got)
	}
	in, out := reg.Counter("store.archive_in_bytes").Load(), reg.Counter("store.archive_out_bytes").Load()
	if want := len(before[segName(0, 1, 1, 0)]) + len(before[segName(0, 2, 2, 0)]) + len(before[segName(0, 3, 3, 0)]); in != int64(want) {
		t.Fatalf("store.archive_in_bytes = %d, want the %d bytes of the three inputs", in, want)
	}
	if data, _ := mem.Read(segName(0, 1, 3, 1)); out != int64(len(data)) || out == 0 {
		t.Fatalf("store.archive_out_bytes = %d, archive file is %d bytes", out, len(data))
	}
}

// Housekeeping runs after the records are durable, so its failure is
// not the append's: with one cold segment of one shard unreadable,
// every record of every batch is still appended, counted and readable,
// the other shard archives as usual, and the poisoned shard catches up
// when a later store opens over files that read true.
func TestAppendOutlivesFailedMaintenance(t *testing.T) {
	mem := NewMemBackend()
	be := &flipBackend{Backend: mem, name: segName(0, 1, 1, 0), off: headerSize + 5, bad: true}
	cfg := Config{Shards: 2, SegmentCap: 2048, ArchiveAfter: 2_000}
	cfg.Obs = obs.NewRegistry()
	st, err := Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batches, per = 200, 16
	want := make(map[string]Meta)
	for b := 0; b < batches; b++ {
		recs := make([]BatchRec, per)
		for i := range recs {
			m, line := compRec(b*per + i) // machines 0..5: both shards in every batch
			recs[i] = lineRec(m, line)
			want[line] = m
		}
		if err := st.AppendBatch(recs); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	m, line := compRec(batches * per)
	if err := st.AppendLine(m, line); err != nil {
		t.Fatalf("single append: %v", err)
	}
	want[line] = m

	reg := cfg.Obs
	if got := reg.Counter("store.appends").Load(); got != int64(len(want)) {
		t.Fatalf("store.appends = %d, want %d", got, len(want))
	}
	if reg.Counter("store.maintain_errors").Load() == 0 {
		t.Fatal("store.maintain_errors did not move")
	}
	checkRecs(t, allRecs(t, mem), want)
	tiers := [2][2]int{}
	for _, info := range st.Segments() {
		tiers[info.Shard][info.Tier]++
	}
	if tiers[0][1] != 0 || tiers[1][1] == 0 {
		t.Fatalf("segments by [shard][tier] = %v: shard 0 must be stuck, shard 1 archiving", tiers)
	}
	if err := st.Maintain(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Maintain = %v, want ErrCorrupt", err)
	}
	if err := st.Flush(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Flush = %v, want ErrCorrupt", err)
	}

	cfg.Obs = obs.NewRegistry()
	st2, err := Open(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range st.Segments() { // at most one run per pass
		if err := st2.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Obs.Counter("store.maintain_errors").Load() != 0 {
		t.Fatal("maintenance still failing over intact files")
	}
	if info := st2.Segments()[0]; info.Shard != 0 || info.Tier != 1 || info.Start != 1 {
		t.Fatalf("shard 0 did not archive from its first segment after reopen: %+v", info)
	}
	checkRecs(t, allRecs(t, mem), want)
}

// archiveAllocs builds a store holding eight cold sealed segments of
// perSegment records and one hot record, and returns the heap
// allocations of the one Maintain call that archives them.
func archiveAllocs(t *testing.T, perSegment int) uint64 {
	t.Helper()
	reg := obs.NewRegistry()
	be := NewMemBackend()
	st, err := Open(be, Config{
		Shards: 1, CompactMin: 1 << 20, SegmentCap: 1 << 30,
		ArchiveAfter: coldArchive, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < archiveRunMax; n++ {
		appendSealed(t, st, n*perSegment, perSegment)
	}
	if err := st.AppendLine(Meta{Time: coldNow, Type: 1}, "now"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = st.Maintain()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.archived_segments").Load(); got != archiveRunMax {
		t.Fatalf("archived %d segments, want %d", got, archiveRunMax)
	}
	data, err := be.Read(segName(0, 1, archiveRunMax, 1))
	if err != nil {
		t.Fatal(err)
	}
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	if _, err := newReaderSegment("", 0, 0, 0, 0, data).ScanViews(d, func(Meta, *trace.View) {}); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// With the encoder and decoder pools warm, an archive run allocates per
// input file and per output file, never per record: no flate.Writer is
// built, no line becomes a string. Eight times the records must cost the
// same few allocations.
func TestArchiveRewriteNoAllocPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	// A collection would empty the pools, and a warm encoder parked on
	// another P's private slot is out of reach.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	archiveAllocs(t, 400) // warm the pools and their buffers
	const perRun = 64     // measured 12: one per input, the output's copy, its name and info
	for _, perSegment := range []int{50, 400} {
		allocs := archiveAllocs(t, perSegment)
		t.Logf("archive run of %d records: %d allocations", archiveRunMax*perSegment, allocs)
		if allocs > perRun {
			t.Errorf("archive run of %d records allocates %d, want <= %d whatever the count", archiveRunMax*perSegment, allocs, perRun)
		}
	}
}
