package obs

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSectionBinaryRoundTrip pins the v2 wire format: sections survive
// marshal/parse byte-exactly, and a v1 consumer's view (no sections)
// still parses everything before them.
func TestSectionBinaryRoundTrip(t *testing.T) {
	s := &Snapshot{
		Machine:  "m1",
		Counters: []NamedValue{{Name: "c", Value: 7}},
		Sections: []Section{
			{Name: "alpha", Version: 1, Data: []byte{1, 2, 3}},
			{Name: "beta", Version: 3, Data: nil},
		},
	}
	got, err := ParseSnapshot(s.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sections) != 2 || got.Sections[0].Name != "alpha" || got.Sections[1].Version != 3 {
		t.Fatalf("sections: %+v", got.Sections)
	}
	if !bytes.Equal(got.Sections[0].Data, []byte{1, 2, 3}) || len(got.Sections[1].Data) != 0 {
		t.Fatalf("section data: %+v", got.Sections)
	}
}

// TestSectionJSONRoundTrip checks the JSON form carries sections too
// (payload bytes base64-encoded by encoding/json).
func TestSectionJSONRoundTrip(t *testing.T) {
	s := &Snapshot{Sections: []Section{{Name: "alpha", Version: 2, Data: []byte("payload")}}}
	got, err := ParseSnapshotJSON(s.EncodeJSON())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sections, s.Sections) {
		t.Fatalf("json sections: %+v", got.Sections)
	}
}

// TestSectionMergeUnregistered checks the default merge: with no
// merger registered, both payloads are carried (multiset union), and
// identical entries are still both kept — counts are meaningful.
func TestSectionMergeUnregistered(t *testing.T) {
	a := &Snapshot{Sections: []Section{{Name: "test.opaque", Version: 1, Data: []byte{1}}}}
	b := &Snapshot{Sections: []Section{
		{Name: "test.opaque", Version: 1, Data: []byte{2}},
		{Name: "test.opaque", Version: 2, Data: []byte{9}},
	}}
	a.Merge(b)
	if len(a.Sections) != 3 {
		t.Fatalf("union merge: %+v", a.Sections)
	}
}

// pair makes a merger of exactly two payloads a SectionMerger: handed
// any other number it fails, and the merge then folds the group
// pairwise, as it does after any merger fails.
func pair(fn func(a, b []byte) ([]byte, error)) SectionMerger {
	return func(payloads ...[]byte) ([]byte, error) {
		if len(payloads) != 2 {
			return nil, errors.New("a pairwise merger merges two payloads")
		}
		return fn(payloads[0], payloads[1])
	}
}

// TestSectionMergeRegistered registers a summing merger and checks
// same-version payloads fold while other versions stay separate.
func TestSectionMergeRegistered(t *testing.T) {
	RegisterSectionMerger("test.sum", 1, pair(func(x, y []byte) ([]byte, error) {
		if len(x) != 1 || len(y) != 1 {
			return nil, errors.New("bad payload")
		}
		return []byte{x[0] + y[0]}, nil
	}))
	a := &Snapshot{Sections: []Section{{Name: "test.sum", Version: 1, Data: []byte{3}}}}
	b := &Snapshot{Sections: []Section{
		{Name: "test.sum", Version: 1, Data: []byte{4}},
		{Name: "test.sum", Version: 2, Data: []byte{50}},
	}}
	a.Merge(b)
	if len(a.Sections) != 2 {
		t.Fatalf("merge: %+v", a.Sections)
	}
	if s := a.Section("test.sum"); s == nil || s.Version != 1 || !bytes.Equal(s.Data, []byte{7}) {
		t.Fatalf("folded section: %+v", s)
	}

	// A failing merger degrades to keeping both payloads.
	c := &Snapshot{Sections: []Section{{Name: "test.sum", Version: 1, Data: []byte{1}}}}
	d := &Snapshot{Sections: []Section{{Name: "test.sum", Version: 1, Data: []byte{2, 2}}}} // trips the merger
	c.Merge(d)
	if len(c.Sections) != 2 {
		t.Fatalf("failed merge must keep both: %+v", c.Sections)
	}
}

// TestSectionRenderFallback checks a section with no registered
// renderer prints the opaque one-liner instead of nothing.
func TestSectionRenderFallback(t *testing.T) {
	s := &Snapshot{Sections: []Section{{Name: "test.nobody", Version: 4, Data: []byte{1, 2, 3, 4, 5}}}}
	var out strings.Builder
	s.Render(&out)
	if !strings.Contains(out.String(), "section test.nobody v4: 5 bytes") {
		t.Fatalf("render: %q", out.String())
	}
}

// TestRegistrySectionCapture checks Registry.RegisterSection: captures
// run at snapshot time, nil captures are skipped, and re-registering a
// name (a restarted provider) replaces the old capture.
func TestRegistrySectionCapture(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.RegisterSection("test.live", 1, func(b []byte) []byte { n++; return append(b, byte(n)) })
	r.RegisterSection("test.dead", 1, func([]byte) []byte { return nil })
	s := r.Snapshot()
	if len(s.Sections) != 1 || s.Sections[0].Name != "test.live" || !bytes.Equal(s.Sections[0].Data, []byte{1}) {
		t.Fatalf("snapshot sections: %+v", s.Sections)
	}
	r.RegisterSection("test.live", 2, func(b []byte) []byte { return append(b, 99) })
	s = r.Snapshot()
	if len(s.Sections) != 1 || s.Sections[0].Version != 2 || !bytes.Equal(s.Sections[0].Data, []byte{99}) {
		t.Fatalf("replaced section: %+v", s.Sections)
	}
}

// TestSectionCaptureRegistersMetric: a section source may register a
// metric of its own registry while it captures — the live collector's
// live.par.late appears at the first late record — and the snapshot
// taking that capture already counts it. Snapshots taken from several
// goroutines at once each see the section and the counter.
func TestSectionCaptureRegistersMetric(t *testing.T) {
	r := NewRegistry()
	var calls atomic.Int64
	r.RegisterSection("test.late", 1, func(b []byte) []byte {
		r.Counter("test.late.records").Add(1)
		return append(b, byte(calls.Add(1)))
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := r.Snapshot()
				if v, ok := s.Get("test.late.records"); !ok || v < 1 || len(s.Sections) != 1 {
					t.Errorf("snapshot: counter %d (%v), %d sections", v, ok, len(s.Sections))
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Snapshot().Get("test.late.records"); v != 201 {
		t.Fatalf("counter %d after 201 captures", v)
	}
}

// TestSectionParseCorrupt pins parser behavior on the fuzz corpus
// shapes: truncated section blocks and oversized counts error out
// cleanly instead of panicking or over-allocating.
func TestSectionParseCorrupt(t *testing.T) {
	s := &Snapshot{Sections: []Section{{Name: "alpha", Version: 1, Data: []byte{1, 2, 3, 4}}}}
	good := s.MarshalBinary()
	for cut := 1; cut < 12; cut++ {
		if _, err := ParseSnapshot(good[:len(good)-cut]); err == nil {
			t.Fatalf("truncated by %d parsed", cut)
		}
	}
	// Corrupt the section count to a huge value.
	bad := append([]byte(nil), good...)
	// The section count is the u32 right after the (empty) counters,
	// gauges, hists blocks; find it by re-marshalling a sectionless
	// snapshot and measuring the prefix.
	prefix := len((&Snapshot{}).MarshalBinary()) - 4
	copy(bad[prefix:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ParseSnapshot(bad); err == nil {
		t.Fatal("oversized section count parsed")
	}
}

func fuzzSeedSnapshots() [][]byte {
	seeds := [][]byte{
		(&Snapshot{Machine: "m0", Counters: []NamedValue{{Name: "c", Value: 1}}}).MarshalBinary(),
		(&Snapshot{Sections: []Section{
			{Name: "live.comm", Version: 1, Data: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
			{Name: "live.par", Version: 9, Data: []byte("future opaque payload")},
		}}).MarshalBinary(),
	}
	// A truncated section block.
	whole := (&Snapshot{Sections: []Section{{Name: "live.match", Version: 1, Data: make([]byte, 40)}}}).MarshalBinary()
	seeds = append(seeds, whole[:len(whole)-17])
	// A corrupt matrix entry: a live.comm section whose table count
	// promises more entries than the payload holds.
	seeds = append(seeds, (&Snapshot{Sections: []Section{
		{Name: "live.comm", Version: 1, Data: bytes.Repeat([]byte{0xff}, 48)},
	}}).MarshalBinary())
	return seeds
}

// fuzzSum is the merger FuzzParseSnapshot registers for its own
// section: one-byte payloads, summed; any other payload fails it.
func fuzzSum(payloads ...[]byte) ([]byte, error) {
	var sum byte
	for _, p := range payloads {
		if len(p) != 1 {
			return nil, errors.New("fuzz.sum: not one byte")
		}
		sum += p[0]
	}
	return []byte{sum}, nil
}

// FuzzParseSnapshot hammers the binary parser and the stats path.
// Arbitrary bytes must never panic. What parses re-encodes to its own
// bytes (up to any trailing bytes, for a version-2 snapshot) and
// decodes again to the same encoding. And the input cut at each "DPOB"
// magic into up to three snapshots renders through AppendReport exactly
// as the reference renders it — parse, the struct merge, fmt — with the
// same conservation residuals, sections with a merger (fuzz.sum v1) and
// without one included.
func FuzzParseSnapshot(f *testing.F) {
	for _, seed := range fuzzSeedSnapshots() {
		f.Add(seed)
	}
	RegisterSectionMerger("fuzz.sum", 1, fuzzSum)
	sum := func(b byte, others ...Section) *Snapshot {
		return &Snapshot{Machine: "m", TakenUnixNano: 1 << 60, Counters: []NamedValue{{"query.records", int64(b)}, {"z", 1}},
			Hists:    []HistValue{{Name: "h", Count: 3, Sum: 9, Buckets: []BucketCount{{2, 2}, {1, 1}}}},
			Sections: append([]Section{{Name: "fuzz.sum", Version: 1, Data: []byte{b}}}, others...)}
	}
	f.Add(slices.Concat(sum(1).MarshalBinary(), sum(2, Section{Name: "fuzz.sum", Version: 1, Data: []byte{3, 4}}).MarshalBinary(),
		sum(5, Section{Name: "opaque", Version: 2}).MarshalBinary()))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSnapshot(data)
		if err == nil {
			re := s.MarshalBinary()
			again, err := ParseSnapshot(re)
			if err != nil {
				t.Fatalf("re-parse of marshalled snapshot: %v", err)
			}
			if !bytes.Equal(again.MarshalBinary(), re) {
				t.Fatal("decode, encode, decode, encode moved bytes")
			}
			if data[4] == SnapshotVersion && data[5] == 0 && !bytes.Equal(re, data[:len(re)]) {
				t.Fatalf("a version-2 snapshot re-encodes to other bytes:\n%x\n%x", data, re)
			}
		}
		var wire [][]byte
		var snaps []*Snapshot
		for _, piece := range bytes.Split(data, snapshotMagic[:])[1:] {
			if len(wire) == 3 {
				break
			}
			b := append(slices.Clip(snapshotMagic[:]), piece...)
			s, err := ParseSnapshot(b)
			if (err == nil) != (CheckSnapshot(b) == nil) {
				t.Fatalf("ParseSnapshot says %v, CheckSnapshot disagrees", err)
			}
			if err == nil {
				wire, snaps = append(wire, b), append(snaps, s)
			}
		}
		got, residuals, err := AppendReport(nil, wire...)
		if err != nil {
			t.Fatal(err)
		}
		want, wantResiduals := referenceReport(snaps)
		if string(got) != want || !slices.Equal(residuals, wantResiduals) {
			t.Fatalf("%d snapshots report\n%s%v\nnot, as the reference,\n%s%v", len(wire), got, residuals, want, wantResiduals)
		}
	})
}
