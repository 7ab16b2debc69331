package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomSnapshot builds a snapshot from a shared small name pool so
// merges genuinely collide on names.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	names := []string{"a", "b.c", "filter.kept", "store.append_ns", "q"}
	s := &Snapshot{Machine: fmt.Sprintf("m%d", rng.Intn(3)), TakenUnixNano: rng.Int63n(1 << 40)}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			s.Counters = append(s.Counters, NamedValue{Name: n, Value: rng.Int63n(1000)})
		}
	}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			s.Gauges = append(s.Gauges, NamedValue{Name: n, Value: rng.Int63n(1000)})
		}
	}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			h := HistValue{Name: n}
			for b := 0; b < NumBuckets; b++ {
				if rng.Intn(8) == 0 {
					c := rng.Int63n(100) + 1
					h.Buckets = append(h.Buckets, BucketCount{Bucket: uint8(b), Count: c})
					h.Count += c
					h.Sum += c * (int64(1) << b) / 2
				}
			}
			s.Hists = append(s.Hists, h)
		}
	}
	// Sections from a small pool with no registered merger: merges must
	// degrade to the order-insensitive multiset union.
	for _, n := range []string{"sec.x", "sec.y"} {
		if rng.Intn(2) == 0 {
			s.Sections = append(s.Sections, Section{
				Name:    n,
				Version: uint16(rng.Intn(2) + 1),
				Data:    []byte{byte(rng.Intn(4))},
			})
		}
	}
	return s
}

func clone(s *Snapshot) *Snapshot {
	out, err := ParseSnapshot(s.MarshalBinary())
	if err != nil {
		panic(err)
	}
	return out
}

// comparable strips fields Merge is allowed to resolve arbitrarily
// (machine label, timestamp) so associativity compares only the
// aggregated metric content.
func comparable(s *Snapshot) Snapshot {
	c := clone(s)
	c.Machine = ""
	c.TakenUnixNano = 0
	// Normalize nil-vs-empty slices from parse round-trips.
	if len(c.Counters) == 0 {
		c.Counters = nil
	}
	if len(c.Gauges) == 0 {
		c.Gauges = nil
	}
	if len(c.Hists) == 0 {
		c.Hists = nil
	}
	if len(c.Sections) == 0 {
		c.Sections = nil
	}
	return *c
}

// TestMergeAssociativeCommutative is the property that lets the
// controller fold per-machine snapshots in whatever order replies
// arrive: (a+b)+c == a+(b+c) and a+b == b+a, over randomized inputs.
func TestMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 200; trial++ {
		a, b, c := randomSnapshot(rng), randomSnapshot(rng), randomSnapshot(rng)

		ab := clone(a)
		ab.Merge(b)
		abc1 := clone(ab)
		abc1.Merge(c)

		bc := clone(b)
		bc.Merge(c)
		abc2 := clone(a)
		abc2.Merge(bc)

		if g1, g2 := comparable(abc1), comparable(abc2); !reflect.DeepEqual(g1, g2) {
			t.Fatalf("trial %d: merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", trial, g1, g2)
		}

		ba := clone(b)
		ba.Merge(a)
		if g1, g2 := comparable(ab), comparable(ba); !reflect.DeepEqual(g1, g2) {
			t.Fatalf("trial %d: merge not commutative:\na+b = %+v\nb+a = %+v", trial, g1, g2)
		}
	}
}

func TestMergeSumsAndKeepsLatest(t *testing.T) {
	a := &Snapshot{
		Machine:       "m1",
		TakenUnixNano: 100,
		Counters:      []NamedValue{{Name: "x", Value: 3}},
		Hists: []HistValue{{Name: "h", Count: 2, Sum: 30,
			Buckets: []BucketCount{{Bucket: 4, Count: 2}}}},
	}
	b := &Snapshot{
		Machine:       "m2",
		TakenUnixNano: 200,
		Counters:      []NamedValue{{Name: "x", Value: 4}, {Name: "y", Value: 1}},
		Hists: []HistValue{{Name: "h", Count: 1, Sum: 100,
			Buckets: []BucketCount{{Bucket: 4, Count: 1}}}},
	}
	a.Merge(b)
	if a.Machine != "" {
		t.Fatalf("merged machine = %q, want empty for cross-machine merge", a.Machine)
	}
	if a.TakenUnixNano != 200 {
		t.Fatalf("merged timestamp = %d, want latest (200)", a.TakenUnixNano)
	}
	if v, _ := a.Get("x"); v != 7 {
		t.Fatalf("x = %d, want 7", v)
	}
	if v, _ := a.Get("y"); v != 1 {
		t.Fatalf("y = %d, want 1", v)
	}
	h := a.Hist("h")
	if h == nil || h.Count != 3 || h.Sum != 130 {
		t.Fatalf("merged hist = %+v", h)
	}
	if len(h.Buckets) != 1 || h.Buckets[0] != (BucketCount{Bucket: 4, Count: 3}) {
		t.Fatalf("merged buckets = %+v", h.Buckets)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s := randomSnapshot(rng)
		wire := s.MarshalBinary()
		if cap(wire) != len(wire) {
			t.Fatalf("trial %d: %d bytes marshalled into a buffer of %d", trial, len(wire), cap(wire))
		}
		got, err := ParseSnapshot(wire)
		if err != nil {
			t.Fatalf("trial %d: parse: %v", trial, err)
		}
		if !reflect.DeepEqual(comparable(s), comparable(got)) ||
			got.Machine != s.Machine || got.TakenUnixNano != s.TakenUnixNano {
			t.Fatalf("trial %d: round trip changed snapshot:\nin  %+v\nout %+v", trial, s, got)
		}
		for i := range wire {
			wire[i] ^= 0xff
		}
		if !reflect.DeepEqual(comparable(s), comparable(got)) {
			t.Fatalf("trial %d: ParseSnapshot's result aliases its input", trial)
		}
	}
}

// TestBinaryTrailingBytesIgnored is the forward-compat contract: a
// future writer may append sections this reader does not know, the
// same discipline as the daemon wire's trailing fields (QueryReq
// field 5). An old parser must decode the prefix it understands.
func TestBinaryTrailingBytesIgnored(t *testing.T) {
	s := &Snapshot{
		Machine:  "m1",
		Counters: []NamedValue{{Name: "x", Value: 9}},
	}
	b := s.MarshalBinary()
	b = append(b, []byte("future-section-this-parser-has-never-heard-of")...)
	got, err := ParseSnapshot(b)
	if err != nil {
		t.Fatalf("parse with trailing bytes: %v", err)
	}
	if v, ok := got.Get("x"); !ok || v != 9 {
		t.Fatalf("x = %d, %v after trailing-byte parse", v, ok)
	}
}

func TestBinaryCorruptInputs(t *testing.T) {
	s := &Snapshot{Counters: []NamedValue{{Name: "x", Value: 9}}}
	good := s.MarshalBinary()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"truncated": good[:len(good)-3],
		"bad count": func() []byte {
			b := append([]byte{}, good...)
			// Overwrite the counter-section count with a huge value.
			copy(b[4+2+2+len("")+8:], []byte{0xff, 0xff, 0xff, 0xff})
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := ParseSnapshot(data); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := randomSnapshot(rng)
	got, err := ParseSnapshotJSON(s.EncodeJSON())
	if err != nil {
		t.Fatalf("json parse: %v", err)
	}
	if !reflect.DeepEqual(comparable(s), comparable(got)) {
		t.Fatalf("json round trip changed snapshot:\nin  %+v\nout %+v", s, got)
	}
	if _, err := ParseSnapshotJSON([]byte("{not json")); err == nil {
		t.Fatal("bad json parsed")
	}
}

func TestRenderReadable(t *testing.T) {
	r := NewRegistry()
	r.Counter("filter.kept").Add(100)
	r.Gauge("filter.queue_depth").Set(3)
	r.Histogram("filter.flush_ns").Observe(50_000)
	s := r.Snapshot()
	s.Machine = "m1"
	var buf bytes.Buffer
	s.Render(&buf)
	out := buf.String()
	for _, want := range []string{"machine m1", "filter.kept", "100", "filter.queue_depth", "filter.flush_ns", "p95"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	empty := &HistValue{}
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
	if m := empty.Mean(); m != 0 {
		t.Fatalf("empty mean = %d, want 0", m)
	}
	zeroBucket := &HistValue{Count: 5, Buckets: []BucketCount{{Bucket: 0, Count: 5}}}
	if q := zeroBucket.Quantile(0.99); q != 0 {
		t.Fatalf("zero-bucket quantile = %d, want 0", q)
	}
	top := &HistValue{Count: 1, Buckets: []BucketCount{{Bucket: NumBuckets - 1, Count: 1}}}
	if q := top.Quantile(0.5); q != int64(^uint64(0)>>1) {
		t.Fatalf("top-bucket quantile = %d, want MaxInt64", q)
	}
}

// TestParseSnapshotJSONRefusesUnencodable: a JSON snapshot the binary
// form cannot carry, which a merge and a report read snapshots in, is
// refused as corrupt rather than merged wrong.
func TestParseSnapshotJSONRefusesUnencodable(t *testing.T) {
	long := &Snapshot{Counters: []NamedValue{{Name: string(bytes.Repeat([]byte{'x'}, 1<<16)), Value: 1}}}
	if _, err := ParseSnapshotJSON(long.EncodeJSON()); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("a 64 KiB counter name: %v, want ErrSnapshotCorrupt", err)
	}
	ok := &Snapshot{Counters: []NamedValue{{Name: string(bytes.Repeat([]byte{'x'}, 1<<16-1)), Value: 1}}}
	if _, err := ParseSnapshotJSON(ok.EncodeJSON()); err != nil {
		t.Fatalf("a counter name one byte shorter: %v", err)
	}
}
