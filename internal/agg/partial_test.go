package agg

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// mustSpec parses a spec or fails the test.
func mustSpec(t testing.TB, line string) *Spec {
	t.Helper()
	s, err := ParseSpec(line)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", line, err)
	}
	return s
}

// randPartial folds n pseudo-random records into a fresh partial.
func randPartial(s *Spec, rng *rand.Rand, n int) *Partial {
	p := NewPartial(s)
	sketch := s.Fn.NeedsSketch()
	for i := 0; i < n; i++ {
		var key GroupKey
		if s.WindowMS > 0 {
			t := uint64(rng.Intn(10_000))
			key.Window = t - t%uint64(s.WindowMS)
			p.widen(t, t)
		} else {
			t := uint64(rng.Intn(10_000))
			p.widen(t, t)
		}
		for j := range s.By {
			key.Vals[j] = uint64(rng.Intn(8))
		}
		p.Records++
		if !p.recordFold(key, uint64(rng.Intn(1<<20)), sketch, s.maxGroups()) {
			p.Dropped++
		}
	}
	return p
}

func TestPartialRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, line := range []string{
		"agg count by machine",
		"agg sum(msgLength) by machine,pid window 100ms",
		"agg p95(msgLength) by type",
		"top 10 pid by sum(msgLength)",
		"agg count", // zero-group edge: also round-trip an empty partial
	} {
		s := mustSpec(t, line)
		p := randPartial(s, rng, 200)
		if line == "agg count" {
			p = NewPartial(s)
		}
		enc := p.MarshalBinary()
		got, err := ParsePartial(enc)
		if err != nil {
			t.Fatalf("%q: ParsePartial: %v", line, err)
		}
		if !bytes.Equal(got.MarshalBinary(), enc) {
			t.Errorf("%q: re-encoding differs from original", line)
		}
		if got.Spec != p.Spec || got.Records != p.Records || len(got.Groups) != len(p.Groups) {
			t.Errorf("%q: decoded partial differs: %+v vs %+v", line, got, p)
		}
	}
}

func TestPartialTrailingBytesTolerated(t *testing.T) {
	s := mustSpec(t, "agg count by machine")
	p := randPartial(s, rand.New(rand.NewSource(1)), 50)
	enc := append(p.MarshalBinary(), 0xde, 0xad, 0xbe, 0xef)
	got, err := ParsePartial(enc)
	if err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if got.Records != p.Records {
		t.Errorf("records = %d, want %d", got.Records, p.Records)
	}
}

func TestPartialCorrupt(t *testing.T) {
	s := mustSpec(t, "agg p95(msgLength) by machine")
	p := randPartial(s, rand.New(rand.NewSource(2)), 100)
	enc := p.MarshalBinary()

	// Every strict prefix must fail cleanly, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := ParsePartial(enc[:n]); err == nil {
			// A prefix that still frames completely (e.g. cut inside
			// trailing groups) decodes as truncated content — but the
			// group count header makes any cut mid-stream an error.
			t.Errorf("prefix of %d bytes decoded without error", n)
		}
	}

	bad := [][]byte{
		nil,
		[]byte("DPXX"),
		[]byte("DPAG\x00\x00"), // version 0
	}
	for _, b := range bad {
		if _, err := ParsePartial(b); !errors.Is(err, ErrPartialCorrupt) {
			t.Errorf("ParsePartial(%q) = %v, want ErrPartialCorrupt", b, err)
		}
	}

	// Absurd group count must be rejected before allocation.
	huge := append([]byte{}, enc[:4+2]...) // magic + version
	huge = append(huge, 0, 0)              // empty spec
	huge = append(huge, make([]byte, 8*5)...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff) // ngroups = 2^32-1
	if _, err := ParsePartial(huge); !errors.Is(err, ErrPartialCorrupt) {
		t.Errorf("huge group count: %v, want ErrPartialCorrupt", err)
	}
}

func TestMergeSpecMismatch(t *testing.T) {
	a := NewPartial(mustSpec(t, "agg count by machine"))
	b := NewPartial(mustSpec(t, "agg count by pid"))
	if err := a.Merge(b); !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("Merge = %v, want ErrSpecMismatch", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("Merge(nil) = %v", err)
	}
}

func TestMergeNeverEvicts(t *testing.T) {
	s := mustSpec(t, "agg count by machine")
	s.MaxGroups = 4
	a := NewPartial(s)
	b := NewPartial(s)
	for i := 0; i < 4; i++ {
		a.recordFold(GroupKey{Vals: [MaxBy]uint64{uint64(i)}}, 1, false, s.maxGroups())
		b.recordFold(GroupKey{Vals: [MaxBy]uint64{uint64(10 + i)}}, 1, false, s.maxGroups())
	}
	// Each side is at its own cap; the merge must keep all 8 groups.
	if !a.recordFold(GroupKey{Vals: [MaxBy]uint64{99}}, 1, false, s.maxGroups()) {
		a.Dropped++
	} else {
		t.Fatal("fold past cap succeeded")
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 8 {
		t.Fatalf("merged groups = %d, want 8 (Merge must never evict)", len(a.Groups))
	}
	if a.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped)
	}
}
