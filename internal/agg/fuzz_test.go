package agg

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// FuzzParseSpec hammers the aggregate-spec parser: whatever the input,
// it must return a spec or an error — never panic — and an accepted
// spec must round-trip through its canonical String form.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"agg count by machine window 1s",
		"agg sum(msgLength) by machine,pid",
		"agg p95(msgLength) by type window 250ms",
		"top 10 pid by sum(msgLength)",
		"top 3 machine by count window 2s",
		// Truncated clauses.
		"agg count by",
		"agg count window",
		"top",
		"top 10",
		"top 10 pid",
		"top 10 pid by",
		// Out-of-bounds shapes.
		"top 1000000 pid by count",
		"agg count window 0",
		"agg count window 0s",
		"agg count window -1ms",
		"agg count window 99999999999999999999ms",
		"agg count by a,b,c,d,e",
		"agg sum(",
		"agg sum()",
		"agg count(pid)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseSpec(line)
		if err != nil {
			return
		}
		if s.WindowMS < 0 {
			t.Fatalf("accepted negative window: %q -> %d", line, s.WindowMS)
		}
		if len(s.By) > MaxBy {
			t.Fatalf("accepted %d group fields: %q", len(s.By), line)
		}
		if s.TopK > MaxTopK {
			t.Fatalf("accepted top-k %d: %q", s.TopK, line)
		}
		canon := s.String()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %q -> %q: %v", line, canon, err)
		}
		if s2.String() != canon {
			t.Fatalf("canonical form unstable: %q -> %q -> %q", line, canon, s2.String())
		}
	})
}

// FuzzParsePartial hammers the binary partial decoder with corrupt and
// mutated encodings: decode must return a partial or ErrPartialCorrupt,
// never panic or over-allocate, and what it accepts re-encodes to the
// bytes it was decoded from, but for trailing bytes and the version
// field. And up to three partials cut from the input at their magic,
// each one the decoder accepts, merge and render through the sorted
// tables exactly as through the map-keyed reference (reference_test.go):
// the merged encoding, and the table the reference's Render wrote.
func FuzzParsePartial(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, line := range []string{
		"agg count by machine",
		"agg p95(msgLength) by machine,pid window 100ms",
		"top 10 pid by sum(msgLength)",
		"agg rate",
	} {
		s, err := ParseSpec(line)
		if err != nil {
			f.Fatal(err)
		}
		enc := randPartial(s, rng, 100).MarshalBinary()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		mut := append([]byte{}, enc...)
		mut[len(mut)/3] ^= 0xff
		f.Add(mut)
		f.Add(append(append(append(enc, 0xee), randPartial(s, rng, 40).MarshalBinary()...), randPartial(s, rng, 7).MarshalBinary()...))
	}
	f.Add([]byte("DPAG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePartial(data)
		if err != nil && !errors.Is(err, ErrPartialCorrupt) {
			t.Fatalf("decode error %v is not ErrPartialCorrupt", err)
		}
		if err == nil {
			re := p.MarshalBinary()
			want := append([]byte{}, data[:len(re)]...)
			binary.LittleEndian.PutUint16(want[4:], PartialVersion)
			if !bytes.Equal(re, want) {
				t.Fatalf("re-encoding differs from the decoded bytes:\n%x\n%x", re, want)
			}
		}
		var parts []*Partial
		var refs []*refPartial
		for _, cut := range bytes.Split(data, partialMagic[:])[1:] {
			chunk := append(partialMagic[:len(partialMagic):len(partialMagic)], cut...)
			p, err := ParsePartial(chunk)
			if err != nil || len(parts) == 3 {
				continue
			}
			ref, err := parseRefPartial(chunk)
			if err != nil {
				t.Fatalf("the reference refuses what the decoder accepts: %v", err)
			}
			parts, refs = append(parts, p), append(refs, ref)
		}
		if len(parts) == 0 {
			return
		}
		err = parts[0].Merge(parts[1:]...)
		var refErr error
		for _, r := range refs[1:] {
			refErr = cmp.Or(refErr, refs[0].Merge(r))
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("merge error %v, the reference's %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got, want := parts[0].MarshalBinary(), refs[0].MarshalBinary(); !bytes.Equal(got, want) {
			t.Fatalf("merged encoding differs from the reference's:\n%x\n%x", got, want)
		}
		s, err := ParseSpec(parts[0].Spec)
		if err != nil {
			return
		}
		var want bytes.Buffer
		newRefResult(s, refs[0]).Render(&want)
		if got := parts[0].AppendTable(nil, s); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("table differs from the reference's:\n%s\n%s", got, want.Bytes())
		}
	})
}
