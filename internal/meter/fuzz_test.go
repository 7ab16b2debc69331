package meter

import (
	"errors"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the meter message decoder; it
// must reject garbage gracefully (never panic, never mis-consume), and
// whatever it accepts, read field by field at the layout table's
// offsets into a body (decodeMsg), must re-encode byte for byte.
func FuzzDecode(f *testing.F) {
	for _, b := range allBodies() {
		m := Msg{Header: header(), Body: b}
		f.Add(m.Encode())
	}
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := decodeMsg(data)
		if err != nil {
			if !errors.Is(err, ErrShort) && !errors.Is(err, ErrBadSize) && !errors.Is(err, ErrBadType) {
				t.Fatalf("unexpected error type: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := m.Encode()
		if len(re) != n {
			t.Fatalf("re-encode length %d != consumed %d", len(re), n)
		}
		for i := range re {
			// The dummy field and padding are preserved as zero by the
			// encoder; the input may differ there. Compare the fields
			// the codec owns.
			if i >= 12 && i < 16 {
				continue // dummy
			}
			if i >= 6 && i < 8 {
				continue // alignment padding
			}
			if re[i] != data[i] {
				t.Fatalf("byte %d changed: %#x -> %#x", i, data[i], re[i])
			}
		}
	})
}

// FuzzDecodeStream checks the batch splitter on arbitrary input.
func FuzzDecodeStream(f *testing.F) {
	var batch []byte
	for _, b := range allBodies() {
		m := Msg{Header: header(), Body: b}
		batch = m.AppendEncode(batch)
	}
	f.Add(batch)
	f.Fuzz(func(t *testing.T, data []byte) {
		hs, rest, err := DecodeStream(data)
		if err != nil {
			return
		}
		// Everything consumed plus the rest must account for the
		// input exactly, each message as long as its re-encoding.
		used := 0
		for range hs {
			m, n, err := decodeMsg(data[used:])
			if err != nil || len(m.Encode()) != n {
				t.Fatalf("message at %d: %d bytes re-encode to %d (%v)", used, n, len(m.Encode()), err)
			}
			used += n
		}
		if used+len(rest) != len(data) {
			t.Fatalf("consumed %d + rest %d != %d", used, len(rest), len(data))
		}
	})
}

// FuzzParseName checks the socket-name string parser.
func FuzzParseName(f *testing.F) {
	for _, s := range parseNameSpellings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParseNameAgrees(t, s)
		n, err := ParseName(s)
		if err != nil {
			return
		}
		// Accepted names re-parse to themselves.
		again, err := ParseName(n.String())
		if err != nil || again != n {
			t.Fatalf("round trip failed for %q: %v", s, err)
		}
	})
}
