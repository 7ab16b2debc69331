package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzCursor drives a cursor over data with a script of reads — each
// script byte picks a read, Take's length from the bytes after it,
// lengths that are negative or near the top of int among them, a varint
// checked against binary.Uvarint — beside
// a plain offset kept by the test. No read panics or goes past the
// end; a read the bytes back returns exactly them and advances by their
// length; the first one they do not back fails the cursor with the
// sentinel, at that offset, and every read after it returns zero.
func FuzzCursor(f *testing.F) {
	f.Add([]byte("DPMO\x02\x00\x03\x00red"), []byte{0, 4, 2, 6})
	f.Add([]byte{1, 2, 3}, []byte{4, 5})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // Take(MaxInt64) at offset 1
	f.Add([]byte{1, 2, 3}, []byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})                      // Take(-1)
	f.Add([]byte{}, []byte{6, 6})
	f.Add([]byte{0x80, 0x80, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1}, []byte{8, 8}) // a varint, then one of 11 bytes
	f.Add([]byte{0x80}, []byte{8, 1})                                                                         // a varint cut short
	sentinel := errors.New("corrupt")
	f.Fuzz(func(t *testing.T, data, script []byte) {
		c := NewCursor(data, sentinel)
		off, failed := 0, false
		for len(script) > 0 {
			op := script[0] % 9
			script = script[1:]
			n, fixed := 0, map[byte]int{1: 1, 2: 2, 3: 4, 4: 8, 5: 8}[op]
			var got []byte
			var zero bool
			switch op {
			case 0: // Take of a scripted length
				var raw [8]byte
				script = script[copy(raw[:], script):]
				n = int(int64(binary.LittleEndian.Uint64(raw[:])))
				got = c.Take(n)
				zero = got == nil
			case 1:
				v := c.U8()
				n, got, zero = fixed, []byte{v}, v == 0
			case 2:
				v := c.U16()
				n, got, zero = fixed, binary.LittleEndian.AppendUint16(nil, v), v == 0
			case 3:
				v := c.U32()
				n, got, zero = fixed, binary.LittleEndian.AppendUint32(nil, v), v == 0
			case 4:
				v := c.U64()
				n, got, zero = fixed, binary.LittleEndian.AppendUint64(nil, v), v == 0
			case 5:
				v := c.I64()
				n, got, zero = fixed, binary.LittleEndian.AppendUint64(nil, uint64(v)), v == 0
			case 6: // a string as the decoders read one: a u16 length, then that many bytes
				before := c.Remaining()
				s := string(c.Take(int(c.U16())))
				if !failed && before >= 2 {
					if l := int(binary.LittleEndian.Uint16(data[off:])); l <= before-2 {
						if s != string(data[off+2:off+2+l]) {
							t.Fatalf("string at %d = %q, want %q", off, s, data[off+2:off+2+l])
						}
						off += 2 + l
						continue
					}
					off += 2 // the length was read; the body is what failed
				}
				if s != "" || c.Err() == nil {
					t.Fatalf("string at %d over %d bytes = %q, err %v; want a failure", off, before, s, c.Err())
				}
				failed = true
				continue
			case 8: // Uvarint: whatever binary.Uvarint makes of what is left
				v := c.Uvarint()
				if !failed {
					if want, k := binary.Uvarint(data[off:]); k > 0 {
						if v != want || c.Err() != nil {
							t.Fatalf("Uvarint at %d = %d (err %v), want %d", off, v, c.Err(), want)
						}
						off += k
						continue
					}
				}
				if v != 0 || !errors.Is(c.Err(), sentinel) {
					t.Fatalf("Uvarint at %d = %d, err %v; want zero and the sentinel", off, v, c.Err())
				}
				failed = true
				continue
			case 7:
				c.Fail("scripted %d", off)
				if c.Err() == nil || !errors.Is(c.Err(), sentinel) {
					t.Fatalf("Fail left err %v", c.Err())
				}
				failed = true
				continue
			}
			if !failed && n >= 0 && n <= len(data)-off {
				if c.Err() != nil || !bytes.Equal(got, data[off:off+n]) || (op == 0 && n > 0 && &got[0] != &data[off]) {
					t.Fatalf("op %d at %d: read %x (err %v), want %x in place", op, off, got, c.Err(), data[off:off+n])
				}
				off += n
			} else {
				if !zero || !errors.Is(c.Err(), sentinel) {
					t.Fatalf("op %d at %d, %d bytes of %d asked: read %x, err %v; want zero and the sentinel", op, off, n, len(data), got, c.Err())
				}
				failed = true
			}
			if c.Remaining() != len(data)-off || c.Remaining() < 0 {
				t.Fatalf("after op %d: %d bytes remain, the test counts %d", op, c.Remaining(), len(data)-off)
			}
		}
	})
}

// TestCursorLengthCannotWrap: the lengths an offset-plus-length check
// lets through by wrapping are refused, wherever the cursor stands —
// a varint length of 2^63 or more, which int() turns negative, included.
func TestCursorLengthCannotWrap(t *testing.T) {
	sentinel := errors.New("corrupt")
	for _, n := range []int{-1, math.MinInt, math.MaxInt, math.MaxInt - 1} {
		c := NewCursor(make([]byte, 8), sentinel)
		c.Take(2)
		if got := c.Take(n); got != nil || !errors.Is(c.Err(), sentinel) || c.Remaining() != 6 {
			t.Fatalf("Take(%d) = %v, err %v, %d remain; want nil, the sentinel and 6", n, got, c.Err(), c.Remaining())
		}
	}
	for _, n := range []uint64{1 << 63, 1<<63 + 1, math.MaxUint64} {
		b := binary.AppendUvarint([]byte{0, 0}, n)
		c := NewCursor(append(b, make([]byte, 6)...), sentinel)
		c.Take(2)
		if l := c.Uvarint(); l != n || c.Err() != nil {
			t.Fatalf("Uvarint = %d (err %v), want %d", l, c.Err(), n)
		}
		if got := c.Take(int(n)); got != nil || !errors.Is(c.Err(), sentinel) || c.Remaining() != 6 {
			t.Fatalf("Take of varint length %d = %v, err %v, %d remain; want nil, the sentinel and 6", n, got, c.Err(), c.Remaining())
		}
	}
}
