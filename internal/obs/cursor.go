package obs

import (
	"encoding/binary"
	"fmt"
)

// Cursor is a bounds-checked read position over bytes that came from
// outside the process: the one decoder under the snapshot, its section
// payloads (internal/analysis/live), the aggregation partials
// (internal/agg), the store's footers and block records, the typed
// record (internal/trace), and the daemon's frames and wire messages.
// The first read the bytes cannot back fails the cursor with an error
// wrapping the sentinel it was built with; every read after that
// returns zero and moves nothing, so a decoder reads a whole structure
// and checks Err once. A length is compared with what is left, never
// added to the offset, so no length — negative, or near the top of int
// — can wrap past the check.
type Cursor struct {
	// b is cut at off when the cursor fails, so that no read finds a
	// byte after that; its capacity stays where the bytes end.
	b       []byte
	off     int
	err     error
	corrupt error
}

// NewCursor returns a cursor at the start of b whose failures wrap
// corrupt.
func NewCursor(b []byte, corrupt error) Cursor {
	return Cursor{b: b[:len(b):len(b)], corrupt: corrupt}
}

// Err returns the failure that stopped the cursor, if any.
func (c *Cursor) Err() error { return c.err }

// Off returns how many bytes the cursor has read.
func (c *Cursor) Off() int { return c.off }

// Remaining returns how many bytes are left to read.
func (c *Cursor) Remaining() int { return cap(c.b) - c.off }

// Fail stops the cursor, unless it already has, with a description of
// what the decoder found wrong in bytes that were all there.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", c.corrupt, fmt.Sprintf(format, args...))
		c.b = c.b[:c.off]
	}
}

// Take returns the next n bytes, aliasing the cursor's and capped at
// their end, or nil once the cursor has failed.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.short()
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off : c.off]
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if c.off < len(c.b) {
		c.off++
		return c.b[c.off-1]
	}
	c.short()
	return 0
}

// short fails the cursor at a read the bytes left cannot back, apart
// from the reads so that U8 inlines.
//
//go:noinline
func (c *Cursor) short() { c.Fail("truncated at byte %d", c.off) }

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if b := c.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// Uvarint reads an unsigned varint as binary.Uvarint does: one cut short
// by the end of the bytes, or longer than ten bytes, fails the cursor.
// A one-byte varint, most of what the store's records hold, skips
// binary.Uvarint: the record loop pays for every call here.
func (c *Cursor) Uvarint() uint64 {
	if c.off < len(c.b) && c.b[c.off] < 0x80 {
		c.off++
		return uint64(c.b[c.off-1])
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.Fail("bad varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Zigzag reads a varint that Zigzag wrote and returns the signed value.
func (c *Cursor) Zigzag() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a string behind its uint16 length.
func (c *Cursor) Str() string { return string(c.Take(int(c.U16()))) }

// Zigzag maps a signed value to an unsigned one that is small when the
// magnitude is, for varint coding; Cursor.Zigzag reads it back.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
