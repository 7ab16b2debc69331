package obs

import (
	"encoding/binary"
	"fmt"
)

// Cursor is a bounds-checked read position over bytes that came from
// outside the process: the one decoder under the snapshot, its section
// payloads (internal/analysis/live), the aggregation partials
// (internal/agg) and the store's frames and footers. The first read the bytes cannot back fails the cursor
// with an error wrapping the sentinel it was built with; every read
// after that returns zero and moves nothing, so a decoder reads a whole
// structure and checks Err once. A length is compared with what is
// left, never added to the offset, so no length — negative, or near the
// top of int — can wrap past the check.
type Cursor struct {
	b       []byte
	off     int
	err     error
	corrupt error
}

// NewCursor returns a cursor at the start of b whose failures wrap
// corrupt.
func NewCursor(b []byte, corrupt error) Cursor { return Cursor{b: b, corrupt: corrupt} }

// Err returns the failure that stopped the cursor, if any.
func (c *Cursor) Err() error { return c.err }

// Remaining returns how many bytes are left to read.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Fail stops the cursor, unless it already has, with a description of
// what the decoder found wrong in bytes that were all there.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", c.corrupt, fmt.Sprintf(format, args...))
	}
}

// Take returns the next n bytes, aliasing the cursor's, or nil once the
// cursor has failed.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.Fail("truncated at byte %d", c.off)
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// U8 reads one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

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
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.Fail("bad varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Str reads a string behind its uint16 length.
func (c *Cursor) Str() string { return string(c.Take(int(c.U16()))) }
