// Package store implements the segmented, sharded event store that
// filter processes write behind their flat text logs.
//
// The paper's filters append surviving records to a flat file under
// /usr/tmp (section 3.4), and the whole file travels to the controller
// on every getlog. That is fine for a 1985 VAX and hopeless at scale:
// Internet-scale monitors answer queries over collected data instead of
// shipping raw logs (ACME), and shard monitoring state so per-node cost
// stays flat (DCM). This package brings both ideas to the monitor:
//
//   - Records are appended to fixed-size *segments*, written in one
//     format: checksummed blocks of typed records (compress.go). This
//     file holds what every format shares — Meta, Index, the errors —
//     and the frame and footer parsers of the first one, v1: each record
//     framed with a length and a CRC (the same defensive framing
//     discipline as the meter wire stream of Appendix A). No store writes
//     v1 any more; the frame's size is still the unit segments are
//     measured in. Whatever the format, one function turns a file's bytes
//     into records: ReaderSegment.ScanViews.
//   - A sealed segment ends in a footer carrying an index — record
//     count, min/max timestamp, and bitmap summaries of the machines,
//     pids, and event types present — so a query can prune the whole
//     segment without decoding a single record.
//   - Segments are distributed over *shards* by originating machine, so
//     concurrent writers do not contend and queries merge per-shard
//     streams by timestamp.
//
// The query side lives in internal/query; this package knows nothing
// about selection rules.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dpm/internal/obs"
)

// Meta is the fixed per-record metadata carried in every frame — the
// fields the footer index summarizes, lifted out of the record line so
// the store never has to parse its own payloads.
type Meta struct {
	Machine uint16 // originating machine (header field)
	Time    uint32 // cpuTime, the machine clock in ms (header field)
	Type    uint32 // meter trace type
	PID     uint32 // process id (0 when unknown or discarded)
}

// Rec is one stored record: its frame metadata and the log line the
// filter formatted for it.
type Rec struct {
	Meta Meta
	Line string
}

// Frame layout: [length u32][crc32 u32][meta 14 bytes][line bytes],
// little-endian, where length covers meta+line and the IEEE CRC is
// computed over the same span.
const (
	frameHeadSize = 8
	metaSize      = 14

	// MaxFrameSize bounds one frame; anything larger in a length field
	// is corruption, not data (a filter log line is a few hundred
	// bytes).
	MaxFrameSize = 1 << 20
)

// FooterSize is the fixed size of a sealed segment's trailing footer:
// magic, version, count, minTime, maxTime, machine bitmap, pid bitmap,
// type bitmap, data length, footer CRC.
const FooterSize = 56

const (
	footerMagic   = "DPMS"
	footerVersion = 1
)

// Errors reported by segment parsing. They mirror the trace package's
// split between tolerable tears and fatal corruption: ErrTruncated
// accompanies the valid record prefix of an unsealed segment whose
// tail does not parse (a writer died mid-append); ErrCorrupt marks a
// sealed segment whose frames contradict its footer — the data was
// damaged after the seal, which no crash explains.
var (
	ErrCorrupt   = errors.New("store: corrupt segment")
	ErrTruncated = errors.New("store: truncated segment tail")
)

// Index is the per-segment summary a footer carries. The bitmaps are
// conservative (bloom-style): each machine, pid, and type sets one bit
// of a fixed-width mask, so a collision can only cause an unnecessary
// scan, never a wrong pruning decision.
type Index struct {
	Count    uint32
	MinTime  uint64
	MaxTime  uint64
	Machines uint64
	PIDs     uint64
	Types    uint32
}

// MachineBit maps a machine id onto its bitmap bit. The same mapping
// must be used on the write and query sides.
func MachineBit(m uint64) uint64 { return 1 << (m % 64) }

// PIDBit maps a process id onto its bitmap bit.
func PIDBit(pid uint64) uint64 { return 1 << (pid % 64) }

// TypeBit maps a meter trace type onto its bitmap bit.
func TypeBit(t uint64) uint32 { return 1 << (t % 32) }

// Add folds one record's metadata into the index.
func (x *Index) Add(m Meta) {
	t := uint64(m.Time)
	if x.Count == 0 {
		x.MinTime, x.MaxTime = t, t
	} else {
		if t < x.MinTime {
			x.MinTime = t
		}
		if t > x.MaxTime {
			x.MaxTime = t
		}
	}
	x.Count++
	x.Machines |= MachineBit(uint64(m.Machine))
	x.PIDs |= PIDBit(uint64(m.PID))
	x.Types |= TypeBit(uint64(m.Type))
}

// FrameSize returns the encoded size of a frame carrying a line of the
// given length.
func FrameSize(lineLen int) int { return frameHeadSize + metaSize + lineLen }

// parseFrameBytes decodes the v1 frame at off, returning its record —
// the line aliasing data — and the offset of the next frame.
func parseFrameBytes(data []byte, off int) (Meta, []byte, int, error) {
	c := obs.NewCursor(data[off:], ErrCorrupt)
	n, crc := c.U32(), c.U32()
	switch {
	case c.Err() != nil:
		return Meta{}, nil, off, fmt.Errorf("frame header overruns data at offset %d", off)
	case n < metaSize || n > MaxFrameSize:
		return Meta{}, nil, off, fmt.Errorf("bad frame length %d at offset %d", n, off)
	}
	payload := c.Take(int(n))
	if payload == nil {
		return Meta{}, nil, off, fmt.Errorf("frame body overruns data at offset %d", off)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return Meta{}, nil, off, fmt.Errorf("frame checksum mismatch at offset %d", off)
	}
	p := obs.NewCursor(payload, ErrCorrupt)
	m := Meta{Machine: p.U16(), Time: p.U32(), Type: p.U32(), PID: p.U32()}
	return m, p.Take(p.Remaining()), off + frameHeadSize + int(n), nil
}

// readIndex reads the Index a footer tail of either format carries:
// count, min and max time, and the machine, pid and type bitmaps.
func readIndex(c *obs.Cursor) Index {
	return Index{Count: c.U32(), MinTime: c.U64(), MaxTime: c.U64(), Machines: c.U64(), PIDs: c.U64(), Types: c.U32()}
}

// appendIndex is readIndex's inverse.
func appendIndex(dst []byte, x Index) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, x.Count)
	dst = le.AppendUint64(dst, x.MinTime)
	dst = le.AppendUint64(dst, x.MaxTime)
	dst = le.AppendUint64(dst, x.Machines)
	dst = le.AppendUint64(dst, x.PIDs)
	return le.AppendUint32(dst, x.Types)
}

// ParseFooter examines the tail of a v1 segment file for a valid
// footer. ok=false means the segment is unsealed (or its footer is
// mangled, which is treated the same way: the frames are scanned
// instead).
func ParseFooter(data []byte) (x Index, dataLen int, ok bool) {
	if len(data) < FooterSize {
		return Index{}, 0, false
	}
	b := data[len(data)-FooterSize:]
	c := obs.NewCursor(b, ErrCorrupt)
	if string(c.Take(4)) != footerMagic || c.U32() != footerVersion {
		return Index{}, 0, false
	}
	x, dataLen = readIndex(&c), int(c.U32())
	if crc32.ChecksumIEEE(b[:FooterSize-4]) != c.U32() || dataLen != len(data)-FooterSize {
		return Index{}, 0, false
	}
	return x, dataLen, true
}

// Segment is one segment's records, as ReaderSegment.Load decodes them.
type Segment struct {
	Recs   []Rec
	Index  Index
	Sealed bool
}
