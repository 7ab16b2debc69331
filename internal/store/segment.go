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
//   - Records are appended to fixed-size *segments*, written and read in
//     one format: one checksummed stream of typed records (compress.go). A
//     file that does not start with that format's header is refused
//     (ErrFormat), never rewritten. This file holds what the format's
//     reader and writer share — Meta, Index, the errors — and FrameSize,
//     the unit segments are measured in. One function turns a file's
//     bytes into records: ReaderSegment.ScanViews.
//   - A sealed segment ends in a fixed-size tail carrying an index —
//     record count, min/max timestamp, and bitmap summaries of the
//     machines, pids, and event types present — so a query can prune the
//     whole segment without decoding a single record.
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

	"dpm/internal/obs"
)

// Meta is the fixed per-record metadata stored with every record — the
// fields the tail's index summarizes, lifted out of the record line so
// the store never has to parse its own payloads.
type Meta struct {
	Machine uint16 // originating machine (header field)
	Time    uint32 // cpuTime, the machine clock in ms (header field)
	Type    uint32 // meter trace type
	PID     uint32 // process id (0 when unknown or discarded)
}

// Rec is one stored record: its metadata and the log line the filter
// formatted for it.
type Rec struct {
	Meta Meta
	Line string
}

// The size a record is measured in is its v1 frame's — [length u32]
// [crc32 u32][meta 14 bytes][line bytes], the CRC-framed format segments
// were first written in — whatever the bytes it takes on disk:
// SegmentCap and a tail's raw total count these "v1-equivalent bytes".
const (
	frameHeadSize = 8
	metaSize      = 14

	// MaxFrameSize bounds one record's line; anything longer in a length
	// field is corruption, not data (a filter log line is a few hundred
	// bytes).
	MaxFrameSize = 1 << 20
)

// Errors reported by segment parsing. They mirror the trace package's
// split between tolerable tears and fatal corruption: ErrTruncated
// accompanies the valid record prefix of an unsealed segment whose
// tail does not parse (a writer died mid-append); ErrCorrupt marks a
// sealed segment whose stream contradicts its tail — the data was
// damaged after the seal, which no crash explains. ErrFormat marks a
// file that is not a segment of this format at all (formatErr): no
// reader decodes it and no recovery rewrites it.
var (
	ErrCorrupt   = errors.New("store: corrupt segment")
	ErrTruncated = errors.New("store: truncated segment tail")
	ErrFormat    = errors.New("store: not a segment of this format")
)

// Index is the per-segment summary a sealed segment's tail carries. The bitmaps are
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

// FrameSize returns the v1-equivalent size of a record carrying a line
// of the given length.
func FrameSize(lineLen int) int { return frameHeadSize + metaSize + lineLen }

// readIndex reads the Index a tail carries: count, min and max
// time, and the machine, pid and type bitmaps.
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

// Segment is one segment's records, as ReaderSegment.Load decodes them.
type Segment struct {
	Recs   []Rec
	Index  Index
	Sealed bool
}
