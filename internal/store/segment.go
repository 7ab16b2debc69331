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
//     and the reader of the first one, v1: each record framed with a
//     length and a CRC (the same defensive framing discipline as the
//     meter wire stream of Appendix A). No store writes v1 any more;
//     the frame's size is still the unit segments are measured in.
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

// parseFrame decodes the frame at off, returning the record and the
// offset of the next frame.
func parseFrame(data []byte, off int) (Rec, int, error) {
	m, line, next, err := parseFrameBytes(data, off)
	if err != nil {
		return Rec{}, off, err
	}
	return Rec{Meta: m, Line: string(line)}, next, nil
}

// parseFrameBytes is parseFrame without the line copy: the returned
// line aliases data, for scan paths that consume it before moving on.
func parseFrameBytes(data []byte, off int) (Meta, []byte, int, error) {
	le := binary.LittleEndian
	if off+frameHeadSize > len(data) {
		return Meta{}, nil, off, fmt.Errorf("frame header overruns data at offset %d", off)
	}
	n := int(le.Uint32(data[off : off+4]))
	if n < metaSize || n > MaxFrameSize {
		return Meta{}, nil, off, fmt.Errorf("bad frame length %d at offset %d", n, off)
	}
	if off+frameHeadSize+n > len(data) {
		return Meta{}, nil, off, fmt.Errorf("frame body overruns data at offset %d", off)
	}
	crc := le.Uint32(data[off+4 : off+8])
	payload := data[off+frameHeadSize : off+frameHeadSize+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return Meta{}, nil, off, fmt.Errorf("frame checksum mismatch at offset %d", off)
	}
	var m Meta
	m.Machine = le.Uint16(payload[0:2])
	m.Time = le.Uint32(payload[2:6])
	m.Type = le.Uint32(payload[6:10])
	m.PID = le.Uint32(payload[10:14])
	return m, payload[metaSize:], off + frameHeadSize + n, nil
}

// ParseFooter examines the tail of a segment file for a valid footer.
// ok=false means the segment is unsealed (or its footer is mangled,
// which is treated the same way: the frames are scanned instead).
func ParseFooter(data []byte) (x Index, dataLen int, ok bool) {
	if len(data) < FooterSize {
		return Index{}, 0, false
	}
	le := binary.LittleEndian
	b := data[len(data)-FooterSize:]
	if string(b[0:4]) != footerMagic {
		return Index{}, 0, false
	}
	if crc32.ChecksumIEEE(b[:52]) != le.Uint32(b[52:56]) {
		return Index{}, 0, false
	}
	if le.Uint32(b[4:8]) != footerVersion {
		return Index{}, 0, false
	}
	dataLen = int(le.Uint32(b[48:52]))
	if dataLen != len(data)-FooterSize {
		return Index{}, 0, false
	}
	x.Count = le.Uint32(b[8:12])
	x.MinTime = le.Uint64(b[12:20])
	x.MaxTime = le.Uint64(b[20:28])
	x.Machines = le.Uint64(b[28:36])
	x.PIDs = le.Uint64(b[36:44])
	x.Types = le.Uint32(b[44:48])
	return x, dataLen, true
}

// Segment is one parsed segment file.
type Segment struct {
	Recs   []Rec
	Index  Index
	Sealed bool
}

// ParseSegment parses a whole segment file.
//
// A file with a valid footer is sealed: every frame must verify and
// the frame count must match the footer, otherwise the valid prefix is
// returned with ErrCorrupt. A file without a valid footer is scanned
// frame by frame; if the scan fails before the end of the file the
// valid prefix is returned with ErrTruncated — the shape a writer
// leaves when it dies mid-append, and also what a sealed segment with
// a mangled footer degrades to (its frames still verify; only the
// index is lost).
func ParseSegment(data []byte) (*Segment, error) {
	// Compressed (v2) segments: a sealed one has a footer-v2 tail; an
	// unsealed one starts with the v2 header and is salvaged stream by
	// stream — each online flush ends on a flate sync marker, so every
	// acknowledged batch sits in a decodable prefix.
	if f, ok := parseFooterV2(data); ok && f.decodeBody(data) {
		s := &Segment{Sealed: true, Index: f.Index}
		d := AcquireDecoder()
		defer ReleaseDecoder(d)
		d.payload = payloadVersion(data)
		region := data[headerV2Size:f.DataLen]
		for i, b := range f.Blocks {
			_, err := d.decodeBlock(region[b.Off:b.Off+b.CompLen], b.RawLen, b.CRC, f.Dict, d.lines(func(m Meta, line []byte) {
				s.Recs = append(s.Recs, Rec{Meta: m, Line: string(line)})
			}))
			if err != nil {
				return s, fmt.Errorf("%w: block %d: %v", ErrCorrupt, i, err)
			}
		}
		if uint32(len(s.Recs)) != f.Index.Count {
			return s, fmt.Errorf("%w: footer count %d but %d records", ErrCorrupt, f.Index.Count, len(s.Recs))
		}
		return s, nil
	}
	if p := payloadVersion(data); p >= 0 {
		s := &Segment{}
		d := AcquireDecoder()
		defer ReleaseDecoder(d)
		d.payload = p
		_, _, err := d.decodeStreams(data[headerV2Size:], d.lines(func(m Meta, line []byte) {
			s.Recs = append(s.Recs, Rec{Meta: m, Line: string(line)})
			s.Index.Add(m)
		}))
		if err != nil {
			return s, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return s, nil
	}
	if x, dataLen, ok := ParseFooter(data); ok {
		s := &Segment{Sealed: true, Index: x}
		off := 0
		for off < dataLen {
			rec, next, err := parseFrame(data[:dataLen], off)
			if err != nil {
				return s, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			s.Recs = append(s.Recs, rec)
			off = next
		}
		if uint32(len(s.Recs)) != x.Count {
			return s, fmt.Errorf("%w: footer count %d but %d frames", ErrCorrupt, x.Count, len(s.Recs))
		}
		return s, nil
	}
	s := &Segment{}
	off := 0
	for off < len(data) {
		rec, next, err := parseFrame(data, off)
		if err != nil {
			return s, fmt.Errorf("%w: %d bytes lost: %v", ErrTruncated, len(data)-off, err)
		}
		s.Recs = append(s.Recs, rec)
		s.Index.Add(rec.Meta)
		off = next
	}
	return s, nil
}
