package store

import (
	"encoding/binary"
	"hash/crc32"
)

// Whole-segment helpers the product does only as scans. Scan is the text
// view of a segment; ParseSegment and encodeSealed are the whole-file
// decode and encode of records in memory.

// Scan streams a segment's records through fn as text: the line of a
// record stored typed is regenerated from its view, any other is the
// stored bytes. Everything else is ScanViews'. The line passed to fn is
// only valid during the call. Only tests want a segment as text.
func (rs *ReaderSegment) Scan(d *Decoder, fn func(Meta, []byte)) (ScanStats, error) {
	return rs.ScanViews(d, d.lines(fn))
}

func indexOf(recs []Rec) Index {
	var x Index
	for _, r := range recs {
		x.Add(r.Meta)
	}
	return x
}

// ParseSegment decodes a whole segment file: Load of the file, unnamed.
func ParseSegment(data []byte) (*Segment, error) {
	return newReaderSegment("", 0, 0, 0, 0, data).Load()
}

// encodeSealed encodes records in memory as one sealed segment, as a
// rewrite of one input writes it (encodeRuns).
func (w *compWriter) encodeSealed(recs []Rec) ([]byte, error) {
	return w.encodeRuns(recs)
}

// encodeRuns encodes runs of records in memory as one sealed segment, as
// a rewrite of one input per run writes it: every record handed over as
// its line, each run's payload pushed through DEFLATE in one write.
func (w *compWriter) encodeRuns(runs ...[]Rec) ([]byte, error) {
	w.openSegment()
	var x Index
	raw := 0
	for _, run := range runs {
		for _, r := range run {
			w.add(r.Meta, nil, []byte(r.Line))
			x.Add(r.Meta)
			raw += FrameSize(len(r.Line))
		}
		if err := w.flushStaged(false); err != nil {
			return nil, err
		}
	}
	out, _, err := w.seal(x, raw)
	return out, err
}

// encodeUnsealed is encodeSealed's file cut where a writer that died
// before the seal leaves it: without its tail, or torn inside its last
// record — before the stream's last two payload bytes and its final
// stored block (five bytes).
func encodeUnsealed(recs []Rec, torn bool) []byte {
	data, err := newCompWriter().encodeSealed(recs)
	if err != nil {
		panic(err)
	}
	end := len(data) - TailSize
	if torn {
		end -= 5 + 2
	}
	return data[:end]
}

// withPayloadVersion is a copy of a segment file whose header says
// payload version v.
func withPayloadVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(segHeader)-4:], v)
	return out
}

// v1File is the records as a file of the first segment format, which no
// store reads any more: each record framed as [length u32][crc32 u32]
// [meta 14 bytes][line] (FrameSize), and, sealed, a 56-byte footer of
// "DPMS", version 1, the Index, the frame bytes' length and its own CRC.
func v1File(recs []Rec, sealed bool) []byte {
	le := binary.LittleEndian
	var data []byte
	for _, r := range recs {
		body := le.AppendUint32(le.AppendUint32(le.AppendUint32(le.AppendUint16(nil, r.Meta.Machine), r.Meta.Time), r.Meta.Type), r.Meta.PID)
		body = append(body, r.Line...)
		data = append(le.AppendUint32(le.AppendUint32(data, uint32(len(body))), crc32.ChecksumIEEE(body)), body...)
	}
	if sealed {
		footer := le.AppendUint32(appendIndex(le.AppendUint32([]byte(tailMagic), 1), indexOf(recs)), uint32(len(data)))
		data = le.AppendUint32(append(data, footer...), crc32.ChecksumIEEE(footer))
	}
	return data
}
