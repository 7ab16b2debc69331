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
func (rs *ReaderSegment) Scan(d *Decoder, admit func(Index) bool, fn func(Meta, []byte)) (ScanStats, error) {
	return rs.ScanViews(d, admit, d.lines(fn))
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

// encodeSealed encodes records in memory as one sealed segment, every
// record handed over as its line — what the recovery rewrite wrote
// before it became a scan — and each sized as an input of its own
// (encodeRuns), so that a block breaks after the record that brings it
// to the target.
func (w *compWriter) encodeSealed(recs []Rec) ([]byte, error) {
	runs := make([][]Rec, len(recs))
	for i := range recs {
		runs[i] = recs[i : i+1]
	}
	return w.encodeRuns(runs...)
}

// encodeRuns encodes runs of records in memory as one sealed segment, as
// a rewrite of one input per run writes it: every record handed over as
// its line, each run sized whole by its records' FrameSize, so blocks
// break only between runs.
func (w *compWriter) encodeRuns(runs ...[]Rec) ([]byte, error) {
	w.openSegment()
	var x Index
	raw := 0
	for _, run := range runs {
		n := 0
		for _, r := range run {
			if err := w.add(r.Meta, nil, []byte(r.Line)); err != nil {
				return nil, err
			}
			x.Add(r.Meta)
			n += FrameSize(len(r.Line))
		}
		if err := w.endInput(n); err != nil {
			return nil, err
		}
		raw += n
	}
	out, _, err := w.seal(x, raw)
	return out, err
}

// encodeUnsealed is encodeSealed's file, in blocks of blockTarget, cut
// where a writer that died before the seal leaves it: after its last
// block, or with torn inside it.
func encodeUnsealed(recs []Rec, blockTarget int, torn bool) []byte {
	data, err := newCompWriter(blockTarget).encodeSealed(recs)
	if err != nil {
		panic(err)
	}
	rs := newReaderSegment("", 0, 0, 0, 0, data)
	end := rs.v2.DataLen
	if blocks := rs.Blocks(); torn {
		last := blocks[len(blocks)-1]
		end = headerV2Size + last.Off + last.CompLen/2
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
		footer := le.AppendUint32(appendIndex(le.AppendUint32([]byte(footerMagic), 1), indexOf(recs)), uint32(len(data)))
		data = le.AppendUint32(append(data, footer...), crc32.ChecksumIEEE(footer))
	}
	return data
}
