package store

import (
	"encoding/binary"
	"hash/crc32"
)

// The v1 encoder. No store writes CRC-framed segments any more; the
// reader still reads them, and these build the v1 inputs its tests
// need. The stores under testdata/v1 were written by the product code
// these functions used to be. Scan, the text view of a segment, is here
// for the same reason: the product reads segments as views; so are
// ParseSegment and encodeSealed, the whole-file decode and encode of
// records in memory, which the product does only as scans.

// AppendFrame appends one record frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, m Meta, line string) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(metaSize+len(line)))
	crcAt := len(dst)
	dst = le.AppendUint32(dst, 0) // CRC back-patched below
	start := len(dst)
	var mb [metaSize]byte
	le.PutUint16(mb[0:2], m.Machine)
	le.PutUint32(mb[2:6], m.Time)
	le.PutUint32(mb[6:10], m.Type)
	le.PutUint32(mb[10:14], m.PID)
	dst = append(dst, mb[:]...)
	dst = append(dst, line...)
	le.PutUint32(dst[crcAt:], crc32.ChecksumIEEE(dst[start:]))
	return dst
}

// AppendFooter appends a sealed segment's footer for the given index
// and frame-data length.
func AppendFooter(dst []byte, x Index, dataLen uint32) []byte {
	le := binary.LittleEndian
	b := make([]byte, FooterSize)
	copy(b[0:4], footerMagic)
	le.PutUint32(b[4:8], footerVersion)
	le.PutUint32(b[8:12], x.Count)
	le.PutUint64(b[12:20], x.MinTime)
	le.PutUint64(b[20:28], x.MaxTime)
	le.PutUint64(b[28:36], x.Machines)
	le.PutUint64(b[36:44], x.PIDs)
	le.PutUint32(b[44:48], x.Types)
	le.PutUint32(b[48:52], dataLen)
	le.PutUint32(b[52:56], crc32.ChecksumIEEE(b[:52]))
	return append(dst, b...)
}

// Scan streams a segment's records through fn as text: the line of a
// record stored typed is regenerated from its view, any other is the
// stored bytes. Everything else is ScanViews'. The line passed to fn is
// only valid during the call. Only tests want a segment as text.
func (rs *ReaderSegment) Scan(d *Decoder, admit func(Index) bool, fn func(Meta, []byte)) (ScanStats, error) {
	return rs.ScanViews(d, admit, d.lines(fn))
}

// encodeV1 is one v1 segment file of the records: frames, and the footer
// when sealed.
func encodeV1(recs []Rec, sealed bool) []byte {
	var data []byte
	for _, r := range recs {
		data = AppendFrame(data, r.Meta, r.Line)
	}
	if sealed {
		data = AppendFooter(data, indexOf(recs), uint32(len(data)))
	}
	return data
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
// before it became a scan.
func (w *compWriter) encodeSealed(recs []Rec) ([]byte, error) {
	w.openSegment()
	var x Index
	for _, r := range recs {
		if err := w.add(r.Meta, nil, []byte(r.Line)); err != nil {
			return nil, err
		}
		x.Add(r.Meta)
	}
	out, _, err := w.seal(x, w.segV1)
	return out, err
}
