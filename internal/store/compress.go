// Compressed segments: the one format every segment is written and read
// in. A record is kept as the fixed fields of its meter message, and its
// log line is only a rendering of them, so a segment holds no text:
//
//   - A segment's records are one DEFLATE stream.
//   - Each record is its Meta — machine, zigzag(cpuTime delta), type,
//     pid as varints — and then its body *typed*: the fields as deltas
//     against the last record of its event type (internal/trace/typed.go),
//     so that a scan reads a view from them without building or parsing
//     text, and renders a line only for a record it ships.
//   - A sealed segment ends in a fixed-size tail: the segment's Index,
//     which internal/query prunes whole segments by, the stream's
//     lengths and a CRC over its bytes.
//
// Durability is per flush: every flush ends with a DEFLATE sync
// marker, so everything a backend Append carried is decodable even if
// the writer dies before sealing, and a torn segment salvages the
// records its stream yields before the tear.
//
// File layout:
//
//	[8B header: "DPMZ" + payload version u32 3 (segHeader)]
//	[one DEFLATE stream]
//	[68B tail: "DPMS" + version u32 3, segment index, lengths, CRCs]
//
// A file whose first 8 bytes are any other is not read, salvaged or
// rewritten: Open, OpenReader and ScanViews refuse it with ErrFormat
// (formatErr). A shorter file that begins the header is a write torn
// inside it, an unsealed segment of no records.
package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// CompressMode is the type of Config.Compress, which nothing reads.
type CompressMode int

// CompressBlocks named the block-compressed writer when a store had a
// second one; it is kept, with Config.Compress, for bench/layers.go.
const CompressBlocks CompressMode = 1

const (
	// segHeader opens every segment file: the magic and, little-endian,
	// the payload version 3 — one stream, every record typed. Version 2
	// also held records as front-coded text, version 1 split a segment
	// into blocks; the files of both are refused.
	segHeader  = "DPMZ\x03\x00\x00\x00"
	headerSize = len(segHeader)

	tailMagic   = "DPMS"
	tailVersion = 3

	// TailSize is the fixed tail that ends a sealed segment: the magic,
	// the version, the Index, then the data length, the payload length,
	// the raw total, the stream's CRC and the tail's own, a u32 each.
	TailSize = 68

	// maxStreamRaw bounds a segment's decoded payload: a stream that
	// inflates past it, or a tail that declares more, is corruption, not
	// data. maxSegmentBytes, the v1-equivalent size no rotation or merge
	// takes a segment past by more than one record, keeps what a store
	// writes well inside it: a record's payload is about its FrameSize or
	// smaller.
	maxStreamRaw    = 1 << 26
	maxSegmentBytes = 1 << 24
)

// tail is a sealed segment's fixed-size tail, parsed.
type tail struct {
	Index    Index
	DataLen  int    // header + stream bytes; the tail starts here
	RawLen   int    // the stream's decoded payload bytes
	RawTotal int    // v1-equivalent bytes of the whole segment
	CRC      uint32 // IEEE CRC over the stream's bytes
}

// compSink accumulates the writer's DEFLATE output pending a backend
// append, with the CRC of the stream's bytes: summed when asked for, over
// everything written since — a flate.Writer hands its output over in
// pieces of a few bytes, and a checksum of those costs several times one
// of the whole.
type compSink struct {
	buf   []byte
	crc   uint32
	crcAt int // buf[crcAt:] is not in crc yet
	total int // stream bytes emitted so far (header excluded)
}

func (cs *compSink) Write(p []byte) (int, error) {
	cs.buf = append(cs.buf, p...)
	cs.total += len(p)
	return len(p), nil
}

// sum brings the stream CRC up to date and returns it.
func (cs *compSink) sum() uint32 {
	cs.crc = crc32.Update(cs.crc, crc32.IEEETable, cs.buf[cs.crcAt:])
	cs.crcAt = len(cs.buf)
	return cs.crc
}

// drained empties the buffer once its bytes, summed, are with the
// backend or given up.
func (cs *compSink) drained() { cs.buf, cs.crcAt = cs.buf[:0], 0 }

// deflater is the part of a flate.Writer the encoder drives.
type deflater interface {
	io.Writer
	Flush() error
	Close() error
	Reset(io.Writer)
}

// storedWriter is a flate.Writer at NoCompression, by hand: each Write
// becomes stored blocks, Flush the empty stored block that is DEFLATE's
// sync marker, Close the empty final one. The online writer flushes
// every few records, and flate's window copy and bit writer cost more
// than those records' bytes.
type storedWriter struct{ sink *compSink }

func (sw storedWriter) block(final byte, p []byte) {
	n := uint16(len(p))
	sw.sink.buf = append(append(sw.sink.buf, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8)), p...)
	sw.sink.total += 5 + len(p)
}

func (sw storedWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		n := min(len(rest), math.MaxUint16)
		sw.block(0, rest[:n])
		rest = rest[n:]
	}
	return len(p), nil
}

func (sw storedWriter) Flush() error    { sw.block(0, nil); return nil }
func (sw storedWriter) Close() error    { sw.block(1, nil); return nil }
func (sw storedWriter) Reset(io.Writer) {}

// compWriter is the per-shard compressed-segment encoder. All state is
// guarded by the owning shard's mutex. Records are staged typed into enc
// as they arrive and pushed through the DEFLATE stream at flush time, so
// compression cost is paid incrementally on the ingest path instead of
// as a seal-time rewrite.
type compWriter struct {
	sink compSink
	fw   deflater

	// Staged-but-unflushed state: the encoded payload, its
	// v1-equivalent size, and the record count (metadata is in the
	// shard's pending slice).
	enc      []byte
	stagedV1 int
	stagedN  int

	rawLen int // decoded payload bytes written to the stream

	prevTime uint32

	// The view pointed at each caller's slots, the state records are
	// deltas against, and how many records were staged.
	view   trace.View
	typed  trace.TypedState
	nTyped int
}

// newCompWriter builds the hot tier's encoder, which writes stored
// blocks (flate.NoCompression): the structural encoding — typed fields
// as deltas — has already squeezed the records ~12x, and DEFLATE entropy
// coding over that dense payload buys little while a dynamic-Huffman
// build per sync flush costs ~3x the whole ingest path. Stored blocks (storedWriter) keep
// the sync-marker durability contract for free; the archival tier
// re-encodes cold segments at archiveLevel.
func newCompWriter() *compWriter {
	w := &compWriter{}
	w.fw = storedWriter{&w.sink}
	return w
}

// archiveEncoders holds the cold tier's encoders, which DEFLATE at
// archiveLevel. A flate.Writer above level 1 is about a megabyte of hash
// chains and window that Reset reuses whole, once per segment
// (openSegment), and shards of every store in the process archive at the
// same level, so a warm encoder serves a run without allocating. Each is
// weighed at that megabyte and its buffers.
var archiveEncoders = &obs.FreeList[*compWriter]{Name: "encoders", Count: 8, Bytes: 16 << 20,
	Size: func(w *compWriter) int { return 1<<20 + cap(w.sink.buf) + cap(w.enc) },
	New: func(int) *compWriter {
		w := newCompWriter()
		w.fw, _ = flate.NewWriter(&w.sink, archiveLevel) // the level is a valid constant
		return w
	}}

// openSegment resets the writer for a fresh segment, stages the file
// header and starts the segment's DEFLATE stream.
func (w *compWriter) openSegment() {
	w.sink.buf = append(w.sink.buf[:0], segHeader...)
	w.sink.crc, w.sink.crcAt, w.sink.total = 0, len(w.sink.buf), 0
	w.fw.Reset(&w.sink)
	w.nTyped = 0
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN, w.rawLen = 0, 0, 0
	w.prevTime = 0
	w.typed = trace.TypedState{}
}

// stage encodes one record, typed from s, into the staging buffer, and
// accounts it at its line's v1-equivalent size.
func (w *compWriter) stage(m Meta, line []byte, s *trace.Slots) {
	w.view.PointAt(s, meter.Type(m.Type), int(m.Machine), int64(m.Time))
	w.add(m, &w.view)
	w.stagedV1 += FrameSize(len(line))
}

// flushStaged pushes the staged payload through the DEFLATE stream; with
// sync it ends on a sync marker so the bytes now in the sink form a
// decodable prefix. The caller owns writing sink.buf to the backend and
// folding the pending metadata into the segment's index.
func (w *compWriter) flushStaged(sync bool) error {
	if _, err := w.fw.Write(w.enc); err != nil {
		return err
	}
	if sync {
		if err := w.fw.Flush(); err != nil {
			return err
		}
	}
	w.sink.sum()
	w.rawLen += len(w.enc)
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN = 0, 0
	return nil
}

// add stages a record: its Meta, then typed from v. It is the whole
// per-record step of every offline encode — recovery, compaction,
// archival — where a scan hands over the view it decoded, with no line
// built, parsed or measured. It accounts no size: its callers do, and a
// rewrite sizes each input whole.
func (w *compWriter) add(m Meta, v *trace.View) {
	e := w.enc
	e = binary.AppendUvarint(e, uint64(m.Machine))
	e = binary.AppendUvarint(e, obs.Zigzag(int64(m.Time)-int64(w.prevTime)))
	w.prevTime = m.Time
	e = binary.AppendUvarint(e, uint64(m.Type))
	e = binary.AppendUvarint(e, uint64(m.PID))
	w.enc = v.AppendTyped(e, &w.typed)
	w.nTyped++
	w.stagedN++
}

// seal pushes anything still staged, ends the stream and returns the
// remaining unwritten bytes of the segment — pending stream output plus
// the tail — and the total on-disk size of the sealed file. The bytes
// are the writer's own buffer, reused by the next segment: the caller
// hands them to the backend (which copies) and keeps nothing.
func (w *compWriter) seal(x Index, rawTotal int) ([]byte, int, error) {
	if err := w.flushStaged(false); err != nil {
		return nil, 0, err
	}
	if err := w.fw.Close(); err != nil {
		return nil, 0, err
	}
	dataLen, pending := headerSize+w.sink.total, len(w.sink.buf)
	out := appendTail(w.sink.buf, tail{Index: x, DataLen: dataLen, RawLen: w.rawLen, RawTotal: rawTotal, CRC: w.sink.sum()})
	w.sink.buf = out
	w.sink.drained()
	return out, dataLen + len(out) - pending, nil
}

// appendTail appends a sealed segment's tail, whose last field is the CRC
// of the others.
func appendTail(dst []byte, t tail) []byte {
	le := binary.LittleEndian
	start := len(dst)
	dst = le.AppendUint32(append(dst, tailMagic...), tailVersion)
	dst = appendIndex(dst, t.Index)
	for _, v := range [...]uint32{uint32(t.DataLen), uint32(t.RawLen), uint32(t.RawTotal), t.CRC} {
		dst = le.AppendUint32(dst, v)
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// parseTail examines a segment file for a valid tail: its own CRC, the
// data length that places it at the end of the file, and a declared
// payload within maxStreamRaw. It reads nothing before the tail.
// ok=false means "not a sealed segment" — unsealed, or a mangled tail,
// which degrades to stream salvage.
func parseTail(data []byte) (t tail, ok bool) {
	if len(data) < headerSize+TailSize || string(data[:headerSize]) != segHeader {
		return tail{}, false
	}
	b := data[len(data)-TailSize:]
	c := obs.NewCursor(b, ErrCorrupt)
	if string(c.Take(4)) != tailMagic || c.U32() != tailVersion {
		return tail{}, false
	}
	t.Index = readIndex(&c)
	t.DataLen, t.RawLen, t.RawTotal, t.CRC = int(c.U32()), int(c.U32()), int(c.U32()), c.U32()
	if c.U32() != crc32.ChecksumIEEE(b[:TailSize-4]) || t.DataLen != len(data)-TailSize || t.RawLen > maxStreamRaw {
		return tail{}, false
	}
	return t, true
}

// Decoder decompresses and decodes segments through reused buffers: a
// warmed decoder allocates nothing per segment. Decoders are not safe
// for concurrent use; Acquire one per goroutine.
type Decoder struct {
	br   bytes.Reader
	zr   io.ReadCloser
	zres flate.Resetter
	raw  []byte
	line []byte

	// A record is decoded into view, against typed.
	view  trace.View
	typed trace.TypedState
}

// scanFn receives one decoded record as the decoder's view, valid only
// during the call.
type scanFn = func(m Meta, v *trace.View)

// lines adapts a callback that wants every record as text: its line is
// rendered from its view.
func (d *Decoder) lines(fn func(Meta, []byte)) scanFn {
	return func(m Meta, v *trace.View) {
		d.line = v.AppendLine(d.line[:0], 0)
		fn(m, d.line)
	}
}

var decoderPool = sync.Pool{New: func() any { return newDecoder() }}

// AcquireDecoder returns a pooled decoder; pair with ReleaseDecoder.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// ReleaseDecoder returns a decoder to the pool. Lines handed to scan
// callbacks alias the decoder's buffers and must not be retained past
// release.
func ReleaseDecoder(d *Decoder) { decoderPool.Put(d) }

func newDecoder() *Decoder {
	d := &Decoder{}
	d.zr = flate.NewReader(&d.br)
	d.zres = d.zr.(flate.Resetter)
	return d
}

// inflate decompresses a segment's one DEFLATE stream into the reused
// raw buffer and returns what it yields. The error is io.ErrUnexpectedEOF
// when the stream stops without its final block — a segment never sealed,
// or torn — and non-nil too when it is malformed, inflates past
// maxStreamRaw or is followed by more bytes; the bytes returned are still
// the stream's decodable prefix.
func (d *Decoder) inflate(stream []byte) ([]byte, error) {
	d.br.Reset(stream)
	if err := d.zres.Reset(&d.br, nil); err != nil {
		return nil, err
	}
	raw := d.raw[:0]
	for {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
		n, err := d.zr.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		d.raw = raw
		switch {
		case len(raw) > maxStreamRaw:
			return raw, fmt.Errorf("stream exceeds %d decoded bytes", maxStreamRaw)
		case err == io.EOF && d.br.Len() > 0:
			return raw, fmt.Errorf("%d bytes after the stream", d.br.Len())
		case err == io.EOF:
			return raw, nil
		case err != nil:
			return raw, err
		}
	}
}

// A record the decoder cannot read fails with errRecord: the scan
// reports it as ErrCorrupt or ErrTruncated.
var errRecord = errors.New("bad record")

// decodeRecords decodes the records of a segment's payload, emitting
// each through fn, and returns the number emitted; a malformed record
// stops the decode at its start.
func (d *Decoder) decodeRecords(raw []byte, fn scanFn) (int, error) {
	d.typed = trace.TypedState{}
	c := obs.NewCursor(raw, errRecord)
	var prevTime int64
	emitted := 0
	for c.Remaining() > 0 {
		start := c.Off()
		machine, t, typ, pid := c.Uvarint(), prevTime+c.Zigzag(), c.Uvarint(), c.Uvarint()
		if machine > 0xFFFF || t < 0 || t > 0xFFFFFFFF || typ > 0xFFFFFFFF || pid > 0xFFFFFFFF {
			c.Fail("record header out of range")
		}
		m := Meta{Machine: uint16(machine), Time: uint32(t), Type: uint32(typ), PID: uint32(pid)}
		prevTime = t
		if c.Err() == nil {
			d.view.DecodeTyped(&c, &d.typed, meter.Type(typ), int(machine), t)
		}
		if err := c.Err(); err != nil {
			return emitted, fmt.Errorf("%v at payload offset %d", err, start)
		}
		fn(m, &d.view)
		emitted++
	}
	return emitted, nil
}

// ScanStats reports what one segment scan did.
type ScanStats struct {
	Streams int // DEFLATE streams inflated: 1, or 0 for a file torn in its header
	Records int // records emitted
}

// ScanViews streams a segment's records through fn. A sealed segment's
// stream must match its tail — CRC, decoded length, the stream ending
// where the tail begins — or the scan returns ErrCorrupt before
// emitting anything; one that matches and holds a record that does not
// decode returns ErrCorrupt after the records before it. An unsealed
// segment salvages what its stream yields and reports a tear as
// ErrTruncated; a stream that merely stops after its last flush is no
// tear. A file of another format returns ErrFormat before emitting
// anything. Every error names the segment's file. It is the store's one
// decoder of segment bytes into records: queries, Load, Open's check and
// recovery, compaction and archival all read through it.
func (rs *ReaderSegment) ScanViews(d *Decoder, fn scanFn) (ScanStats, error) {
	var st ScanStats
	if err := formatErr(rs.Name, rs.data); err != nil {
		return st, err
	}
	if len(rs.data) < headerSize {
		return st, fmt.Errorf("%w: %s: torn after %d header bytes", ErrTruncated, rs.Name, len(rs.data))
	}
	stream, fail := rs.data[headerSize:], ErrTruncated
	if rs.Sealed {
		stream, fail = rs.data[headerSize:rs.tail.DataLen], ErrCorrupt
		if crc32.ChecksumIEEE(stream) != rs.tail.CRC {
			return st, fmt.Errorf("%w: %s: stream checksum mismatch", ErrCorrupt, rs.Name)
		}
	}
	st.Streams = 1
	raw, err := d.inflate(stream)
	switch {
	case !rs.Sealed && err == io.ErrUnexpectedEOF:
		err = nil // the stream ends where the last flush did
	case rs.Sealed && err == nil && len(raw) != rs.tail.RawLen:
		err = fmt.Errorf("stream decodes to %d bytes, the tail says %d", len(raw), rs.tail.RawLen)
	}
	if rs.Sealed && err != nil {
		return st, fmt.Errorf("%w: %s: %v", ErrCorrupt, rs.Name, err)
	}
	n, derr := d.decodeRecords(raw, fn)
	st.Records = n
	if derr != nil {
		err = derr
	}
	if err != nil {
		return st, fmt.Errorf("%w: %s: %v", fail, rs.Name, err)
	}
	return st, nil
}

// formatErr returns nil for a segment file that begins with segHeader,
// or is shorter than it and begins it — a write torn inside the header —
// and for any other an error wrapping ErrFormat that names the file.
func formatErr(name string, data []byte) error {
	if n := min(len(data), headerSize); string(data[:n]) != segHeader[:n] {
		return fmt.Errorf("%w: %s begins %q", ErrFormat, name, data[:n])
	}
	return nil
}
