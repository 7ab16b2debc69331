// Compressed segments: the one format every segment is written and read
// in. Meter records are highly repetitive — a handful of event names,
// monotone cpuTime clocks, near-identical lines per event type — so
// segments compress far better than CRC-framed text if the encoder
// exploits that structure before the byte-level compressor sees it:
//
//   - A segment's records are one DEFLATE stream.
//   - Each record is its Meta — machine, zigzag(cpuTime delta), type,
//     pid as varints — and then one of two shapes. A standard line
//     (trace.View.ParseStandard) whose header is that Meta is stored
//     *typed*: its fields as deltas against the last typed record of its
//     event type (internal/trace/typed.go), so that a scan fills a view
//     from them without building or parsing text. Any other line is
//     stored as *text*, front-coded against the previous text line of
//     the same type slot (shared prefix and suffix lengths plus a middle
//     section). Either way the record decodes to exactly the bytes it was
//     given: the typed shape is taken only when regenerating the line
//     from the view reproduces it, or when the caller handed the record
//     typed (BatchRec.Slots).
//   - Middle sections encode through a per-segment shared-name
//     dictionary: tokens (words, key= prefixes) that recur across
//     records become one- or two-byte references. Definitions are
//     carried in the stream where a token is first used, so a reader
//     grows the dictionary as it decodes, sealed or not.
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
//	[8B header: "DPMZ" + payload version u32 2 (segHeader)]
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
	// the payload version 2 — one stream, each record typed or text.
	// Version 1 split a segment into blocks; its files are refused.
	segHeader  = "DPMZ\x02\x00\x00\x00"
	headerSize = len(segHeader)

	tailMagic   = "DPMS"
	tailVersion = 3

	// TailSize is the fixed tail that ends a sealed segment: the magic,
	// the version, the Index, then the data length, the payload length,
	// the raw total, the stream's CRC and the tail's own, a u32 each.
	TailSize = 68

	// nameSlots is the number of previous-line slots used for
	// front-coding, keyed by Type%nameSlots: consecutive records of the
	// same event type are near-identical even when types interleave.
	nameSlots = 16

	// Dictionary limits: at most maxDictEntries tokens of
	// [minDictToken, maxDictToken] bytes each per segment.
	maxDictEntries = 512
	minDictToken   = 2
	maxDictToken   = 48

	// maxStreamRaw bounds a segment's decoded payload: a stream that
	// inflates past it, or a tail that declares more, is corruption, not
	// data. maxSegmentBytes, the v1-equivalent size no rotation or merge
	// takes a segment past by more than one record, keeps what a store
	// writes well inside it: a record's payload is about its FrameSize or
	// smaller.
	maxStreamRaw    = 1 << 26
	maxSegmentBytes = 1 << 24
)

// Middle-section opcodes. Values >= opRefBase are dictionary
// references (id = op - opRefBase).
const (
	opEnd     = 0
	opLit     = 1
	opDef     = 2
	opRefBase = 3
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
// guarded by the owning shard's mutex. Records are staged (typed, or
// front-coded text) into enc as they arrive and pushed through the
// DEFLATE stream at flush time, so compression cost is paid
// incrementally on the ingest path instead of as a seal-time rewrite.
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

	dictIDs map[string]int // the segment's dictionary: token to id

	prev     [nameSlots][]byte
	prevTime uint32

	// The typed shape: the view every staged line is parsed into, or
	// pointed at a caller's slots, the state typed records are deltas
	// against, and how many records of the segment took each shape.
	view          trace.View
	typed         trace.TypedState
	nTyped, nText int
}

// newCompWriter builds the hot tier's encoder, which writes stored
// blocks (flate.NoCompression): the structural encoding — typed fields
// as deltas, or front-coding and the shared dictionary — has already
// squeezed the records ~12x, and DEFLATE entropy coding over that dense
// payload buys little while a dynamic-Huffman build per sync flush
// costs ~3x the whole ingest path. Stored blocks (storedWriter) keep
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
	w.nTyped, w.nText = 0, 0
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN, w.rawLen = 0, 0, 0
	if w.dictIDs == nil {
		w.dictIDs = make(map[string]int)
	} else {
		clear(w.dictIDs)
	}
	for i := range w.prev {
		w.prev[i] = w.prev[i][:0]
	}
	w.prevTime = 0
	w.typed = trace.TypedState{}
}

// stage encodes one record into the staging buffer, as shape picks it,
// and accounts it at its line's v1-equivalent size.
func (w *compWriter) stage(m Meta, line []byte, s *trace.Slots) {
	w.stageAs(m, w.shape(m, line, s), line)
	w.stagedV1 += FrameSize(len(line))
}

// shape settles how a record is staged: typed from s (BatchRec.Slots),
// or else from a standard line whose header is m, or else — nil — the
// line as text, front-coded. Either way the record decodes to exactly
// the bytes given: a line shape types itself is proved by regenerating
// it, and s is what the line parses to.
func (w *compWriter) shape(m Meta, line []byte, s *trace.Slots) *trace.View {
	v := &w.view
	if s != nil {
		v.PointAt(s, meter.Type(m.Type), int(m.Machine), int64(m.Time))
	} else if !v.ParseStandard(line) || v.Machine != int(m.Machine) || v.CPUTime != int64(m.Time) || uint32(v.Type) != m.Type {
		return nil
	}
	return v
}

// stageAs stages a record whose shape is settled: its Meta, then typed
// from v — shape's view, or one a decoder read from a typed record, with
// nothing to prove again — or, with no view, the line as text. It
// accounts no size; its callers do.
func (w *compWriter) stageAs(m Meta, v *trace.View, line []byte) {
	e := w.enc
	e = binary.AppendUvarint(e, uint64(m.Machine))
	e = binary.AppendUvarint(e, obs.Zigzag(int64(m.Time)-int64(w.prevTime)))
	w.prevTime = m.Time
	e = binary.AppendUvarint(e, uint64(m.Type))
	e = binary.AppendUvarint(e, uint64(m.PID))
	if v != nil {
		e = v.AppendTyped(e, &w.typed)
		w.nTyped++
	} else {
		e = w.appendText(append(e, 0), int(m.Type)%nameSlots, line)
		w.nText++
	}
	w.enc = e
	w.stagedN++
}

// appendText appends the text shape of a line: front-coded against the
// last text line of its type slot, the middle through the dictionary.
func (w *compWriter) appendText(e []byte, slot int, line []byte) []byte {
	prev := w.prev[slot]
	p := commonPrefix(prev, line)
	s := commonSuffix(prev[p:], line[p:])
	mid := line[p : len(line)-s]
	e = binary.AppendUvarint(e, uint64(p))
	e = binary.AppendUvarint(e, uint64(s))
	if len(mid)*2 > len(line) {
		// Front-coding bought little (a first record, or a reordered
		// line): tokenize the middle through the shared dictionary.
		e = w.encodeTokens(e, mid)
	} else if len(mid) > 0 {
		e = append(e, opLit)
		e = binary.AppendUvarint(e, uint64(len(mid)))
		e = append(e, mid...)
	}
	w.prev[slot] = append(w.prev[slot][:0], line...)
	return append(e, opEnd)
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// encodeTokens emits mid as a sequence of literal runs and dictionary
// references/definitions. Tokens are space-run + word units; a token
// containing '=' splits into a key (through the '=', a strong
// dictionary candidate: field names recur on every record) and a
// value.
func (w *compWriter) encodeTokens(e []byte, mid []byte) []byte {
	lit := 0 // start of the pending literal run
	flushLit := func(end int) {
		if end > lit {
			e = append(e, opLit)
			e = binary.AppendUvarint(e, uint64(end-lit))
			e = append(e, mid[lit:end]...)
		}
	}
	// tryTok emits mid[start:end] as a dictionary ref (defining it on
	// first sight when it qualifies); false leaves it in the pending
	// literal run.
	tryTok := func(start, end int) {
		tok := mid[start:end]
		if len(tok) < minDictToken || len(tok) > maxDictToken {
			return
		}
		if id, ok := w.dictIDs[string(tok)]; ok {
			flushLit(start)
			e = binary.AppendUvarint(e, uint64(opRefBase+id))
			lit = end
			return
		}
		if len(w.dictIDs) >= maxDictEntries {
			return
		}
		w.dictIDs[string(tok)] = len(w.dictIDs)
		flushLit(start)
		e = append(e, opDef)
		e = binary.AppendUvarint(e, uint64(len(tok)))
		e = append(e, tok...)
		lit = end
	}
	i := 0
	for i < len(mid) {
		j := i
		for j < len(mid) && mid[j] == ' ' {
			j++
		}
		for j < len(mid) && mid[j] != ' ' {
			j++
		}
		if k := bytes.IndexByte(mid[i:j], '='); k >= 0 {
			tryTok(i, i+k+1) // key, leading spaces and '=' included
			if j-(i+k+1) >= 4 {
				tryTok(i+k+1, j) // value, when long enough to pay
			}
		} else {
			tryTok(i, j)
		}
		i = j
	}
	flushLit(len(mid))
	return e
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

// add is the per-record step of every offline encode — recovery,
// compaction, archival — where nothing need be decodable before the
// seal: the record, as a scan hands it over, is staged — one that was
// stored typed as its view, unfilled, with no line built, parsed or
// measured. It accounts no size: a rewrite sizes each input whole.
func (w *compWriter) add(m Meta, v *trace.View, line []byte) {
	if v == nil {
		v = w.shape(m, line, nil)
	}
	w.stageAs(m, v, line)
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
	w.view.Reset() // it aliases the last line staged
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
	prev [nameSlots][]byte
	// dict is the dictionary the stream has defined so far, its entries
	// aliasing raw.
	dict [][]byte

	// A typed record is decoded into view, against typed, and nTyped
	// counts them.
	view   trace.View
	typed  trace.TypedState
	nTyped int
}

// scanFn receives one decoded record: a record stored typed as the
// decoder's view (line is nil); any other as its stored line (the view
// is nil). Both are only valid during the call.
type scanFn = func(m Meta, v *trace.View, line []byte)

// lines adapts a callback that wants every record as text: the line of
// a typed record is regenerated from its view.
func (d *Decoder) lines(fn func(Meta, []byte)) scanFn {
	return func(m Meta, v *trace.View, line []byte) {
		if v != nil {
			d.line = v.AppendLine(d.line[:0], nil)
			line = d.line
		}
		fn(m, line)
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

// A record the decoder cannot read fails with errRecord, and one
// whose front-coding reaches outside the line before it with
// errFrontCoding inside that: the scan reports either as ErrCorrupt or
// ErrTruncated.
var (
	errRecord      = errors.New("bad record")
	errFrontCoding = errors.New("front-coding overrun")
)

// decodeRecords decodes the records of a segment's payload, emitting
// each through fn, and returns the number emitted; a malformed record
// stops the decode at its start.
func (d *Decoder) decodeRecords(raw []byte, fn scanFn) (int, error) {
	for i := range d.prev {
		d.prev[i] = d.prev[i][:0]
	}
	d.typed = trace.TypedState{}
	d.dict = d.dict[:0]
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
		slot := int(typ) % nameSlots
		// The shape byte: 0 is text, anything else starts a typed record.
		typed := c.Remaining() > 0 && raw[c.Off()] != 0
		switch {
		case c.Err() != nil:
		case typed:
			d.view.DecodeTyped(&c, &d.typed, meter.Type(typ), int(machine), t)
		default:
			c.U8()
			d.decodeText(&c, slot)
		}
		if err := c.Err(); err != nil {
			return emitted, fmt.Errorf("%v at payload offset %d", err, start)
		}
		if typed {
			fn(m, &d.view, nil)
			d.nTyped++
		} else {
			fn(m, nil, d.prev[slot])
		}
		emitted++
	}
	return emitted, nil
}

// decodeText reads the text shape at c — a line front-coded against the
// last of its slot — into d.prev[slot].
func (d *Decoder) decodeText(c *obs.Cursor, slot int) {
	prev := obs.NewCursor(d.prev[slot], errFrontCoding)
	line := append(d.line[:0], prev.Take(int(c.Uvarint()))...)
	suffix := int(c.Uvarint())
	// A failed cursor reads opEnd, which ends the loop.
	for op := c.Uvarint(); op != opEnd; op = c.Uvarint() {
		var b []byte
		switch id := op - opRefBase; { // unsigned: an opcode past int's range must not wrap below zero
		case op == opLit || op == opDef:
			b = c.Take(int(c.Uvarint()))
			if op == opDef {
				if len(d.dict) >= maxDictEntries || len(b) < minDictToken || len(b) > maxDictToken {
					c.Fail("bad dictionary definition")
					return
				}
				d.dict = append(d.dict, b)
			}
		case id < uint64(len(d.dict)):
			b = d.dict[id]
		default:
			c.Fail("dictionary reference %d out of range", id)
			return
		}
		if len(b) > MaxFrameSize-len(line) {
			c.Fail("line overruns frame limit")
			return
		}
		line = append(line, b...)
	}
	// What is left of the last line past its middle is the suffix.
	prev.Take(prev.Remaining() - suffix)
	b := prev.Take(suffix)
	if err := prev.Err(); err != nil {
		c.Fail("%v", err)
	} else if len(b) > MaxFrameSize-len(line) {
		c.Fail("line overruns frame limit")
	}
	if c.Err() == nil {
		d.prev[slot], d.line = append(line, b...), d.prev[slot]
	}
}

// ScanStats reports what one segment scan did.
type ScanStats struct {
	Streams int // DEFLATE streams inflated: 1, or 0 for a file torn in its header
	Records int // records emitted
	Typed   int // of those, the ones stored in the typed shape
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
	d.nTyped = 0
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
	st.Records, st.Typed = n, d.nTyped
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
