// Compressed segments: the one format every segment is written and read
// in. Meter records are highly repetitive — a handful of event names,
// monotone cpuTime clocks, near-identical lines per event type — so
// segments compress far better than CRC-framed text if the encoder
// exploits that structure before the byte-level compressor sees it:
//
//   - Records are grouped into *blocks* of ~BlockTarget (v1-equivalent)
//     bytes. Each block is one independent DEFLATE stream, so a reader
//     can decompress exactly the blocks a query admits.
//   - Within a block, each record is its Meta — machine,
//     zigzag(cpuTime delta), type, pid as varints — and then one of two
//     shapes. A standard line (trace.View.ParseStandard) whose header
//     is that Meta is stored *typed*: its fields as deltas against the
//     last typed record of its event type (internal/trace/typed.go), so
//     that a scan fills a view from them without building or parsing
//     text. Any other line is stored as *text*, front-coded against the
//     previous text line of the same type slot (shared prefix and suffix
//     lengths plus a middle section). Either way the record decodes to
//     exactly the bytes it was given: the typed shape is taken only
//     when regenerating the line from the view reproduces it, or when
//     the caller handed the record typed (BatchRec.Slots).
//   - Middle sections encode through a per-segment shared-name
//     dictionary: tokens (words, key= prefixes) that recur across
//     records become one- or two-byte references. Definitions are
//     carried in-stream (so an unsealed segment is self-describing for
//     salvage) and repeated in the footer (so a sealed reader can
//     decode any block without replaying the ones before it).
//   - The sealed footer carries a per-block table — offset, compressed
//     and raw lengths, a CRC over the compressed bytes, and a zone map
//     (the same Index the tail carries for the segment, per block) — so
//     internal/query prunes at block granularity, not just whole
//     segments.
//
// Durability is per flush: every flush ends with a DEFLATE sync
// marker, so everything a backend Append carried is decodable even if
// the writer dies before sealing; the block boundaries of a torn
// segment are recovered by walking the concatenated streams (a
// bytes.Reader hands DEFLATE exactly the bytes it needs, so stream
// ends land on stream starts).
//
// File layout:
//
//	[8B header: "DPMZ" + payload version u32 1 (segHeader)]
//	[block 0: one DEFLATE stream][block 1] ... [block n-1]
//	[footer body: dictionary entries + block table, varint encoded]
//	[72B footer tail: "DPMS" + version u32 2, segment index, lengths, CRCs]
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
	// the payload version 1 — each record of a block says whether it is
	// typed or text. The V2 of the names below is the container's, which
	// came with the second format.
	segHeader    = "DPMZ\x01\x00\x00\x00"
	headerV2Size = len(segHeader)

	footerMagic     = "DPMS"
	footerVersionV2 = 2

	// FooterV2Size is the fixed tail of a sealed segment; the
	// variable-length footer body (dictionary + block table) precedes it.
	FooterV2Size = 72

	// DefaultBlockTarget is the v1-equivalent byte size at which a block
	// closes and the next DEFLATE stream starts.
	DefaultBlockTarget = 64 << 10

	// nameSlots is the number of previous-line slots used for
	// front-coding, keyed by Type%nameSlots: consecutive records of the
	// same event type are near-identical even when types interleave.
	nameSlots = 16

	// Dictionary limits: at most maxDictEntries tokens of
	// [minDictToken, maxDictToken] bytes each per segment.
	maxDictEntries = 512
	minDictToken   = 2
	maxDictToken   = 48

	// maxBlockRaw bounds a block's declared decoded size; larger values
	// in a footer are corruption, not data.
	maxBlockRaw = 1 << 26
)

// Middle-section opcodes. Values >= opRefBase are dictionary
// references (id = op - opRefBase).
const (
	opEnd     = 0
	opLit     = 1
	opDef     = 2
	opRefBase = 3
)

// BlockInfo describes one block of a sealed segment.
type BlockInfo struct {
	// Off is the block's byte offset from the end of the file header;
	// CompLen its compressed length; RawLen its decoded payload length.
	Off, CompLen, RawLen int
	// CRC is the IEEE CRC over the compressed bytes.
	CRC uint32
	// Index is the block's zone map: the same conservative summary the
	// footer tail carries for the whole segment, scoped to this block.
	Index Index
}

// footerV2 is a sealed segment's footer. parseFooterV2 fills the
// fixed tail's fields, which are all that admitting or pruning the
// segment needs; Dict and Blocks are the variable-length body, decoded
// by decodeBody when the segment is actually scanned.
type footerV2 struct {
	Index    Index
	DataLen  int // header + block bytes; the footer body starts here
	RawTotal int // v1-equivalent bytes of the whole segment

	bodyLen    int
	blockCount int

	Dict   [][]byte
	Blocks []BlockInfo
}

// compSink accumulates the writer's DEFLATE output pending a backend
// append, with the CRC of the current block's bytes: summed when asked
// for, over everything written since — a flate.Writer hands its output
// over in pieces of a few bytes, and a checksum of those costs several
// times one of the whole.
type compSink struct {
	buf   []byte
	crc   uint32
	crcAt int // buf[crcAt:] is not in crc yet
	total int // block-region bytes emitted so far (header excluded)
}

func (cs *compSink) Write(p []byte) (int, error) {
	cs.buf = append(cs.buf, p...)
	cs.total += len(p)
	return len(p), nil
}

// sum brings the block CRC up to date and returns it.
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
	target int

	sink compSink
	fw   deflater

	// Staged-but-unflushed state: the encoded payload, its
	// v1-equivalent size, and the record count (metadata is in the
	// shard's pending slice).
	enc      []byte
	stagedV1 int
	stagedN  int

	// Current block accumulation (flushed records only).
	curIdx Index
	curOff int
	curRaw int // decoded payload bytes written this block
	curV1  int // v1-equivalent bytes written this block

	blocks []blockMeta

	dictIDs     map[string]int
	dictEntries [][]byte

	prev     [nameSlots][]byte
	prevTime uint32

	// The typed shape: the view every staged line is parsed into, or
	// pointed at a caller's slots, the state typed records are deltas
	// against (reset with prev), and how many records of the segment took
	// each shape.
	view          trace.View
	typed         trace.TypedState
	nTyped, nText int

	lineBuf []byte // string→[]byte staging for the single-record path
}

type blockMeta struct {
	off, compLen, rawLen int
	crc                  uint32
	idx                  Index
}

// newCompWriter builds the hot tier's encoder, which writes stored
// blocks (flate.NoCompression): the structural encoding — typed fields
// as deltas, or front-coding and the shared dictionary — has already
// squeezed the records ~12x, and DEFLATE entropy coding over that dense
// payload buys little while a dynamic-Huffman build per sync flush
// costs ~3x the whole ingest path. Stored blocks (storedWriter) keep
// the sync-marker durability contract for free; the archival tier
// re-encodes cold segments at archiveLevel.
func newCompWriter(target int) *compWriter {
	if target <= 0 {
		target = DefaultBlockTarget
	}
	w := &compWriter{target: target}
	w.fw = storedWriter{&w.sink}
	return w
}

// archiveEncoders pools the cold tier's encoders, which DEFLATE at
// archiveLevel; the run being archived sets the block target. A
// flate.Writer above level 1 is about a megabyte of hash chains and
// window that Reset reuses whole, once per block (flushStaged), and
// shards of every store in the process archive at the same level, so a
// warm encoder serves a run without allocating.
var archiveEncoders = sync.Pool{New: func() any {
	w := newCompWriter(0)
	w.fw, _ = flate.NewWriter(&w.sink, archiveLevel) // the level is a valid constant
	return w
}}

// openSegment resets the writer for a fresh segment and stages the
// file header.
func (w *compWriter) openSegment() {
	w.sink.buf = append(w.sink.buf[:0], segHeader...)
	w.sink.crc, w.sink.crcAt, w.sink.total = 0, len(w.sink.buf), 0
	w.nTyped, w.nText = 0, 0
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN = 0, 0
	w.curIdx, w.curOff, w.curRaw, w.curV1 = Index{}, 0, 0, 0
	w.blocks = w.blocks[:0]
	if w.dictIDs == nil {
		w.dictIDs = make(map[string]int)
	} else {
		clear(w.dictIDs)
	}
	w.dictEntries = w.dictEntries[:0]
	w.resetBlockCoding()
}

func (w *compWriter) resetBlockCoding() {
	for i := range w.prev {
		w.prev[i] = w.prev[i][:0]
	}
	w.prevTime = 0
	w.typed = trace.TypedState{}
}

// closeBlock finishes the current DEFLATE stream and records the
// block's table entry. No-op on an empty block.
func (w *compWriter) closeBlock() error {
	if w.curRaw == 0 {
		return nil
	}
	if err := w.fw.Close(); err != nil {
		return err
	}
	w.blocks = append(w.blocks, blockMeta{
		off: w.curOff, compLen: w.sink.total - w.curOff,
		rawLen: w.curRaw, crc: w.sink.sum(), idx: w.curIdx,
	})
	w.curOff = w.sink.total
	w.curRaw, w.curV1 = 0, 0
	w.curIdx = Index{}
	w.sink.crc = 0
	w.resetBlockCoding()
	return nil
}

// stage encodes one record into the staging buffer, as shape picks it,
// and accounts it at its line's v1-equivalent size.
func (w *compWriter) stage(m Meta, line []byte, s *trace.Slots) error {
	if err := w.stageAs(m, w.shape(m, line, s), line); err != nil {
		return err
	}
	w.stagedV1 += FrameSize(len(line))
	return nil
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
// accounts no size; its callers do. The block boundary is checked only
// when nothing is staged, so both ends agree where coding state resets.
func (w *compWriter) stageAs(m Meta, v *trace.View, line []byte) error {
	if w.stagedN == 0 && w.curV1 >= w.target {
		if err := w.closeBlock(); err != nil {
			return err
		}
	}
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
	return nil
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
		if len(w.dictEntries) >= maxDictEntries {
			return
		}
		cp := append([]byte(nil), tok...)
		w.dictIDs[string(cp)] = len(w.dictEntries)
		w.dictEntries = append(w.dictEntries, cp)
		flushLit(start)
		e = append(e, opDef)
		e = binary.AppendUvarint(e, uint64(len(cp)))
		e = append(e, cp...)
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

// flushStaged pushes the staged payload through the DEFLATE stream,
// which a block's first bytes start (its one Reset); with sync it ends
// on a sync marker so the bytes now in the sink form a decodable prefix.
// The caller owns writing sink.buf to the backend and folding the
// pending metadata into the block/segment indexes.
func (w *compWriter) flushStaged(sync bool) error {
	if len(w.enc) > 0 {
		if w.curRaw == 0 {
			w.fw.Reset(&w.sink)
		}
		if _, err := w.fw.Write(w.enc); err != nil {
			return err
		}
	}
	if sync {
		if err := w.fw.Flush(); err != nil {
			return err
		}
	}
	w.sink.sum()
	w.curRaw += len(w.enc)
	w.curV1 += w.stagedV1
	w.enc = w.enc[:0]
	w.stagedV1, w.stagedN = 0, 0
	return nil
}

// foldMeta folds one flushed record's metadata into the current
// block's zone map.
func (w *compWriter) foldMeta(m Meta) { w.curIdx.Add(m) }

// add is the per-record step of every offline encode — recovery,
// compaction, archival — where nothing need be decodable before the
// seal: the record, as a scan hands it over, is staged — one that was
// stored typed as its view, unfilled, with no line built, parsed or
// measured — and folded into its block's zone map. It accounts no size:
// endInput accounts the whole input at once.
func (w *compWriter) add(m Meta, v *trace.View, line []byte) error {
	if v == nil {
		v = w.shape(m, line, nil)
	}
	if err := w.stageAs(m, v, line); err != nil {
		return err
	}
	w.foldMeta(m)
	return nil
}

// endInput accounts the records added since the last call — one input of
// a rewrite, scanned whole — at n v1-equivalent bytes, the size the
// input was recorded at, and sends a block's worth of staged payload
// through DEFLATE in one write. The block then closes as the next input's
// first record is staged (stageAs): blocks break only between inputs.
func (w *compWriter) endInput(n int) error {
	w.stagedV1 += n
	if w.curV1+w.stagedV1 >= w.target {
		return w.flushStaged(false)
	}
	return nil
}

// seal pushes anything still staged, closes the open block and returns
// the remaining unwritten bytes of the segment — pending block output
// plus the footer — and the total on-disk size of the sealed file. The
// bytes are the writer's own buffer, reused by the next segment: the
// caller hands them to the backend (which copies) and keeps nothing.
func (w *compWriter) seal(x Index, rawTotal int) ([]byte, int, error) {
	if err := w.flushStaged(false); err != nil {
		return nil, 0, err
	}
	if err := w.closeBlock(); err != nil {
		return nil, 0, err
	}
	dataLen, pending := headerV2Size+w.sink.total, len(w.sink.buf)
	out := appendFooterV2(w.sink.buf, x, uint32(dataLen), uint32(rawTotal), w.dictEntries, w.blocks)
	w.sink.buf = out
	w.sink.drained()
	w.view.Reset() // it aliases the last line staged
	return out, dataLen + len(out) - pending, nil
}

// appendFooterV2 appends the footer body (dictionary + block table)
// and the fixed tail.
func appendFooterV2(dst []byte, x Index, dataLen, rawTotal uint32, dict [][]byte, blocks []blockMeta) []byte {
	le := binary.LittleEndian
	bodyStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	for _, e := range dict {
		dst = binary.AppendUvarint(dst, uint64(len(e)))
		dst = append(dst, e...)
	}
	for _, b := range blocks {
		dst = binary.AppendUvarint(dst, uint64(b.off))
		dst = binary.AppendUvarint(dst, uint64(b.compLen))
		dst = binary.AppendUvarint(dst, uint64(b.rawLen))
		dst = le.AppendUint32(dst, b.crc)
		dst = binary.AppendUvarint(dst, uint64(b.idx.Count))
		dst = binary.AppendUvarint(dst, b.idx.MinTime)
		dst = binary.AppendUvarint(dst, b.idx.MaxTime)
		dst = le.AppendUint64(dst, b.idx.Machines)
		dst = le.AppendUint64(dst, b.idx.PIDs)
		dst = le.AppendUint32(dst, b.idx.Types)
	}
	tail, bodyCRC := len(dst), crc32.ChecksumIEEE(dst[bodyStart:])
	dst = le.AppendUint32(append(dst, footerMagic...), footerVersionV2)
	dst = appendIndex(dst, x)
	for _, v := range [...]uint32{dataLen, uint32(tail - bodyStart), uint32(len(blocks)), rawTotal, bodyCRC} {
		dst = le.AppendUint32(dst, v)
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[tail:]))
}

// parseFooterV2 examines a segment file for a valid footer tail: the
// tail's own CRC, the length equation that places header, blocks, body
// and tail in the file, and the CRC of the body. It reads nothing
// before the body and decodes none of it. ok=false means "not a sealed
// segment" — unsealed, or a mangled footer, which degrades to stream
// salvage.
func parseFooterV2(data []byte) (f footerV2, ok bool) {
	if len(data) < headerV2Size+FooterV2Size || string(data[:headerV2Size]) != segHeader {
		return footerV2{}, false
	}
	t := data[len(data)-FooterV2Size:]
	c := obs.NewCursor(t, ErrCorrupt)
	if string(c.Take(4)) != footerMagic || c.U32() != footerVersionV2 {
		return footerV2{}, false
	}
	f.Index = readIndex(&c)
	f.DataLen, f.bodyLen, f.blockCount, f.RawTotal = int(c.U32()), int(c.U32()), int(c.U32()), int(c.U32())
	bodyCRC, tailCRC := c.U32(), c.U32()
	if tailCRC != crc32.ChecksumIEEE(t[:FooterV2Size-4]) ||
		f.DataLen < headerV2Size || f.DataLen+f.bodyLen+FooterV2Size != len(data) ||
		crc32.ChecksumIEEE(data[f.DataLen:f.DataLen+f.bodyLen]) != bodyCRC {
		return footerV2{}, false
	}
	return f, true
}

// decodeBody decodes the footer body of data, the file parseFooterV2
// took f from, into f.Dict (aliasing data) and f.Blocks. Any
// malformation fails the decode rather than risking a bad table: the
// body's CRC lives in the file, so a crafted body passes it, and the
// caller degrades the segment to stream salvage.
func (f *footerV2) decodeBody(data []byte) bool {
	c := obs.NewCursor(data[f.DataLen:f.DataLen+f.bodyLen], ErrCorrupt)
	nd := c.Uvarint()
	if nd > maxDictEntries {
		return false
	}
	dict := make([][]byte, 0, nd)
	for range nd {
		l := c.Uvarint()
		if l > maxDictToken {
			return false
		}
		dict = append(dict, c.Take(int(l)))
	}
	// A table entry takes at least 30 bytes, so a count beyond the bytes
	// left fails here, before it sizes an allocation.
	if f.blockCount < 0 || f.blockCount > c.Remaining() {
		return false
	}
	region := f.DataLen - headerV2Size
	blocks := make([]BlockInfo, f.blockCount)
	for i := range blocks {
		b := &blocks[i]
		b.Off, b.CompLen, b.RawLen, b.CRC = int(c.Uvarint()), int(c.Uvarint()), int(c.Uvarint()), c.U32()
		b.Index = Index{Count: uint32(c.Uvarint()), MinTime: c.Uvarint(), MaxTime: c.Uvarint(), Machines: c.U64(), PIDs: c.U64(), Types: c.U32()}
		// Off is bounded before the subtraction so the block-extent test
		// is overflow-free — a crafted table passes the footer CRCs (they
		// live in the file), so a wrapped Off+CompLen sum would otherwise
		// reach the region slicing in ScanViews. A varint of 2^63 or more
		// is a negative int here.
		if b.Off < 0 || b.CompLen < 0 || b.Off > region || b.CompLen > region-b.Off ||
			b.RawLen <= 0 || b.RawLen > maxBlockRaw {
			return false
		}
	}
	if c.Err() != nil || c.Remaining() != 0 {
		return false
	}
	f.Dict, f.Blocks = dict, blocks
	return true
}

// Decoder decompresses and decodes blocks through reused buffers: a
// warmed decoder allocates nothing per block. Decoders are not safe
// for concurrent use; Acquire one per goroutine.
type Decoder struct {
	br       bytes.Reader
	zr       io.ReadCloser
	zres     flate.Resetter
	raw      []byte
	line     []byte
	one      [1]byte // over-read probe; a field so it never escapes
	prev     [nameSlots][]byte
	dict     [][]byte
	dictBuf  [][]byte // decoder-owned grow-mode backing array; see decodeStreams
	growDict bool

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

func (d *Decoder) resetBlockCoding() {
	for i := range d.prev {
		d.prev[i] = d.prev[i][:0]
	}
	d.typed = trace.TypedState{}
}

// decodeBlock decompresses one sealed block (checking its CRC and
// declared raw length) and emits its records. What fn is passed is
// reused; callers must copy what they keep.
func (d *Decoder) decodeBlock(comp []byte, rawLen int, crc uint32, dict [][]byte, fn scanFn) (int, error) {
	if crc32.ChecksumIEEE(comp) != crc {
		return 0, fmt.Errorf("block checksum mismatch")
	}
	if rawLen <= 0 || rawLen > maxBlockRaw {
		return 0, fmt.Errorf("bad block raw length %d", rawLen)
	}
	d.br.Reset(comp)
	if err := d.zres.Reset(&d.br, nil); err != nil {
		return 0, err
	}
	if cap(d.raw) < rawLen {
		d.raw = make([]byte, rawLen)
	}
	raw := d.raw[:rawLen]
	if _, err := io.ReadFull(d.zr, raw); err != nil {
		return 0, fmt.Errorf("block decompress: %v", err)
	}
	if n, err := d.zr.Read(d.one[:]); n != 0 || (err != nil && err != io.EOF) {
		return 0, fmt.Errorf("block longer than declared")
	}
	d.dict, d.growDict = dict, false
	d.resetBlockCoding()
	n, consumed, err := d.decodeRecords(raw, fn)
	if err == nil && consumed != len(raw) {
		err = fmt.Errorf("%d trailing bytes in block payload", len(raw)-consumed)
	}
	return n, err
}

// decodeStreams walks the concatenated DEFLATE streams of an unsealed
// segment (everything after the file header), growing the
// dictionary from in-stream definitions, and emits every cleanly
// decodable record. A torn tail — a stream or record cut mid-write —
// returns the count emitted so far with a non-nil error describing the
// tear; the records already emitted are the recoverable prefix.
func (d *Decoder) decodeStreams(data []byte, fn scanFn) (int, int, error) {
	d.br.Reset(data)
	// Grow into the decoder-OWNED backing array, never into whatever
	// d.dict last aliased: after a sealed-block decode it points at a
	// segment's shared footer dictionary, and appending through it
	// would overwrite entries that concurrent scans of that segment
	// are still reading.
	d.dict = d.dictBuf[:0]
	d.growDict = true
	total, streams := 0, 0
	for d.br.Len() > 0 {
		if err := d.zres.Reset(&d.br, nil); err != nil {
			return total, streams, err
		}
		raw, rerr := d.readStream()
		streams++
		d.resetBlockCoding()
		n, consumed, derr := d.decodeRecords(raw, fn)
		d.dictBuf = d.dict[:0] // retain capacity grown inside decodeRecords
		total += n
		if derr != nil {
			return total, streams, derr
		}
		if consumed != len(raw) {
			return total, streams, fmt.Errorf("%d trailing bytes in stream %d", len(raw)-consumed, streams-1)
		}
		if rerr != nil {
			// The stream itself tore (no terminator): everything it
			// yielded decoded cleanly, but nothing can follow it.
			if d.br.Len() > 0 {
				return total, streams, rerr
			}
			return total, streams, nil
		}
	}
	return total, streams, nil
}

// readStream drains the current DEFLATE stream into the reused raw
// buffer. err is non-nil when the stream ends without a terminator (a
// torn tail); the returned bytes are still the stream's decodable
// prefix.
func (d *Decoder) readStream() ([]byte, error) {
	raw := d.raw[:0]
	for {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
		n, err := d.zr.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		if err == io.EOF {
			d.raw = raw
			return raw, nil
		}
		if err != nil {
			d.raw = raw
			return raw, err
		}
		if len(raw) > maxBlockRaw {
			d.raw = raw
			return raw, fmt.Errorf("stream exceeds %d decoded bytes", maxBlockRaw)
		}
	}
}

// A block record the decoder cannot read fails with errRecord, and one
// whose front-coding reaches outside the line before it with
// errFrontCoding inside that: the scan reports either as ErrCorrupt or
// ErrTruncated.
var (
	errRecord      = errors.New("bad record")
	errFrontCoding = errors.New("front-coding overrun")
)

// decodeRecords decodes the records of one block payload, emitting
// each through fn. It returns the number emitted and the bytes
// consumed; a malformed record stops the decode at its start.
func (d *Decoder) decodeRecords(raw []byte, fn scanFn) (int, int, error) {
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
			return emitted, start, fmt.Errorf("%v at payload offset %d", err, start)
		}
		if typed {
			fn(m, &d.view, nil)
			d.nTyped++
		} else {
			fn(m, nil, d.prev[slot])
		}
		emitted++
	}
	return emitted, len(raw), nil
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
			// With a preloaded (footer) dictionary the entry is already
			// present; the definition just emits.
			if op == opDef && d.growDict {
				if len(d.dict) >= maxDictEntries || len(b) < minDictToken || len(b) > maxDictToken {
					c.Fail("bad dictionary definition")
					return
				}
				d.dict = append(d.dict, append([]byte(nil), b...))
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
	Blocks       int // blocks (or, unsealed, streams) visited
	BlocksPruned int // blocks skipped on zone-map evidence
	Records      int // records emitted
	Typed        int // of those, the ones stored in the typed shape
}

// ScanViews streams a segment's records through fn: a sealed segment
// decompresses only the blocks admit accepts (nil admit scans
// everything), and an unsealed one salvages its valid prefix before
// reporting ErrTruncated. Corruption of a sealed segment returns
// ErrCorrupt after emitting the blocks preceding the damage, and a file
// of another format ErrFormat before emitting anything. It is the
// store's one decoder of segment bytes into records: queries, Load,
// Open's check and recovery, compaction and archival all read through it.
func (rs *ReaderSegment) ScanViews(d *Decoder, admit func(Index) bool, fn scanFn) (ScanStats, error) {
	var st ScanStats
	d.nTyped = 0
	if err := formatErr(rs.Name, rs.data); err != nil {
		return st, err
	}
	if f := rs.footer(); f != nil {
		region := rs.data[headerV2Size:f.DataLen]
		for i := range f.Blocks {
			b := &f.Blocks[i]
			st.Blocks++
			if admit != nil && !admit(b.Index) {
				st.BlocksPruned++
				continue
			}
			n, err := d.decodeBlock(region[b.Off:b.Off+b.CompLen], b.RawLen, b.CRC, f.Dict, fn)
			st.Records, st.Typed = st.Records+n, d.nTyped
			if err != nil {
				return st, fmt.Errorf("%w: block %d: %v", ErrCorrupt, i, err)
			}
		}
		return st, nil
	}
	// Unsealed — or sealed by its tail over a footer body that does not
	// decode, which scans as the unsealed file it would have been taken
	// for had the whole footer been parsed up front.
	if len(rs.data) < headerV2Size {
		return st, fmt.Errorf("%w: torn after %d header bytes", ErrTruncated, len(rs.data))
	}
	n, streams, err := d.decodeStreams(rs.data[headerV2Size:], fn)
	st.Records, st.Blocks, st.Typed = n, streams, d.nTyped
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return st, nil
}

// footer returns a sealed segment's footer with its body decoded, on
// first use — nil for an unsealed segment, and for one whose body does
// not decode.
func (rs *ReaderSegment) footer() *footerV2 {
	if rs.v2.DataLen == 0 {
		return nil
	}
	rs.v2body.Do(func() { rs.v2ok = rs.v2.decodeBody(rs.data) })
	if !rs.v2ok {
		return nil
	}
	return &rs.v2
}

// Blocks returns a sealed segment's block table (nil for an unsealed
// one). Callers must not modify the entries.
func (rs *ReaderSegment) Blocks() []BlockInfo {
	if f := rs.footer(); f != nil {
		return f.Blocks
	}
	return nil
}

// formatErr returns nil for a segment file that begins with segHeader,
// or is shorter than it and begins it — a write torn inside the header —
// and for any other an error wrapping ErrFormat that names the file.
func formatErr(name string, data []byte) error {
	if n := min(len(data), headerV2Size); string(data[:n]) != segHeader[:n] {
		return fmt.Errorf("%w: %s begins %q", ErrFormat, name, data[:n])
	}
	return nil
}
