package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// fuzzSeedRecs are the records of the smallest seeds: three stored as
// text, each line's header not being its record's Meta.
func fuzzSeedRecs() []Rec {
	var recs []Rec
	for i := 0; i < 3; i++ {
		m := Meta{Machine: uint16(i), Time: uint32(i * 100), Type: uint32(i + 1), PID: uint32(50 + i)}
		recs = append(recs, Rec{m, "SEND machine=1 cpuTime=1 procTime=0 pid=1"})
	}
	return recs
}

// fuzzSeedSegment builds a small sealed segment for the fuzz corpus.
func fuzzSeedSegment() []byte {
	out, err := newCompWriter().encodeSealed(fuzzSeedRecs())
	if err != nil {
		panic(err)
	}
	return out
}

// fuzzSeedV3 builds a small sealed segment whose records are typed, but
// for the few that are not standard.
func fuzzSeedV3() []byte {
	var recs []Rec
	for _, r := range shapeRecs(rand.New(rand.NewSource(3)), 60) {
		recs = append(recs, r.Rec)
	}
	out, err := newCompWriter().encodeSealed(recs)
	if err != nil {
		panic(err)
	}
	return out
}

// fuzzSeedV2 builds a small sealed segment with a shared dictionary
// worth corrupting: every line's header differs from its Meta, so all of
// them take the text shape.
func fuzzSeedV2() []byte {
	var recs []Rec
	for i := 0; i < 40; i++ {
		m := Meta{Machine: uint16(i % 3), Time: uint32(i * 100), Type: uint32(i%4 + 1), PID: uint32(50 + i%5)}
		recs = append(recs, Rec{Meta: m, Line: "SEND machine=1 cpuTime=1 procTime=0 pid=1 msgLength=240"})
	}
	out, err := newCompWriter().encodeSealed(recs)
	if err != nil {
		panic(err)
	}
	return out
}

// fuzzSeedOverflow builds an unsealed segment whose single text record
// declares front-coding lengths p=MaxUint64, s=1: the uint64 sum wraps
// to zero, which an unchecked p+s bounds test would admit before
// prev[:p] panicked. The parser must reject it as a torn record.
func fuzzSeedOverflow() []byte {
	return unsealedOf(textRecord(math.MaxUint64, 1, nil))
}

// unsealedOf returns an unsealed segment, its stream ended but no tail
// written, whose payload is payload.
func unsealedOf(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(segHeader)
	fw, _ := flate.NewWriter(&buf, flate.NoCompression)
	fw.Write(payload)
	fw.Close()
	return buf.Bytes()
}

// recordMeta appends the Meta every crafted record carries, of type typ.
func recordMeta(b []byte, typ meter.Type) []byte {
	b = binary.AppendUvarint(b, 1)               // machine
	b = binary.AppendUvarint(b, obs.Zigzag(100)) // time delta
	b = binary.AppendUvarint(b, uint64(typ))     // type
	return binary.AppendUvarint(b, 1)            // pid
}

// textRecord is a text record of type 1 with front-coding lengths p and
// s and, when lit is not nil, one literal.
func textRecord(p, s uint64, lit []byte) []byte {
	b := append(recordMeta(nil, 1), 0) // shape: text
	b = binary.AppendUvarint(binary.AppendUvarint(b, p), s)
	if lit != nil {
		b = append(binary.AppendUvarint(append(b, opLit), uint64(len(lit))), lit...)
	}
	return append(b, opEnd)
}

// crafted is a segment payload, named, what its refusal says, and how
// many valid records stand before the refused one.
type crafted struct {
	name, err string
	payload   []byte
	kept      int
}

// craftedPayloads are segment payloads holding, behind one valid text
// record and where bytes can follow with another behind it, a length
// that an offset-plus-length check admits by wrapping: front-coding
// lengths whose sum passes 2^64, a literal of 2^63 bytes, and a typed
// number whose varint runs off the payload.
func craftedPayloads() []crafted {
	first, after := textRecord(0, 0, []byte("SEND a")), textRecord(0, 0, []byte("SEND b"))
	huge := append(recordMeta(nil, 1), 0, 0, 0, opLit)
	huge = append(binary.AppendUvarint(huge, 1<<63), "SEND c"...)
	// Flags typedShape|typedPresence, SEND's pid present and changed, and
	// the first byte of its delta.
	cut := append(recordMeta(nil, meter.EvSend), 3, 1, 1, 0x80)
	return []crafted{
		{"prefix plus suffix past 2^64", "front-coding overrun", slices.Concat(first, textRecord(1, math.MaxUint64, nil), after), 1},
		{"literal of 2^63 bytes", "truncated", slices.Concat(first, append(huge, opEnd), after), 1},
		{"typed varint off the payload", "bad varint", slices.Concat(first, cut), 1},
	}
}

// TestFrontCodingLengthOverflow pins the crafted-overflow segment:
// ParseSegment must degrade to ErrTruncated with nothing salvaged, not
// panic — Store.Open parses every unsealed segment, so a panic here
// crash-loops reopen on one corrupt file. The error is the front-coding
// check's: the file is one the reader reads, not one it refuses.
func TestFrontCodingLengthOverflow(t *testing.T) {
	seg, err := ParseSegment(fuzzSeedOverflow())
	if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "front-coding overrun") {
		t.Fatalf("err = %v, want ErrTruncated from the front-coding check", err)
	}
	if len(seg.Recs) != 0 {
		t.Fatalf("salvaged %d records from a malformed segment", len(seg.Recs))
	}
}

// TestCraftedLengthsRefused: each of craftedPayloads is refused where
// it stands, as a torn tail — no panic, the records before it salvaged
// and nothing after it.
func TestCraftedLengthsRefused(t *testing.T) {
	// And a line whose middle and suffix are each within MaxFrameSize
	// but together are not: too large for a fuzz seed.
	long := textRecord(0, 0, make([]byte, MaxFrameSize))
	wide := crafted{"middle plus suffix past MaxFrameSize", "line overruns frame limit",
		slices.Concat(textRecord(0, 0, []byte("SEND a")), long, textRecord(0, MaxFrameSize, make([]byte, MaxFrameSize))), 2}
	for _, c := range append(craftedPayloads(), wide) {
		seg, err := ParseSegment(unsealedOf(c.payload))
		if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want ErrTruncated saying %q", c.name, err, c.err)
		}
		if len(seg.Recs) != c.kept || seg.Recs[0].Line != "SEND a" {
			t.Errorf("%s: salvaged %d records, want the %d before it", c.name, len(seg.Recs), c.kept)
		}
	}
}

// withTail is a copy of a sealed segment whose tail is edit's, its CRC
// made to verify again.
func withTail(data []byte, edit func(*tail)) []byte {
	tl, ok := parseTail(data)
	if !ok {
		panic("not a sealed segment")
	}
	edit(&tl)
	return appendTail(bytes.Clone(data[:len(data)-TailSize]), tl)
}

// oldLayout is a segment the store wrote while a segment was a table of
// blocks (header payload version 1): sealed, 19 records in 4 blocks.
func oldLayout(tb testing.TB) []byte {
	data, err := os.ReadFile("testdata/blocks.seg")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzParseSegment holds the recovery a store runs to its promise on
// arbitrary bytes. Placed in a store as its one segment file, the bytes
// never panic Open. A file Load refuses as of another format (ErrFormat)
// fails Open and OpenReader with ErrFormat and is left as it was. Of the
// rest, a file Load finds sealed and whole is adopted as it is, and
// anything else is recovered: store.recovered is 1 for it and 0
// otherwise. And a full OpenReader scan of the store returns, byte for
// byte, the (Meta, line) prefix Load salvaged from the file — typed or
// text.
func FuzzParseSegment(f *testing.F) {
	sealed := fuzzSeedSegment()
	f.Add([]byte{})
	f.Add(sealed)
	// Corrupt tail: the tail CRC no longer matches, demoting the segment
	// to an unsealed scan.
	corruptTail := append([]byte(nil), sealed...)
	corruptTail[len(corruptTail)-TailSize+9] ^= 0xff
	f.Add(corruptTail)
	// Truncated final segment: a writer died mid-append.
	f.Add(encodeUnsealed(fuzzSeedRecs(), true))
	// A stream byte flipped under a verifying tail: the stream CRC must
	// surface ErrCorrupt before any record is emitted.
	flipped := append([]byte(nil), sealed...)
	flipped[headerSize+8] ^= 0xff
	f.Add(flipped)
	// Garbage.
	f.Add([]byte("not a segment at all, just text pretending"))
	// Text-only seeds.
	v2 := fuzzSeedV2()
	f.Add(v2)
	// Torn inside the stream's first bytes: the tail is gone, so the
	// parser salvages the decodable prefix.
	f.Add(v2[:headerSize+3])
	// Unsealed: header plus the whole stream, no tail at all.
	f.Add(v2[:len(v2)-TailSize])
	// Tails that verify over lengths that do not: a data length past the
	// file, a payload past maxStreamRaw (each demoting the segment to
	// stream salvage), and a payload one byte short of the stream's
	// (ErrCorrupt).
	f.Add(withTail(v2, func(tl *tail) { tl.DataLen += 1 << 20 }))
	f.Add(withTail(v2, func(tl *tail) { tl.RawLen = maxStreamRaw + 1 }))
	f.Add(withTail(v2, func(tl *tail) { tl.RawLen-- }))
	// Typed records: sealed, unsealed, cut inside a typed record, and with
	// a byte of the payload changed where no tail checks it.
	v3 := fuzzSeedV3()
	f.Add(v3)
	f.Add(v3[:len(v3)-TailSize])
	f.Add(v3[:headerSize+40])
	typedFlip := append([]byte(nil), v3[:len(v3)-TailSize]...)
	typedFlip[headerSize+12] ^= 0x04
	f.Add(typedFlip)
	// Files of layouts no store reads any more: the block table (payload
	// version 1), sealed and torn, and payload version 0.
	old := oldLayout(f)
	f.Add(old)
	f.Add(old[:len(old)/2])
	f.Add(withPayloadVersion(v2, 0))
	// Front-coding lengths whose uint64 sum wraps past the bounds check,
	// and the lengths of craftedPayloads.
	f.Add(fuzzSeedOverflow())
	for _, c := range craftedPayloads() {
		f.Add(unsealedOf(c.payload))
	}
	// And v1, sealed and never sealed; a payload version from the future;
	// a write torn inside the header.
	f.Add(v1File(fuzzSeedRecs(), true))
	f.Add(v1File(fuzzSeedRecs(), false))
	f.Add(withPayloadVersion(sealed, 7))
	f.Add([]byte(segHeader[:5]))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, loadErr := ParseSegment(data)
		be := NewMemBackend()
		name := segName(0, 1, 1, 0)
		if err := be.Create(name, data); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st, err := Open(be, Config{Shards: 1, Obs: reg})
		if errors.Is(loadErr, ErrFormat) {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Open over a file Load refuses (%v): %v", loadErr, err)
			}
			if _, err := OpenReader(be); !errors.Is(err, ErrFormat) {
				t.Fatalf("OpenReader over a file Load refuses (%v): %v", loadErr, err)
			}
			if got, err := be.Read(name); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Open changed a file it refused: %d bytes of %d, %v", len(got), len(data), err)
			}
			return
		}
		if loadErr != nil && !errors.Is(loadErr, ErrCorrupt) && !errors.Is(loadErr, ErrTruncated) {
			t.Fatalf("unexpected error class: %v", loadErr)
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		whole := loadErr == nil && want.Sealed
		if got := reg.Counter("store.recovered").Load(); got != map[bool]int64{true: 0, false: 1}[whole] {
			t.Fatalf("store.recovered = %d over a file Load finds sealed=%v, err %v", got, want.Sealed, loadErr)
		}
		if segs := st.Segments(); len(segs) != 1 || !segs[0].Sealed || int(segs[0].Index.Count) != len(want.Recs) {
			t.Fatalf("segments %+v after Open, want one sealed of %d records", segs, len(want.Recs))
		}
		if got := allRecs(t, be); !slices.Equal(got, want.Recs) {
			t.Fatalf("the store reads back %d records, the file held a prefix of %d, or they differ", len(got), len(want.Recs))
		}
	})
}

// FuzzFooterTail round-trips the fixed tail: whatever parseTail accepts
// appendTail writes back byte for byte, and what it accepts places the
// tail at the end of the file behind a header, over a payload a decoder
// may allocate. With fix set, the last four bytes are made the CRC of the
// tail's others, so that the fuzzer reaches past the CRC check.
func FuzzFooterTail(f *testing.F) {
	v2 := fuzzSeedV2()
	f.Add(v2, false)
	f.Add(fuzzSeedV3(), false)
	f.Add(withTail(v2, func(tl *tail) { tl.DataLen += 1 << 20 }), false)
	f.Add(withTail(v2, func(tl *tail) { tl.RawLen = maxStreamRaw + 1 }), false)
	f.Add(oldLayout(f), true)
	f.Add(append([]byte(segHeader), make([]byte, TailSize)...), true)
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix && len(data) >= TailSize {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[len(data)-TailSize:len(data)-4]))
		}
		tl, ok := parseTail(data)
		if !ok {
			return
		}
		if string(data[:headerSize]) != segHeader || tl.DataLen != len(data)-TailSize || tl.RawLen < 0 || tl.RawLen > maxStreamRaw {
			t.Fatalf("tail %+v accepted over a file of %d bytes", tl, len(data))
		}
		if again := appendTail(bytes.Clone(data[:tl.DataLen]), tl); !bytes.Equal(again, data) {
			t.Fatalf("tail %+v appended again is not the bytes it was parsed from", tl)
		}
	})
}
