package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// fuzzSeedRecs are the records of the smallest seeds.
func fuzzSeedRecs() []Rec {
	var recs []Rec
	for i := 0; i < 3; i++ {
		m := Meta{Machine: uint16(i), Time: uint32(i * 100), Type: uint32(i + 1), PID: uint32(50 + i)}
		recs = append(recs, Rec{m, recLine(m, 16384, 3, 240)})
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

// fuzzSeedV3 builds a sealed segment of every kind of record the shape
// tests make.
func fuzzSeedV3() []byte {
	out, err := newCompWriter().encodeRuns(shapeBatch(shapeRecs(rand.New(rand.NewSource(3)), 60)))
	if err != nil {
		panic(err)
	}
	return out
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

// sendRecord is a typed SEND record of pid 1: flags typedShape and
// typedPresence, pid present and changed, its delta.
func sendRecord() []byte { return append(recordMeta(nil, meter.EvSend), 3, 1, 1, 2) }

// crafted is a segment payload, named, what its refusal says, and how
// many valid records stand before the refused one.
type crafted struct {
	name, err string
	payload   []byte
	kept      int
}

// craftedPayloads are segment payloads holding, behind one valid
// record, a length an offset-plus-length check could admit by wrapping:
// a typed number whose varint runs off the payload.
func craftedPayloads() []crafted {
	// Flags typedShape|typedPresence, SEND's pid present and changed, and
	// the first byte of its delta.
	cut := append(recordMeta(nil, meter.EvSend), 3, 1, 1, 0x80)
	return []crafted{
		{"typed varint off the payload", "bad varint", slices.Concat(sendRecord(), cut), 1},
	}
}

// TestCraftedLengthsRefused: each of craftedPayloads is refused where
// it stands, as a torn tail — no panic, the records before it salvaged
// and nothing after it.
func TestCraftedLengthsRefused(t *testing.T) {
	for _, c := range craftedPayloads() {
		seg, err := ParseSegment(unsealedOf(c.payload))
		if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want ErrTruncated saying %q", c.name, err, c.err)
		}
		if len(seg.Recs) != c.kept || seg.Recs[0].Line != "SEND machine=1 cpuTime=100 procTime=0 pid=1" {
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

// textLayout is a segment the store wrote while a record could be kept
// as front-coded text (header payload version 2): sealed, 10 records, 3
// of them text.
func textLayout(tb testing.TB) []byte {
	data, err := os.ReadFile("testdata/text.seg")
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
// byte, the (Meta, line) prefix Load salvaged from the file.
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
	// Torn inside the stream's first bytes: the tail is gone, so the
	// parser salvages the decodable prefix.
	v3 := fuzzSeedV3()
	f.Add(v3[:headerSize+3])
	// Tails that verify over lengths that do not: a data length past the
	// file, a payload past maxStreamRaw (each demoting the segment to
	// stream salvage), and a payload one byte short of the stream's
	// (ErrCorrupt).
	f.Add(withTail(v3, func(tl *tail) { tl.DataLen += 1 << 20 }))
	f.Add(withTail(v3, func(tl *tail) { tl.RawLen = maxStreamRaw + 1 }))
	f.Add(withTail(v3, func(tl *tail) { tl.RawLen-- }))
	// Sealed, unsealed, cut inside a record, and with a byte of the
	// payload changed where no tail checks it.
	f.Add(v3)
	f.Add(v3[:len(v3)-TailSize])
	f.Add(v3[:headerSize+40])
	typedFlip := append([]byte(nil), v3[:len(v3)-TailSize]...)
	typedFlip[headerSize+12] ^= 0x04
	f.Add(typedFlip)
	// Files of layouts no store reads any more: the block table (payload
	// version 1), sealed and torn, records as text (version 2), and
	// payload version 0.
	old := oldLayout(f)
	f.Add(old)
	f.Add(old[:len(old)/2])
	text := textLayout(f)
	f.Add(text)
	f.Add(text[:len(text)-TailSize])
	f.Add(text[:len(text)/2])
	f.Add(withPayloadVersion(sealed, 2))
	// This version's header over a record of the text shape.
	f.Add(unsealedOf(append(sendRecord(), append(recordMeta(nil, meter.EvSend), 0, 0, 0, 0)...)))
	f.Add(withPayloadVersion(sealed, 0))
	// The lengths of craftedPayloads.
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
	v3 := fuzzSeedV3()
	f.Add(fuzzSeedSegment(), false)
	f.Add(v3, false)
	f.Add(withTail(v3, func(tl *tail) { tl.DataLen += 1 << 20 }), false)
	f.Add(withTail(v3, func(tl *tail) { tl.RawLen = maxStreamRaw + 1 }), false)
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
