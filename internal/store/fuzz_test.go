package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

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
	out, err := newCompWriter(1).encodeSealed(fuzzSeedRecs())
	if err != nil {
		panic(err)
	}
	return out
}

// fuzzSeedV3 builds a small sealed segment of several blocks whose
// records are typed, but for the few that are not standard.
func fuzzSeedV3() []byte {
	var recs []Rec
	for _, r := range shapeRecs(rand.New(rand.NewSource(3)), 60) {
		recs = append(recs, r.Rec)
	}
	out, err := newCompWriter(512).encodeSealed(recs)
	if err != nil {
		panic(err)
	}
	return out
}

// fuzzSeedV2 builds a small sealed block-compressed segment with
// several blocks and a shared dictionary worth corrupting: every line's
// header differs from its Meta, so all of them take the text shape.
func fuzzSeedV2() []byte {
	var recs []Rec
	for i := 0; i < 40; i++ {
		m := Meta{Machine: uint16(i % 3), Time: uint32(i * 100), Type: uint32(i%4 + 1), PID: uint32(50 + i%5)}
		recs = append(recs, Rec{Meta: m, Line: "SEND machine=1 cpuTime=1 procTime=0 pid=1 msgLength=240"})
	}
	out, err := newCompWriter(256).encodeSealed(recs)
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
	var payload []byte
	payload = binary.AppendUvarint(payload, 1)               // machine
	payload = binary.AppendUvarint(payload, obs.Zigzag(100)) // time delta
	payload = binary.AppendUvarint(payload, 1)               // type
	payload = binary.AppendUvarint(payload, 1)               // pid
	payload = append(payload, 0)                             // shape: text
	payload = binary.AppendUvarint(payload, math.MaxUint64)  // prefix length
	payload = binary.AppendUvarint(payload, 1)               // suffix length
	payload = append(payload, opEnd)
	var buf bytes.Buffer
	buf.WriteString(segHeader)
	fw, _ := flate.NewWriter(&buf, flate.NoCompression)
	fw.Write(payload)
	fw.Close()
	return buf.Bytes()
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

// fuzzSeedBlockExtentOverflow builds a sealed segment whose block
// table declares Off and CompLen near 2^62: the int sum wraps
// negative, which an unchecked Off+CompLen extent test would admit
// before the region slicing panicked. The footer CRCs verify — they
// are computed over the crafted table — so only the extent check
// stands between the table and the slice.
func fuzzSeedBlockExtentOverflow() []byte {
	data := []byte(segHeader)
	data = append(data, "not a real block"...)
	blocks := []blockMeta{{off: 1 << 62, compLen: 1 << 62, rawLen: 64, idx: Index{Count: 1}}}
	return appendFooterV2(data, Index{Count: 1}, uint32(len(data)), 64, nil, blocks)
}

// TestBlockTableExtentOverflow pins the crafted block table: the
// footer must be rejected (degrading the file to unsealed salvage),
// never accepted as sealed and sliced. Its tail verifies, so the extent
// check is what rejects it.
func TestBlockTableExtentOverflow(t *testing.T) {
	data := fuzzSeedBlockExtentOverflow()
	if _, ok := parseFooterV2(data); !ok {
		t.Fatal("the crafted footer tail does not verify")
	}
	seg, err := ParseSegment(data)
	if seg.Sealed {
		t.Fatal("crafted footer with wrapping block extent accepted as sealed")
	}
	if len(seg.Recs) != 0 {
		t.Fatalf("salvaged %d records from a malformed segment", len(seg.Recs))
	}
	if err != nil && !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want nil or ErrTruncated", err)
	}
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
	// Corrupt footer: the tail CRC no longer matches, demoting the segment
	// to an unsealed scan.
	corruptFooter := append([]byte(nil), sealed...)
	corruptFooter[len(corruptFooter)-FooterV2Size+9] ^= 0xff
	f.Add(corruptFooter)
	// Truncated final segment: a writer died mid-append.
	f.Add(encodeUnsealed(fuzzSeedRecs(), 1, true))
	// Payload checksum mismatch inside a sealed segment.
	flipped := append([]byte(nil), sealed...)
	flipped[headerV2Size+8] ^= 0xff
	f.Add(flipped)
	// Garbage.
	f.Add([]byte("not a segment at all, just text pretending"))
	// Text-only seeds.
	v2 := fuzzSeedV2()
	f.Add(v2)
	// Truncated inside the first block's DEFLATE stream — the footer is
	// gone, so the parser must fall back to the unsealed stream walk and
	// salvage the decodable prefix.
	f.Add(v2[:headerV2Size+3])
	// Unsealed: header plus data region only, no footer at all.
	if fv2, ok := parseFooterV2(v2); ok {
		f.Add(v2[:fv2.DataLen])
		// Corrupt dictionary: flip a byte in the footer body (dictionary +
		// block table). The body CRC no longer matches, demoting the
		// segment to the unsealed salvage walk over its blocks.
		corruptDict := append([]byte(nil), v2...)
		corruptDict[fv2.DataLen+1] ^= 0xff
		f.Add(corruptDict)
	}
	// A tail that verifies — body CRC included — over a footer body that
	// does not decode: unsealed salvage over intact block streams.
	f.Add(undecodableBody(f, v2))
	// CRC flip inside a compressed block of a sealed segment: the footer
	// still verifies, the damaged block must surface ErrCorrupt after the
	// blocks before it were emitted.
	blockFlip := append([]byte(nil), v2...)
	blockFlip[headerV2Size+5] ^= 0xff
	f.Add(blockFlip)
	// Typed records: sealed, unsealed, cut inside a typed record, and with
	// a byte of the first block's payload changed under its CRC.
	v3 := fuzzSeedV3()
	f.Add(v3)
	if fv3, ok := parseFooterV2(v3); ok {
		f.Add(v3[:fv3.DataLen])
		f.Add(v3[:headerV2Size+40])
		typedFlip := append([]byte(nil), v3[:fv3.DataLen]...)
		typedFlip[headerV2Size+12] ^= 0x04
		f.Add(typedFlip)
	}
	// Files of formats no store reads any more: payload version 0, sealed
	// and torn.
	f.Add(withPayloadVersion(v2, 0))
	f.Add(withPayloadVersion(v2, 0)[:len(v2)/2])
	// Front-coding lengths whose uint64 sum wraps past the bounds check.
	f.Add(fuzzSeedOverflow())
	// Block-table extents whose int sum wraps past the region check.
	f.Add(fuzzSeedBlockExtentOverflow())
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
		st, err := Open(be, Config{Shards: 1, BlockTarget: 512, Obs: reg})
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

// FuzzFooterBody drives the footer-body decoder directly: arbitrary body
// bytes behind a data region of arbitrary size, under an arbitrary block
// count. It must not panic, and a table it accepts holds no more than
// maxDictEntries tokens of at most maxDictToken bytes and exactly the
// blocks counted, each inside the region with a raw length a decoder
// may allocate — and, encoded again (appendFooterV2), decodes to itself.
func FuzzFooterBody(f *testing.F) {
	for _, seg := range [][]byte{fuzzSeedV2(), fuzzSeedV3(), fuzzSeedBlockExtentOverflow()} {
		fv, ok := parseFooterV2(seg)
		if !ok {
			f.Fatal("seed has no footer tail")
		}
		f.Add(seg[fv.DataLen:fv.DataLen+fv.bodyLen], uint32(fv.blockCount), uint32(fv.DataLen-headerV2Size))
	}
	// Dictionary lengths of 2^63: a token count, then a token's length.
	f.Add(binary.AppendUvarint(nil, 1<<63), uint32(0), uint32(16))
	f.Add(binary.AppendUvarint([]byte{1}, 1<<63), uint32(0), uint32(16))
	f.Fuzz(func(t *testing.T, body []byte, blockCount, region uint32) {
		region %= 1 << 16
		data := append([]byte(segHeader), make([]byte, region)...)
		fv := footerV2{DataLen: len(data), bodyLen: len(body), blockCount: int(blockCount)}
		if !fv.decodeBody(append(data, body...)) {
			return
		}
		if len(fv.Dict) > maxDictEntries || len(fv.Blocks) != int(blockCount) {
			t.Fatalf("%d tokens, %d blocks of %d counted", len(fv.Dict), len(fv.Blocks), blockCount)
		}
		for _, tok := range fv.Dict {
			if len(tok) > maxDictToken {
				t.Fatalf("token of %d bytes", len(tok))
			}
		}
		var table []blockMeta
		for _, b := range fv.Blocks {
			if b.Off < 0 || b.CompLen < 0 || b.Off+b.CompLen > int(region) || b.RawLen <= 0 || b.RawLen > maxBlockRaw {
				t.Fatalf("block %+v accepted over a region of %d bytes", b, region)
			}
			table = append(table, blockMeta{b.Off, b.CompLen, b.RawLen, b.CRC, b.Index})
		}
		enc := appendFooterV2(data, Index{}, uint32(len(data)), 0, fv.Dict, table)
		again, ok := parseFooterV2(enc)
		if !ok || !again.decodeBody(enc) || !reflect.DeepEqual(again.Dict, fv.Dict) || !reflect.DeepEqual(again.Blocks, fv.Blocks) {
			t.Fatalf("the table, encoded again, decodes to %+v %+v (ok=%v), not %+v %+v", again.Dict, again.Blocks, ok, fv.Dict, fv.Blocks)
		}
	})
}
