package daemon

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := (&CreateReq{Filename: "/bin/x", Params: []string{"a"}, UID: 1}).Wire().Encode()
	buf := AppendFrame(nil, FrameReq, 42, payload)
	buf = AppendFrame(buf, FramePing, 7, nil)

	f, n, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameReq || f.ID != 42 || string(f.Payload) != string(payload) {
		t.Fatalf("frame = %+v", f)
	}
	f2, n2, err := ParseFrame(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if f2.Kind != FramePing || f2.ID != 7 || len(f2.Payload) != 0 {
		t.Fatalf("second frame = %+v", f2)
	}
	if n+n2 != len(buf) {
		t.Fatalf("consumed %d+%d of %d", n, n2, len(buf))
	}
}

// TestWireFrameIsFrameOfEncode: the single-copy encoder writes the
// bytes AppendFrame writes around Encode, into a buffer of exactly
// their length.
func TestWireFrameIsFrameOfEncode(t *testing.T) {
	for _, w := range []*WireMsg{
		{Type: TStatsReq},
		(&CreateReq{Filename: "/bin/x", Params: []string{"a", ""}, UID: 1, Token: "t"}).Wire(),
		(&Reply{Type: TGetFileRep, PID: 1 << 20, Status: "ok", Data: string(make([]byte, 70000)), Aux: "7"}).Wire(),
	} {
		got, want := wireFrame(FrameRep, 1<<40+3, w), AppendFrame(nil, FrameRep, 1<<40+3, w.Encode())
		if string(got) != string(want) {
			t.Fatalf("%v: wireFrame differs from AppendFrame(Encode)", w.Type)
		}
		if cap(got) != len(got) {
			t.Fatalf("%v: %d-byte frame in a %d-byte buffer", w.Type, len(got), cap(got))
		}
	}
}

func TestParseFrameShortAndCorrupt(t *testing.T) {
	whole := AppendFrame(nil, FrameRep, 9, []byte("payload"))
	for cut := 0; cut < len(whole); cut++ {
		if _, _, err := ParseFrame(whole[:cut]); !errors.Is(err, ErrWireShort) {
			t.Fatalf("truncated at %d: %v, want ErrWireShort", cut, err)
		}
	}

	// A size below the header or above the payload bound is corrupt,
	// not short: waiting for more bytes would wait forever.
	small := binary.LittleEndian.AppendUint32(nil, frameHeader-1)
	small = append(small, make([]byte, 12)...)
	if _, _, err := ParseFrame(small); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("undersize frame: %v, want ErrWireCorrupt", err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, frameHeader+maxFramePayload+1)
	if _, _, err := ParseFrame(huge); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("oversize frame: %v, want ErrWireCorrupt", err)
	}

	// The magic preamble itself is corrupt as a legacy message *and* as
	// a frame — it is consumed before framing starts.
	if _, _, err := ParseFrame([]byte(frameMagic + "....????????....")); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("magic as frame: %v, want ErrWireCorrupt", err)
	}
	if _, _, err := DecodeWire([]byte(frameMagic + "....????????....")); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("magic as legacy message: %v, want ErrWireCorrupt", err)
	}
}

func TestHello(t *testing.T) {
	buf := appendHello(nil)
	if !isFrameMagic(buf) {
		t.Fatal("hello does not start with the magic")
	}
	f, n, err := ParseFrame(buf[4:])
	if err != nil || n != len(buf)-4 {
		t.Fatalf("hello frame: %v, consumed %d of %d", err, n, len(buf)-4)
	}
	if f.Kind != FrameHello || !helloOK(f.Payload) {
		t.Fatalf("hello frame = %+v", f)
	}
	// Trailing hello payload from a future version is ignored.
	if !helloOK([]byte(sessionVersion + "+future-extension")) {
		t.Fatal("extended hello rejected")
	}
	if helloOK(nil) || helloOK([]byte("9")) {
		t.Fatal("bad hello accepted")
	}
}

// FuzzParseFrame checks the session frame parser on arbitrary bytes,
// mirroring FuzzDecodeWire: no panics, exact consumption, re-encode
// match, and short-vs-corrupt discipline (a short result must become a
// parse once enough bytes arrive; corrupt must not depend on length).
func FuzzParseFrame(f *testing.F) {
	// Well-formed request and reply frames.
	f.Add(AppendFrame(nil, FrameReq, 1, (&CreateReq{Filename: "/bin/x", UID: 1}).Wire().Encode()))
	f.Add(AppendFrame(nil, FrameRep, 1, (&Reply{Type: TCreateRep, PID: 7}).Wire().Encode()))
	// Truncated frame: header promises more bytes than follow.
	f.Add(AppendFrame(nil, FrameRep, 2, []byte("payload"))[:10])
	// Length overflow: size field far beyond the payload bound.
	f.Add(binary.LittleEndian.AppendUint32(nil, ^uint32(0)))
	// Unknown frame kind and unknown msgType in the payload — both must
	// parse (forward compatibility; the dispatch layer skips them).
	f.Add(AppendFrame(nil, 99, 3, []byte("future")))
	f.Add(AppendFrame(nil, FrameReq, 4, (&WireMsg{Type: MsgType(250), Fields: []string{"x"}}).Encode()))
	// Duplicate and unknown request ids back to back (dispatch-layer
	// concerns; the parser must hand both over unchanged).
	dup := AppendFrame(nil, FramePong, 5, nil)
	f.Add(append(append([]byte(nil), dup...), dup...))
	f.Add(AppendFrame(nil, FrameRep, ^uint64(0), nil))
	f.Add([]byte(frameMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseFrame(data)
		if err != nil {
			if !errors.Is(err, ErrWireShort) && !errors.Is(err, ErrWireCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n < frameHeader || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := AppendFrame(nil, fr.Kind, fr.ID, fr.Payload)
		if len(re) != n {
			t.Fatalf("re-encode %d != consumed %d", len(re), n)
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("byte %d changed", i)
			}
		}
		// The payload is a copy: scribbling on the input must not
		// change the parsed frame.
		if len(fr.Payload) > 0 {
			old := fr.Payload[0]
			data[frameHeader] ^= 0xFF
			if fr.Payload[0] != old {
				t.Fatal("payload aliases the input buffer")
			}
		}
	})
}
