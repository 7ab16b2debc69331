package daemon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/obs"
)

// byteStream is a connection's byte stream as a peer's sends deliver
// it: a receive fills at most the buffer it is given, in the shape of
// read(2), and never crosses a cut; past the last byte it fails with
// io.EOF. A receive that starts at a stall offset fails once with
// kernel.ErrTimedOut first.
type byteStream struct {
	data   []byte
	cuts   []int // ascending offsets
	stalls []int
	off    int
	calls  []int // the offset at each receive
}

func (s *byteStream) recv(buf []byte) (int, error) {
	s.calls = append(s.calls, s.off)
	if len(s.stalls) > 0 && s.stalls[0] == s.off {
		s.stalls = s.stalls[1:]
		return 0, kernel.ErrTimedOut
	}
	if s.off == len(s.data) {
		return 0, io.EOF
	}
	end := min(len(s.data), s.off+len(buf))
	for _, c := range s.cuts {
		if c > s.off {
			end = min(end, c)
			break
		}
	}
	n := copy(buf, s.data[s.off:end])
	s.off = end
	return n, nil
}

// readFrames takes frames off s until the reader fails, returning the
// frames, each payload copied out of the reader before the next frame
// is read, and the failure.
func readFrames(s *byteStream) ([]Frame, error) {
	var fr frameReader
	var frames []Frame
	for {
		f, err := fr.next(s.recv)
		if err != nil {
			return frames, err
		}
		f.Payload = bytes.Clone(f.Payload)
		frames = append(frames, f)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := (&CreateReq{Filename: "/bin/x", Params: []string{"a"}, UID: 1}).Wire().Encode()
	buf := AppendFrame(nil, FrameReq, 42, payload)
	buf = AppendFrame(buf, FramePing, 7, nil)

	s := &byteStream{data: buf}
	frames, err := readFrames(s)
	if !errors.Is(err, io.EOF) || len(frames) != 2 {
		t.Fatalf("%d frames, then %v", len(frames), err)
	}
	if f := frames[0]; f.Kind != FrameReq || f.ID != 42 || string(f.Payload) != string(payload) {
		t.Fatalf("frame = %+v", f)
	}
	if f := frames[1]; f.Kind != FramePing || f.ID != 7 || len(f.Payload) != 0 {
		t.Fatalf("second frame = %+v", f)
	}
	if s.off != len(buf) {
		t.Fatalf("consumed %d of %d", s.off, len(buf))
	}
}

// TestWireFrameIsFrameOfEncode: a message written straight behind its
// frame header is the frame AppendFrame writes around its encoding,
// wherever in the buffer it begins; and a reply whose Data appendData
// writes in place is the frame of the same reply with Data a string.
func TestWireFrameIsFrameOfEncode(t *testing.T) {
	for _, m := range []Message{
		&WireMsg{Type: TStatsReq},
		&CreateReq{Filename: "/bin/x", Params: []string{"a", ""}, UID: 1, Token: "t"},
		&Reply{Type: TGetFileRep, PID: 1 << 20, Status: "ok", Data: string(make([]byte, 70000)), Aux: "7"},
	} {
		got, want := appendMsgFrame([]byte("x"), FrameRep, 1<<40+3, m), AppendFrame([]byte("x"), FrameRep, 1<<40+3, m.appendWire(nil))
		if string(got) != string(want) {
			t.Fatalf("%v: the frame written in place differs from AppendFrame's", msgType(m))
		}
	}
	for _, data := range []string{"", "segments=1 scanned=1 pruned=0 records=0 matched=0\n", string(bytes.Repeat([]byte("line\n"), 30000))} {
		plain := Reply{Type: TQueryRep, PID: -12, Status: "ok", Data: data, Aux: "aux"}
		inPlace := Reply{Type: TQueryRep, PID: -12, Status: "ok", Aux: "aux", dataSize: len(data) / 2,
			appendData: func(b []byte) []byte { return append(b, data...) }}
		if replyWire(inPlace) != replyWire(plain) {
			t.Fatalf("%d bytes of Data written in place: the reply frame differs", len(data))
		}
	}
}

// TestParseFrameShortAndCorrupt: a frame cut short is not corrupt — the
// reader hands on the receive's failure and finishes the frame when the
// bytes come — while a size word no frame has is refused as soon as it
// is in, since waiting for more bytes would wait forever.
func TestParseFrameShortAndCorrupt(t *testing.T) {
	whole := AppendFrame(nil, FrameRep, 9, []byte("payload"))
	for cut := 0; cut < len(whole); cut++ {
		if frames, err := readFrames(&byteStream{data: whole[:cut]}); len(frames) != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("truncated at %d: %d frames, %v, want io.EOF", cut, len(frames), err)
		}
		// The same cut as a stall: the reader keeps what it has and the
		// next call completes the frame.
		s := &byteStream{data: whole, cuts: []int{cut}, stalls: []int{cut}}
		var fr frameReader
		if _, err := fr.next(s.recv); !errors.Is(err, kernel.ErrTimedOut) {
			t.Fatalf("stalled at %d: %v, want the stall", cut, err)
		}
		f, err := fr.next(s.recv)
		if err != nil || f.ID != 9 || string(f.Payload) != "payload" {
			t.Fatalf("resumed after %d: %+v, %v", cut, f, err)
		}
	}

	small := binary.LittleEndian.AppendUint32(nil, frameHeader-1)
	small = append(small, make([]byte, 12)...)
	if _, err := readFrames(&byteStream{data: small}); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("undersize frame: %v, want ErrWireCorrupt", err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, frameHeader+maxFramePayload+1)
	if _, err := readFrames(&byteStream{data: huge}); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("oversize frame: %v, want ErrWireCorrupt", err)
	}

	// The magic is corrupt as a frame and as a message: it is consumed
	// before framing starts, and only there.
	if _, err := readFrames(&byteStream{data: []byte(frameMagic + "....????????....")}); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("magic as frame: %v, want ErrWireCorrupt", err)
	}
	if _, err := DecodeWire([]byte(frameMagic + "....????????....")); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("magic as message: %v, want ErrWireCorrupt", err)
	}
	// And a connection that does not begin with it is refused.
	var fr frameReader
	if err := fr.open((&byteStream{data: (&WireMsg{Type: TListReq}).Encode()}).recv); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("unframed message opened: %v, want ErrWireCorrupt", err)
	}
}

func TestHello(t *testing.T) {
	buf := appendHello(nil)
	// The magic may come in pieces; the frame behind it is read whole.
	s := &byteStream{data: buf, cuts: []int{1, 3}}
	var fr frameReader
	if err := fr.open(s.recv); err != nil {
		t.Fatalf("hello magic: %v", err)
	}
	f, err := fr.next(s.recv)
	if err != nil || s.off != len(buf) {
		t.Fatalf("hello frame: %v, consumed %d of %d", err, s.off, len(buf))
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

// FuzzParseFrame checks frameReader.next on arbitrary bytes delivered
// in arbitrary pieces: each byte of cuts is the length, less one, of
// the next piece. The frames that come out, and whether the stream
// ends corrupt, do not depend on the pieces; a size word no frame has
// is refused without asking for a byte past it; every frame re-encodes
// to the bytes it came from; nothing panics.
func FuzzParseFrame(f *testing.F) {
	create := (&CreateReq{Filename: "/bin/x", UID: 1}).Wire().Encode()
	// Well-formed request and reply frames.
	f.Add(AppendFrame(nil, FrameReq, 1, create), []byte{3})
	f.Add(AppendFrame(nil, FrameRep, 1, (&Reply{Type: TCreateRep, PID: 7}).Wire().Encode()), []byte{15, 0, 200})
	// Truncated frame: header promises more bytes than follow.
	f.Add(AppendFrame(nil, FrameRep, 2, []byte("payload"))[:10], []byte{1})
	// Length overflow: size field far beyond the payload bound.
	f.Add(binary.LittleEndian.AppendUint32(nil, ^uint32(0)), []byte{0, 0, 0})
	// Unknown frame kind and unknown msgType in the payload — both must
	// come out (forward compatibility; the dispatch layer skips them).
	f.Add(AppendFrame(nil, 99, 3, []byte("future")), []byte{})
	f.Add(AppendFrame(nil, FrameReq, 4, (&WireMsg{Type: MsgType(250), Fields: []string{"x"}}).Encode()), []byte{17})
	// Duplicate and unknown request ids back to back (dispatch-layer
	// concerns; the reader must hand both over unchanged), then a bad
	// size word behind them.
	dup := AppendFrame(nil, FramePong, 5, nil)
	f.Add(append(append(append([]byte(nil), dup...), dup...), 1, 0, 0, 0), []byte{19, 2})
	f.Add(AppendFrame(nil, FrameRep, ^uint64(0), nil), []byte{7, 7})
	f.Add([]byte(frameMagic), []byte{})
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, data, pieces []byte) {
		want, wantErr := readFrames(&byteStream{data: data})
		s := &byteStream{data: data}
		for off, i := 0, 0; i < len(pieces); i++ {
			off += int(pieces[i]) + 1
			s.cuts = append(s.cuts, off)
		}
		got, err := readFrames(s)
		if len(got) != len(want) || errors.Is(err, ErrWireCorrupt) != errors.Is(wantErr, ErrWireCorrupt) {
			t.Fatalf("split %v: %d frames then %v, whole: %d frames then %v", s.cuts, len(got), err, len(want), wantErr)
		}
		var re []byte
		for i, fr := range got {
			if fr.Kind != want[i].Kind || fr.ID != want[i].ID || !bytes.Equal(fr.Payload, want[i].Payload) {
				t.Fatalf("split %v: frame %d differs", s.cuts, i)
			}
			re = AppendFrame(re, fr.Kind, fr.ID, fr.Payload)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatal("frames do not re-encode to the bytes they came from")
		}
		switch {
		case errors.Is(err, ErrWireCorrupt):
			if last := s.calls[len(s.calls)-1]; last >= len(re)+4 || s.off < len(re)+4 {
				t.Fatalf("bad size word at %d refused after a receive at %d, %d bytes in", len(re), last, s.off)
			}
		case !errors.Is(err, io.EOF) || s.off != len(data):
			t.Fatalf("stream ended with %v after %d of %d bytes", err, s.off, len(data))
		case len(data) >= len(re)+4:
			if size := binary.LittleEndian.Uint32(data[len(re):]); size < frameHeader || size > frameHeader+maxFramePayload {
				t.Fatalf("bad size word %d at %d not refused", size, len(re))
			}
		}
	})
}

// TestLargeFrameKept: a frame larger than the reader's buffer comes out
// whole however its bytes are cut and stalled, received alone into an
// array of the free list; the next call of next gives the array back
// and returns the reader to its own buffer for the frames behind it.
func TestLargeFrameKept(t *testing.T) {
	large := bytes.Repeat([]byte("0123456789"), 3*frameBuf/10)
	data := AppendFrame(nil, FrameRep, 1, large)
	data = AppendFrame(data, FramePong, 2, nil)
	data = AppendFrame(data, FrameRep, 3, []byte("small"))
	for _, cut := range []int{1, 15, 16, 17, frameBuf - 1, frameBuf, frameBuf + 20, len(large), len(large) + 16, len(large) + 17} {
		emptyFrameFree()
		s := &byteStream{data: data, cuts: []int{cut, cut + 5}, stalls: []int{cut}}
		var fr frameReader
		var got []Frame
		var lent *byte
		for len(got) < 3 {
			f, err := fr.next(s.recv)
			if errors.Is(err, kernel.ErrTimedOut) {
				continue
			}
			if err != nil {
				t.Fatalf("cut at %d: %v after %d frames", cut, err, len(got))
			}
			switch len(got) {
			case 0:
				if fr.large == nil || len(fr.buf) != frameHeader+len(large) || cap(fr.buf) != len(fr.buf) {
					t.Fatalf("cut at %d: a %d-byte frame read into a %d-byte buffer of a %d-byte array", cut, len(large), len(fr.buf), cap(fr.large))
				}
				if !bytes.Equal(f.Payload, large) {
					t.Fatalf("cut at %d: the large frame carries %d bytes, not what was sent", cut, len(f.Payload))
				}
				lent = unsafe.SliceData(fr.large)
			case 1:
				if fr.large != nil || cap(fr.buf) != frameBuf {
					t.Fatalf("cut at %d: the reader kept the large frame's array", cut)
				}
				if held, _ := frameFree.Held(); !slices.ContainsFunc(held, func(b []byte) bool { return unsafe.SliceData(b) == lent }) {
					t.Fatalf("cut at %d: the large frame's array did not go back to the free list", cut)
				}
			}
			got = append(got, f)
		}
		if got[1].ID != 2 || string(got[2].Payload) != "small" {
			t.Fatalf("cut at %d: frames %d, %q", cut, got[1].ID, got[2].Payload)
		}
	}
}

// emptyFrameFree takes every array out of frameFree.
func emptyFrameFree() {
	for held, _ := frameFree.Held(); len(held) > 0; held, _ = frameFree.Held() {
		frameFree.Take(0, nil)
	}
}

// poisonFreed reports that freeFrameBuf overwrites what it is given
// back, as obs.PoisonBytes does in a test binary.
var poisonFreed = func() bool {
	b := make([]byte, 1)
	obs.PoisonBytes(b)
	return b[0] == 0xa5
}()

// TestFrameFreeKeptAcrossGCNoAlloc: a large frame's array given back
// survives two collections, and the next large frame's take is a hit
// that allocates nothing.
func TestFrameFreeKeptAcrossGCNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	reg := obs.NewRegistry()
	st := frameFree.Stats(reg)
	freeFrameBuf(takeFrameBuf(8<<10, st), st)
	runtime.GC()
	runtime.GC()
	hits := reg.Counter("mem.frames.hits")
	before := hits.Load()
	if n := testing.AllocsPerRun(10, func() { freeFrameBuf(takeFrameBuf(8<<10, st), st) }); n != 0 {
		t.Fatalf("a large frame's take and give back allocate %v times", n)
	}
	if hits := hits.Load() - before; hits != 11 {
		t.Fatalf("%d of 11 takes after the collections hit", hits)
	}
}

// TestFrameFreeBounded: the free list keeps at most frameFree.Count
// arrays and frameFree.Bytes in all — while many sessions take large
// replies from one daemon at once, 24 getfile replies of 768 KiB with
// 18 MiB in flight, every one arriving whole, and while more arrays are
// offered than it has room for, which go to the collector. A frame
// takes the smallest array that holds it, or a new one an eighth larger.
func TestFrameFreeBounded(t *testing.T) {
	emptyFrameFree()
	check := func() error {
		held, bytes := frameFree.Held()
		sum := 0
		for _, b := range held {
			sum += cap(b)
		}
		if len(held) > frameFree.Count || sum > frameFree.Bytes || sum != bytes {
			return fmt.Errorf("free list holds %d arrays, %d bytes (counted %d)", len(held), sum, bytes)
		}
		return nil
	}

	r := newRig(t)
	const path, size, sessions, rounds = "/usr/tmp/large.log", 768 << 10, 24, 3
	content := randomBytes(5, size)
	if err := r.red.FS().Create(path, testUID, fsys.PrivateMode, content); err != nil {
		t.Fatal(err)
	}
	// The test is of the free list, not of session timing: 24 sessions
	// dialing one daemon at once under the race detector on two cores
	// can miss fastSession's 250 ms hello, so they wait as long as a
	// slow host needs.
	slow := SessionConfig{HelloTimeout: 10 * time.Second, HeartbeatTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := DialSession(r.ctl, "red", slow)
			defer s.Close()
			for j := 0; j < rounds; j++ {
				if err := checkGetFile(s, path, 0, content); err != nil {
					errs <- err
					return
				}
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for n := 256 << 10; n < 4<<20; n += 64 << 10 {
		freeFrameBuf(make([]byte, 0, n), nil)
		if err := check(); err != nil {
			t.Fatalf("after an array of %d bytes: %v", n, err)
		}
	}
	emptyFrameFree()
	for _, n := range []int{8 << 10, 2 << 10, 4 << 10} {
		freeFrameBuf(make([]byte, 0, n), nil)
	}
	if b := takeFrameBuf(3<<10, nil); cap(b) != 4<<10 {
		t.Fatalf("a 3 KiB frame took an array of %d bytes, not the 4 KiB one", cap(b))
	}
	b := takeFrameBuf(16<<10, nil)
	if held, _ := frameFree.Held(); cap(b) != 18<<10 || len(held) != 2 {
		t.Fatalf("a 16 KiB frame that no free array holds took one of %d bytes, not a new one of 18 KiB, leaving %d", cap(b), len(held))
	}
}
