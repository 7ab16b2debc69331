package daemon

// The framing layer. Every connection to a daemon carries the Figure
// 3.6 messages of wire.go inside length-prefixed frames tagged with a
// request id, so one connection can carry many requests and replies
// can return in completion order:
//
//	size     uint32 LE   total frame length, including this word
//	kind     uint32 LE   frame kind (hello, request, reply, ping, pong)
//	request  uint64 LE   request id, matching replies to requests
//	payload  bytes       request/reply: one Figure 3.6 message; hello: version
//
// A connection to a daemon opens with a 4-byte magic, "DPMX", and a
// hello frame in each direction. The daemon closes a connection that
// begins with anything else without a reply, and a dialer whose hello
// is not answered with one has not reached a daemon. Exchange makes one
// request on such a connection and closes it (section 3.5.1); a Session
// keeps one open for many. The notification stream a daemon opens to a
// controller's socket carries each message as one request frame with id
// 0 and nothing before it: the socket is the controller's, and no reply
// comes back. frameReader is the one loop that takes frames off any of
// these streams.
//
// Unknown frame kinds are skipped by every reader (forward
// compatibility); a hello payload may grow trailing data that old
// peers ignore.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dpm/internal/obs"
)

// Frame kinds.
const (
	// FrameHello opens a session in each direction; the payload is the
	// speaker's protocol version.
	FrameHello uint32 = 1
	// FrameReq carries one request message; the reply returns under the
	// same request id.
	FrameReq uint32 = 2
	// FrameRep carries one reply message.
	FrameRep uint32 = 3
	// FramePing and FramePong are the heartbeat: a ping sent on an idle
	// session must come back as a pong with the same id before the
	// heartbeat deadline, or the peer is suspect.
	FramePing uint32 = 4
	FramePong uint32 = 5
)

// frameMagic precedes the first frame of a session in each direction.
const frameMagic = "DPMX"

// frameHeader is the fixed frame prefix: size, kind, request id.
const frameHeader = 16

// maxFramePayload bounds one frame's payload; a frame carries at most
// one wire message.
const maxFramePayload = maxWireSize

// sessionVersion is the framing protocol version carried in hello
// frames. Parsers accept any version whose leading byte they know,
// ignoring trailing payload.
const sessionVersion = "1"

// Frame is one frame taken off a connection.
type Frame struct {
	Kind    uint32
	ID      uint64
	Payload []byte
}

// beginFrame appends the header of a frame whose payload the caller
// appends next; endFrame fills in its size word once it has, at being
// where the frame begins.
func beginFrame(buf []byte, kind uint32, id uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, kind)
	return binary.LittleEndian.AppendUint64(buf, id)
}

func endFrame(buf []byte, at int) []byte {
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at))
	return buf
}

// AppendFrame appends one encoded frame to buf and returns the
// extended slice.
func AppendFrame(buf []byte, kind uint32, id uint64, payload []byte) []byte {
	return endFrame(append(beginFrame(buf, kind, id), payload...), len(buf))
}

// appendMsgFrame appends the frame whose payload is m, written once,
// straight behind the frame header.
func appendMsgFrame(buf []byte, kind uint32, id uint64, m Message) []byte {
	return endFrame(m.appendWire(beginFrame(buf, kind, id)), len(buf))
}

// frameSizeOK reports whether a frame's leading size word can begin a
// valid frame.
func frameSizeOK(size uint32) bool {
	return size >= frameHeader && size <= frameHeader+maxFramePayload
}

// frameBuf is the size of a connection's receive buffer: one receive
// into it usually brings a whole control frame, often several. It is
// also the largest frame sent from smallFrames.
const frameBuf = 1024

// smallFrames holds the buffers small frames are sent from.
var smallFrames = sync.Pool{New: func() any { return new([frameBuf]byte) }}

// frameFree holds the arrays larger frames are sent from and received
// into between uses, on both ends of every connection, whatever the
// number of connections. The workloads have one or two large frames in
// flight at once: a 4 MiB getlog chunk, or query and stats replies of
// 2 KiB to 128 KiB. Its eighth-larger slack on a miss took one `stats`
// of a 16 384-process machine from 3.8 to 4.1 wire sizes to 3.3
// (TestStatsRoundTripNoAllocBeyondCopies).
var frameFree = obs.NewByteList("frames", 64, 16<<20)

// takeFrameBuf returns an empty buffer that holds a frame of n bytes:
// for a small frame one from smallFrames, for a larger one from
// frameFree, counted in st.
func takeFrameBuf(n int, st *obs.FreeStats) []byte {
	if n <= frameBuf {
		return smallFrames.Get().(*[frameBuf]byte)[:0]
	}
	return frameFree.Take(n, st)[:0]
}

// freeFrameBuf gives back a buffer takeFrameBuf returned, or one grown
// from it. Nothing may use b after: in a test binary it is overwritten,
// so a string still read from it reads garbage.
func freeFrameBuf(b []byte, st *obs.FreeStats) {
	if cap(b) != frameBuf {
		frameFree.Put(b, st)
		return
	}
	obs.PoisonBytes(b)
	smallFrames.Put((*[frameBuf]byte)(b[:frameBuf]))
}

// frameReader takes frames off a connection's byte stream. It receives
// into one small buffer and hands a frame that fits on as a slice of
// it; a larger frame it receives alone into an array from frameFree,
// which it gives back at the next call of next, or of release, unless
// detach hands it on. Either way a frame's payload is valid until then:
// every caller decodes a frame before it reads another.
type frameReader struct {
	buf   []byte // buf[off:] is not yet handed on
	off   int
	own   []byte         // the connection's small buffer, while buf is a large frame's
	large []byte         // the frameFree array buf is a large frame in
	mem   *obs.FreeStats // counts the reader's traffic with frameFree
}

// next returns the connection's next frame, calling recv (read(2) into
// the slice it is given) as often as that takes. An error from recv —
// a timeout included — leaves the reader holding what has arrived, so
// the caller may deal with it and call next again. A size word no frame
// can have is ErrWireCorrupt as soon as its four bytes are in.
func (r *frameReader) next(recv func([]byte) (int, error)) (Frame, error) {
	r.release()
	for {
		if c := obs.NewCursor(r.buf[r.off:], ErrWireCorrupt); c.Remaining() >= 4 {
			size := c.U32()
			if !frameSizeOK(size) {
				return Frame{}, ErrWireCorrupt
			}
			if int(size) <= c.Remaining()+4 {
				f := Frame{Kind: c.U32(), ID: c.U64(), Payload: c.Take(int(size) - frameHeader)}
				r.off += int(size)
				return f, nil
			}
			if int(size) > cap(r.buf) {
				// Received alone: the array ends where the frame does.
				r.own, r.large = r.buf, takeFrameBuf(int(size), r.mem)
				r.buf, r.off = append(r.large[:0:size], r.buf[r.off:]...), 0
			}
		}
		if err := r.fill(recv); err != nil {
			return Frame{}, err
		}
	}
}

// release gives back the array of a large frame that has been handed
// on, returning the reader to its own buffer. A reader that is done
// with a connection calls it once it has decoded the last frame.
func (r *frameReader) release() {
	if b := r.detach(); b != nil {
		freeFrameBuf(b, r.mem)
	}
}

// detach hands the array of the large frame next last returned to the
// caller, who gives it to freeFrameBuf once done with the frame, and
// returns the reader to its own buffer. It returns nil when that frame
// lies in the reader's own buffer.
func (r *frameReader) detach() []byte {
	if r.large == nil || r.off != len(r.buf) {
		return nil
	}
	b := r.large
	r.buf, r.off, r.own, r.large = r.own[:0], 0, nil, nil
	return b
}

// lend is detach for a reply: a frame in the reader's own buffer that
// ends its bytes and fills at least half of it is handed on in that
// buffer, the reader going on in another from smallFrames, since a
// copy of it would cost about as much.
func (r *frameReader) lend(f Frame) []byte {
	if r.large == nil && r.off == len(r.buf) && frameHeader+len(f.Payload) >= frameBuf/2 {
		b := r.buf
		r.buf, r.off = takeFrameBuf(frameBuf, nil), 0
		return b
	}
	return r.detach()
}

// fill moves the bytes not yet handed on to the front of the buffer and
// receives once into the space behind them.
func (r *frameReader) fill(recv func([]byte) (int, error)) error {
	if r.buf == nil {
		r.buf = make([]byte, 0, frameBuf)
	}
	k := copy(r.buf[:cap(r.buf)], r.buf[r.off:])
	n, err := recv(r.buf[k:cap(r.buf)])
	r.buf, r.off = r.buf[:k+n], 0
	return err
}

// open consumes the magic that begins a daemon connection in either
// direction. Bytes that arrived with it are kept for next.
func (r *frameReader) open(recv func([]byte) (int, error)) error {
	for len(r.buf)-r.off < len(frameMagic) {
		if err := r.fill(recv); err != nil {
			return err
		}
	}
	if string(r.buf[r.off:r.off+len(frameMagic)]) != frameMagic {
		return fmt.Errorf("%w: no session magic", ErrWireCorrupt)
	}
	r.off += len(frameMagic)
	return nil
}

// appendHello appends the magic preamble and a hello frame — the
// opening bytes of a daemon connection in either direction.
func appendHello(buf []byte) []byte {
	buf = append(buf, frameMagic...)
	return AppendFrame(buf, FrameHello, 0, []byte(sessionVersion))
}

// helloOK reports whether a hello payload announces a version this
// implementation speaks. Trailing payload beyond the version byte is
// ignored, so the hello can grow fields without breaking old peers.
func helloOK(payload []byte) bool {
	return len(payload) >= 1 && payload[0] == sessionVersion[0]
}
