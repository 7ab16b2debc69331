package daemon

// The framing layer. Every connection to a daemon carries the Figure
// 3.6 messages of wire.go inside length-prefixed frames tagged with a
// request id, so one connection can carry many requests and replies
// can return in completion order:
//
//	size     uint32 LE   total frame length, including this word
//	kind     uint32 LE   frame kind (hello, request, reply, ping, pong)
//	request  uint64 LE   request id, matching replies to requests
//	payload  bytes       request/reply: one encoded WireMsg; hello: version
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
	"slices"
	"sync"

	"dpm/internal/obs"
)

// Frame kinds.
const (
	// FrameHello opens a session in each direction; the payload is the
	// speaker's protocol version.
	FrameHello uint32 = 1
	// FrameReq carries one encoded request WireMsg; the reply returns
	// under the same request id.
	FrameReq uint32 = 2
	// FrameRep carries one encoded reply WireMsg.
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

// appendFrameHeader appends the header of a frame with n payload bytes.
func appendFrameHeader(buf []byte, kind uint32, id uint64, n int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frameHeader+n))
	buf = binary.LittleEndian.AppendUint32(buf, kind)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// AppendFrame appends one encoded frame to buf and returns the
// extended slice.
func AppendFrame(buf []byte, kind uint32, id uint64, payload []byte) []byte {
	return append(appendFrameHeader(buf, kind, id, len(payload)), payload...)
}

// wireFrame encodes a frame whose payload is the message, written once,
// straight behind the frame header — AppendFrame over w.Encode()
// without the copy in between.
func wireFrame(kind uint32, id uint64, w *WireMsg) []byte {
	n := w.size()
	return w.appendTo(appendFrameHeader(make([]byte, 0, frameHeader+n), kind, id, n))
}

// appendReply appends the frame of reply id whose message is w, the
// Wire of a reply, and whose Data, when data is set, is what data
// writes: straight behind Data's length word, which with the two size
// words in front of it is filled in once Data is in, and Aux behind it.
func appendReply(b []byte, id uint64, w *WireMsg, data func([]byte) []byte) []byte {
	start := len(b)
	b = w.appendTo(appendFrameHeader(b, FrameRep, id, w.size()))
	if data == nil {
		return b
	}
	le := binary.LittleEndian
	aux := w.Fields[3]
	at := len(b) - 4 - len(aux)
	b = data(b[:at])
	le.PutUint32(b[at-4:], uint32(len(b)-at))
	b = append(le.AppendUint32(b, uint32(len(aux))), aux...)
	le.PutUint32(b[start:], uint32(len(b)-start))
	le.PutUint32(b[start+frameHeader:], uint32(len(b)-start-frameHeader))
	return b
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
// into between uses, on both ends of every connection. It keeps at most
// frameFreeCount arrays and frameFreeBytes in all, whatever the number
// of connections, and unlike a sync.Pool it keeps them across garbage
// collections, as the kernel's recvFree keeps socket arrays. The
// workloads have one or two large frames in flight at once: a 4 MiB
// getlog chunk, or query and stats replies of 2 KiB to 128 KiB.
var frameFree struct {
	mu    sync.Mutex
	bufs  [][]byte
	bytes int // the capacity of bufs, summed
}

const (
	frameFreeCount = 64
	frameFreeBytes = 16 << 20
)

// takeFrameBuf returns an empty buffer that holds a frame of n bytes:
// for a small frame one from smallFrames, for a larger one the smallest
// free array that holds it, or a new one an eighth larger. The slack is
// for the next reply of the same kind, a few bytes longer as its
// counters grow digits: without it one `stats` of a 16 384-process
// machine allocated 3.8 to 4.1 wire sizes, with it 3.3
// (TestStatsRoundTripNoAllocBeyondCopies).
func takeFrameBuf(n int) []byte {
	if n <= frameBuf {
		return smallFrames.Get().(*[frameBuf]byte)[:0]
	}
	frameFree.mu.Lock()
	defer frameFree.mu.Unlock()
	best := -1
	for i, b := range frameFree.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(frameFree.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, 0, n+n/8)
	}
	b := frameFree.bufs[best]
	frameFree.bufs = slices.Delete(frameFree.bufs, best, best+1)
	frameFree.bytes -= cap(b)
	return b
}

// freeFrameBuf gives back a buffer takeFrameBuf returned, or one grown
// from it; one the free list has no room for goes to the collector.
// Nothing may use b after.
func freeFrameBuf(b []byte) {
	if cap(b) == frameBuf {
		smallFrames.Put((*[frameBuf]byte)(b[:frameBuf]))
		return
	}
	frameFree.mu.Lock()
	defer frameFree.mu.Unlock()
	if cap(b) > frameBuf && len(frameFree.bufs) < frameFreeCount && frameFree.bytes+cap(b) <= frameFreeBytes {
		frameFree.bufs = append(frameFree.bufs, b[:0])
		frameFree.bytes += cap(b)
	}
}

// frameReader takes frames off a connection's byte stream. It receives
// into one small buffer and hands a frame that fits on as a slice of
// it; a larger frame it receives alone into an array from frameFree,
// which it gives back at the next call of next, or of release. Either
// way a frame's payload is valid until then: every caller decodes a
// frame before it reads another.
type frameReader struct {
	buf   []byte // buf[off:] is not yet handed on
	off   int
	own   []byte // the connection's small buffer, while buf is a large frame's
	large []byte // the frameFree array buf is a large frame in
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
				r.own, r.large = r.buf, takeFrameBuf(int(size))
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
	if r.large != nil && r.off == len(r.buf) {
		freeFrameBuf(r.large)
		r.buf, r.off, r.own, r.large = r.own[:0], 0, nil, nil
	}
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
