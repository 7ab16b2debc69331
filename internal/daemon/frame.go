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
// without the copy in between, which for a stats or getlog reply is
// megabytes.
func wireFrame(kind uint32, id uint64, w *WireMsg) []byte {
	n := w.size()
	return w.appendTo(appendFrameHeader(make([]byte, 0, frameHeader+n), kind, id, n))
}

// frameSizeOK reports whether a frame's leading size word can begin a
// valid frame.
func frameSizeOK(size uint32) bool {
	return size >= frameHeader && size <= frameHeader+maxFramePayload
}

// frameBuf is the size of a connection's receive buffer: one receive
// into it usually brings a whole control frame, often several.
const frameBuf = 1024

// frameReader takes frames off a connection's byte stream. It receives
// into one small buffer and hands a frame that fits on as a slice of
// it, valid until the next call of next: every caller decodes a frame
// before it reads another. A larger frame is received into a buffer of
// its own size, which the caller may keep.
type frameReader struct {
	buf []byte // buf[off:] is not yet handed on
	off int
}

// next returns the connection's next frame, calling recv (read(2) into
// the slice it is given) as often as that takes. An error from recv —
// a timeout included — leaves the reader holding what has arrived, so
// the caller may deal with it and call next again. A size word no frame
// can have is ErrWireCorrupt as soon as its four bytes are in.
func (r *frameReader) next(recv func([]byte) (int, error)) (Frame, error) {
	for {
		in := r.buf[r.off:]
		if len(in) >= 4 && !frameSizeOK(binary.LittleEndian.Uint32(in)) {
			return Frame{}, ErrWireCorrupt
		}
		if len(in) >= frameHeader {
			size := int(binary.LittleEndian.Uint32(in))
			if size <= len(in) {
				f := Frame{Kind: binary.LittleEndian.Uint32(in[4:]), ID: binary.LittleEndian.Uint64(in[8:]),
					Payload: in[frameHeader:size:size]}
				r.off += size
				if cap(r.buf) > frameBuf { // a large frame's own buffer goes with it
					r.buf, r.off = nil, 0
				}
				return f, nil
			}
			if size > cap(r.buf) {
				r.buf, r.off = append(make([]byte, 0, size), in...), 0
			}
		}
		if err := r.fill(recv); err != nil {
			return Frame{}, err
		}
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
