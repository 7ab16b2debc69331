package daemon

// The session framing layer. A persistent control-plane session
// carries the legacy wire messages of Figure 3.6 inside length-prefixed
// frames tagged with a request id, so many requests can be in flight on
// one connection and replies can return in completion order:
//
//	size     uint32 LE   total frame length, including this word
//	kind     uint32 LE   frame kind (hello, request, reply, ping, pong)
//	request  uint64 LE   request id, matching replies to requests
//	payload  bytes       request/reply: one encoded WireMsg; hello: version
//
// A session opens with a 4-byte magic, "DPMX", before the first frame.
// Read as a one-shot message size the magic is 0x584D5044 — far above
// maxWireSize — so no one-shot message (section 3.5.1, Exchange) can
// begin with the magic bytes, and a daemon sniffs the first four bytes
// of a connection and serves either protocol. A dialer whose hello is
// not answered with one has not reached a daemon: the dial failed.
//
// Unknown frame kinds are skipped by both sides (forward
// compatibility); a hello payload may grow trailing data that old
// peers ignore.

import "encoding/binary"

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

// Frame is one parsed session frame.
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

// ParseFrame decodes the first frame in buf, returning the frame and
// the number of bytes it consumed. It returns ErrWireShort when buf
// holds only a prefix of a frame (read more and retry) and
// ErrWireCorrupt when buf cannot begin a valid frame (tear down the
// connection). The payload is copied, so the caller may reuse buf.
func ParseFrame(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, ErrWireShort
	}
	size := binary.LittleEndian.Uint32(buf)
	if !frameSizeOK(size) {
		return Frame{}, 0, ErrWireCorrupt
	}
	if len(buf) < int(size) {
		return Frame{}, 0, ErrWireShort
	}
	f := Frame{
		Kind:    binary.LittleEndian.Uint32(buf[4:]),
		ID:      binary.LittleEndian.Uint64(buf[8:]),
		Payload: append([]byte(nil), buf[frameHeader:size]...),
	}
	return f, int(size), nil
}

// frameReader takes session frames off a connection's byte stream with
// receives sized to what the frame in hand still lacks: its header
// first, then — the length now known — all of its payload. A frame is
// one atomic Send, so the payload normally arrives in that one receive
// and is handed on as received; if it comes in pieces, one buffer of
// exactly the payload's size collects them. No buffer is grown by
// reallocation, and no byte is copied again after the receive that
// delivered it.
type frameReader struct {
	pending []byte // bytes read past the handshake: consumed before the connection is
	hdr     []byte // header bytes of the frame in hand
	payload []byte // its payload so far, once the header is whole
}

// next returns the connection's next frame, calling recv (one receive
// of at most max bytes) as often as that takes. An error from recv — a
// timeout included — leaves the reader holding what has arrived, so
// the caller may deal with it and call next again. A size word no frame
// can have is ErrWireCorrupt as soon as its four bytes are in. The
// frame's payload is the caller's: the reader keeps no reference.
func (r *frameReader) next(recv func(max int) ([]byte, error)) (Frame, error) {
	for len(r.hdr) < frameHeader {
		data, err := r.read(frameHeader-len(r.hdr), recv)
		if err != nil {
			return Frame{}, err
		}
		r.hdr = append(r.hdr, data...)
		if len(r.hdr) >= 4 && !frameSizeOK(binary.LittleEndian.Uint32(r.hdr)) {
			return Frame{}, ErrWireCorrupt
		}
	}
	want := int(binary.LittleEndian.Uint32(r.hdr)) - frameHeader
	for len(r.payload) < want {
		data, err := r.read(want-len(r.payload), recv)
		if err != nil {
			return Frame{}, err
		}
		switch {
		case r.payload != nil:
			r.payload = append(r.payload, data...)
		case len(data) == want:
			r.payload = data
		default:
			r.payload = append(make([]byte, 0, want), data...)
		}
	}
	f := Frame{
		Kind:    binary.LittleEndian.Uint32(r.hdr[4:]),
		ID:      binary.LittleEndian.Uint64(r.hdr[8:]),
		Payload: r.payload,
	}
	r.hdr, r.payload = r.hdr[:0], nil
	return f, nil
}

// read is recv, preceded by whatever is pending.
func (r *frameReader) read(max int, recv func(max int) ([]byte, error)) ([]byte, error) {
	if len(r.pending) == 0 {
		return recv(max)
	}
	n := min(max, len(r.pending))
	data := r.pending[:n:n]
	r.pending = r.pending[n:]
	return data, nil
}

// isFrameMagic reports whether buf begins with the session magic.
// Callers must have at least 4 bytes buffered.
func isFrameMagic(buf []byte) bool {
	return len(buf) >= 4 && string(buf[:4]) == frameMagic
}

// appendHello appends the magic preamble and a hello frame — the
// opening bytes of a session in either direction.
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
