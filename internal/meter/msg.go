package meter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// HeaderSize is the encoded size of the standard meter message header.
// The C struct of Appendix A is long size; short machine; long cpuTime;
// long Dummy; long procTime; long traceType — with the VAX compiler's
// natural alignment that is 4+2+2(pad)+4+4+4+4 = 24 bytes.
const HeaderSize = 24

// MaxMsgSize bounds a single encoded meter message; the largest body
// (accept) is 56 bytes, so this is generous and guards decoding against
// corrupt size fields.
const MaxMsgSize = 256

// Errors reported by message decoding.
var (
	ErrShort   = errors.New("meter: buffer too short for message")
	ErrBadSize = errors.New("meter: corrupt size field")
	ErrBadType = errors.New("meter: unknown trace type")
)

// Header is the standard header carried by every meter message
// (Appendix A struct MeterHeader, Figure 4.1). CPUTime is the local
// machine clock in milliseconds ("useful for establishing the order of
// events on a particular machine"); ProcTime is the CPU time charged
// to the process, in milliseconds at 10 ms granularity.
type Header struct {
	Size      uint32
	Machine   uint16
	CPUTime   uint32
	Dummy     uint32
	ProcTime  uint32
	TraceType Type
}

func (h Header) encode(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:4], h.Size)
	le.PutUint16(b[4:6], h.Machine)
	// b[6:8] is the alignment padding after the short.
	le.PutUint32(b[8:12], h.CPUTime)
	le.PutUint32(b[12:16], h.Dummy)
	le.PutUint32(b[16:20], h.ProcTime)
	le.PutUint32(b[20:24], uint32(h.TraceType))
}

// DecodeHeader reads the header at the front of b, which holds at least
// HeaderSize bytes.
func DecodeHeader(b []byte) Header {
	le := binary.LittleEndian
	return Header{
		Size:      le.Uint32(b[0:4]),
		Machine:   le.Uint16(b[4:6]),
		CPUTime:   le.Uint32(b[8:12]),
		Dummy:     le.Uint32(b[12:16]),
		ProcTime:  le.Uint32(b[16:20]),
		TraceType: Type(le.Uint32(b[20:24])),
	}
}

// Field is one decoded field of a meter message body, used by trace
// dumps, the filter's record editing, and the analysis routines.
type Field struct {
	Name string
	// Value holds the numeric value for scalar fields.
	Value uint32
	// IsName marks 16-byte socket-name fields, whose value is in Addr.
	IsName bool
	Addr   Name
}

// Body is the event-specific part of a meter message. The ten body
// types below are its implementations; encoding any other type panics.
type Body interface {
	// EventType returns the traceType this body encodes as.
	EventType() Type
	// Fields enumerates the body's fields in declaration order.
	Fields() []Field
}

// Msg is a complete meter message. The kernel fills the header's
// timing fields when the event occurs.
type Msg struct {
	Header Header
	Body   Body
}

// Encode serializes the message into a new slice, fixing up the
// header's Size and TraceType from the body.
func (m *Msg) Encode() []byte { return m.AppendEncode(nil) }

// AppendEncode appends the encoded message to dst and returns the
// extended slice, fixing up the header's Size and TraceType from the
// body. With room in dst it allocates nothing, and the message and its
// body do not escape: the kernel builds both on its stack for every
// metered event.
func (m *Msg) AppendEncode(dst []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, HeaderSize+maxBodySize)[:off+HeaderSize]
	clear(dst[off:]) // the header's padding is never written
	dst, m.Header.TraceType = appendBody(dst, m.Body)
	m.Header.Size = uint32(len(dst) - off)
	m.Header.encode(dst[off:])
	return dst
}

// maxBodySize is the largest encoded body, accept's.
const maxBodySize = 24 + 2*NameSize

// TypeOf returns body.EventType() without calling through the
// interface, so that a body passed to it does not escape.
func TypeOf(body Body) Type {
	switch body.(type) {
	case *Send:
		return EvSend
	case *RecvCall:
		return EvRecvCall
	case *Recv:
		return EvRecv
	case *SocketCrt:
		return EvSocket
	case *Dup:
		return EvDup
	case *DestSocket:
		return EvDestSocket
	case *Connect:
		return EvConnect
	case *Accept:
		return EvAccept
	case *Fork:
		return EvFork
	case *TermProc:
		return EvTermProc
	}
	return 0
}

// appendBody appends body's encoding to b and returns it with the
// body's traceType. It is the one encoder: a switch over the concrete
// types, so no interface method is called on the body.
func appendBody(b []byte, body Body) ([]byte, Type) {
	e := enc(b)
	switch v := body.(type) {
	case *Send:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock).u32(v.MsgLength).u32(v.DestNameLen).name(v.DestName), EvSend
	case *RecvCall:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock), EvRecvCall
	case *Recv:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock).u32(v.MsgLength).u32(v.SourceNameLen).name(v.SourceName), EvRecv
	case *SocketCrt:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock).u32(v.Domain).u32(v.SockType).u32(v.Protocol), EvSocket
	case *Dup:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock).u32(v.NewSock), EvDup
	case *DestSocket:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock), EvDestSocket
	case *Connect:
		return e.u32(v.PID).u32(v.PC).u32(v.Sock).u32(v.SockNameLen).u32(v.PeerNameLen).name(v.SockName).name(v.PeerName), EvConnect
	case *Accept:
		e = e.u32(v.PID).u32(v.PC).u32(v.Sock).u32(v.NewSock).u32(v.SockNameLen).u32(v.PeerNameLen)
		return e.name(v.SockName).name(v.PeerName), EvAccept
	case *Fork:
		return e.u32(v.PID).u32(v.PC).u32(v.NewPID), EvFork
	case *TermProc:
		return e.u32(v.PID).u32(v.PC).u32(v.Status), EvTermProc
	}
	panic("meter: encoding a body of a type outside this package")
}

// enc appends the fields of a body in the VAX's little-endian order.
type enc []byte

func (e enc) u32(v uint32) enc { return binary.LittleEndian.AppendUint32(e, v) }
func (e enc) name(n Name) enc  { return append(e, n[:]...) }

// Decode parses one message from the front of b and returns it along
// with the number of bytes consumed. If b holds only part of a
// message, Decode returns ErrShort; callers accumulating a stream
// retry once more bytes arrive.
func Decode(b []byte) (Msg, int, error) {
	if len(b) < HeaderSize {
		return Msg{}, 0, ErrShort
	}
	h := DecodeHeader(b)
	if h.Size < HeaderSize || h.Size > MaxMsgSize {
		return Msg{}, 0, fmt.Errorf("%w: %d", ErrBadSize, h.Size)
	}
	if int(h.Size) > len(b) {
		return Msg{}, 0, ErrShort
	}
	body, err := decodeBody(h.TraceType, b[HeaderSize:h.Size])
	if err != nil {
		return Msg{}, 0, err
	}
	return Msg{Header: h, Body: body}, int(h.Size), nil
}

// PeekSize validates the size field of the message at the front of b
// and returns it without decoding the body. n == 0 with a nil error
// means b holds only part of a message; an out-of-range size field is
// corruption. This is the framing primitive filters use to walk a
// meter byte stream record by record.
func PeekSize(b []byte) (int, error) {
	if len(b) < HeaderSize {
		return 0, nil
	}
	size := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if size < HeaderSize || size > MaxMsgSize {
		return 0, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	if len(b) < size {
		return 0, nil
	}
	return size, nil
}

// DecodeStream parses as many complete messages as b contains and
// returns them with the unconsumed tail. A partial trailing message is
// left in the tail; corrupt data is reported as an error.
func DecodeStream(b []byte) ([]Msg, []byte, error) {
	var msgs []Msg
	for {
		m, n, err := Decode(b)
		if errors.Is(err, ErrShort) {
			return msgs, b, nil
		}
		if err != nil {
			return msgs, b, err
		}
		msgs = append(msgs, m)
		b = b[n:]
	}
}

// --- Bodies (Appendix A struct definitions) ---

func get32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off : off+4]) }

// Send records a send/sendto/sendmsg/write/writev event (struct
// MeterSendMsg; its field layout is the one documented to the filter by
// the description in Figure 3.2). DestName is zero when the recipient
// is not available to the metering software, e.g. a write across a
// connection (section 4.1); DestNameLen is then zero too.
type Send struct {
	PID         uint32
	PC          uint32
	Sock        uint32 // socket (file table entry address) the message was sent on
	MsgLength   uint32 // bytes in the message
	DestNameLen uint32
	DestName    Name
}

func (*Send) EventType() Type { return EvSend }
func (s *Send) Fields() []Field {
	return []Field{
		{Name: "pid", Value: s.PID},
		{Name: "pc", Value: s.PC},
		{Name: "sock", Value: s.Sock},
		{Name: "msgLength", Value: s.MsgLength},
		{Name: "destNameLen", Value: s.DestNameLen},
		{Name: "destName", IsName: true, Addr: s.DestName},
	}
}

// RecvCall records a process becoming ready to receive (struct
// MeterRecvCMsg): the call to read/recv/recvfrom/recvmsg, before any
// message arrives. The paper meters the call separately from the
// receipt so blocked time is observable.
type RecvCall struct {
	PID  uint32
	PC   uint32
	Sock uint32
}

func (*RecvCall) EventType() Type { return EvRecvCall }
func (r *RecvCall) Fields() []Field {
	return []Field{
		{Name: "pid", Value: r.PID},
		{Name: "pc", Value: r.PC},
		{Name: "sock", Value: r.Sock},
	}
}

// Recv records the receipt of a message (struct MeterRecvMsg).
type Recv struct {
	PID           uint32
	PC            uint32
	Sock          uint32
	MsgLength     uint32
	SourceNameLen uint32
	SourceName    Name
}

func (*Recv) EventType() Type { return EvRecv }
func (r *Recv) Fields() []Field {
	return []Field{
		{Name: "pid", Value: r.PID},
		{Name: "pc", Value: r.PC},
		{Name: "sock", Value: r.Sock},
		{Name: "msgLength", Value: r.MsgLength},
		{Name: "sourceNameLen", Value: r.SourceNameLen},
		{Name: "sourceName", IsName: true, Addr: r.SourceName},
	}
}

// SocketCrt records the creation of a socket (struct MeterSoctCrt).
type SocketCrt struct {
	PID      uint32
	PC       uint32
	Sock     uint32 // file table entry of new socket
	Domain   uint32
	SockType uint32
	Protocol uint32
}

func (*SocketCrt) EventType() Type { return EvSocket }
func (s *SocketCrt) Fields() []Field {
	return []Field{
		{Name: "pid", Value: s.PID},
		{Name: "pc", Value: s.PC},
		{Name: "sock", Value: s.Sock},
		{Name: "domain", Value: s.Domain},
		{Name: "type", Value: s.SockType},
		{Name: "protocol", Value: s.Protocol},
	}
}

// Dup records the duplication of a socket or file descriptor (struct
// MeterDup).
type Dup struct {
	PID     uint32
	PC      uint32
	Sock    uint32 // socket being duplicated
	NewSock uint32 // duplicate socket
}

func (*Dup) EventType() Type { return EvDup }
func (d *Dup) Fields() []Field {
	return []Field{
		{Name: "pid", Value: d.PID},
		{Name: "pc", Value: d.PC},
		{Name: "sock", Value: d.Sock},
		{Name: "newSock", Value: d.NewSock},
	}
}

// DestSocket records the destruction (close) of a socket. Appendix A's
// union omits this struct although the METERDESTSOCKET flag exists in
// the flag table of section 3.2; we give it the minimal body the flag
// implies.
type DestSocket struct {
	PID  uint32
	PC   uint32
	Sock uint32
}

func (*DestSocket) EventType() Type { return EvDestSocket }
func (d *DestSocket) Fields() []Field {
	return []Field{
		{Name: "pid", Value: d.PID},
		{Name: "pc", Value: d.PC},
		{Name: "sock", Value: d.Sock},
	}
}

// Connect records the initiation of a connection (struct MeterConnect).
// SockName is the name bound to the connecting socket (often empty for
// a client) and PeerName the name bound to the accepting socket.
type Connect struct {
	PID         uint32
	PC          uint32
	Sock        uint32
	SockNameLen uint32
	PeerNameLen uint32
	SockName    Name
	PeerName    Name
}

func (*Connect) EventType() Type { return EvConnect }
func (c *Connect) Fields() []Field {
	return []Field{
		{Name: "pid", Value: c.PID},
		{Name: "pc", Value: c.PC},
		{Name: "sock", Value: c.Sock},
		{Name: "sockNameLen", Value: c.SockNameLen},
		{Name: "peerNameLen", Value: c.PeerNameLen},
		{Name: "sockName", IsName: true, Addr: c.SockName},
		{Name: "peerName", IsName: true, Addr: c.PeerName},
	}
}

// Accept records the acceptance of a connection (struct MeterAccept,
// Figure 4.1): the accepting socket, the new connection socket created
// for the connection, and the names bound to both ends.
type Accept struct {
	PID         uint32
	PC          uint32
	Sock        uint32 // socket accepting the connection
	NewSock     uint32 // new socket created for the connection
	SockNameLen uint32
	PeerNameLen uint32
	SockName    Name // name bound to accepting socket
	PeerName    Name // name bound to connecting socket
}

func (*Accept) EventType() Type { return EvAccept }
func (a *Accept) Fields() []Field {
	return []Field{
		{Name: "pid", Value: a.PID},
		{Name: "pc", Value: a.PC},
		{Name: "sock", Value: a.Sock},
		{Name: "newSock", Value: a.NewSock},
		{Name: "sockNameLen", Value: a.SockNameLen},
		{Name: "peerNameLen", Value: a.PeerNameLen},
		{Name: "sockName", IsName: true, Addr: a.SockName},
		{Name: "peerName", IsName: true, Addr: a.PeerName},
	}
}

// Fork records a fork (struct MeterFork): the parent's pid and the
// child's pid. The child inherits the parent's meter flags and meter
// connection, so its own events follow in the same trace.
type Fork struct {
	PID    uint32 // parent process's ID
	PC     uint32
	NewPID uint32 // child process's ID
}

func (*Fork) EventType() Type { return EvFork }
func (f *Fork) Fields() []Field {
	return []Field{
		{Name: "pid", Value: f.PID},
		{Name: "pc", Value: f.PC},
		{Name: "newPid", Value: f.NewPID},
	}
}

// TermProc records process termination. Like DestSocket it is implied
// by the flag table (METERTERMPROC) but missing from Appendix A's
// union; the body carries the exit status.
type TermProc struct {
	PID    uint32
	PC     uint32
	Status uint32
}

func (*TermProc) EventType() Type { return EvTermProc }
func (t *TermProc) Fields() []Field {
	return []Field{
		{Name: "pid", Value: t.PID},
		{Name: "pc", Value: t.PC},
		{Name: "status", Value: t.Status},
	}
}

func decodeBody(t Type, b []byte) (Body, error) {
	var body Body
	size := 12 // pid, pc and one more word
	switch t {
	case EvSend:
		body, size = &Send{}, 20+NameSize
	case EvRecvCall:
		body = &RecvCall{}
	case EvRecv:
		body, size = &Recv{}, 20+NameSize
	case EvSocket:
		body, size = &SocketCrt{}, 24
	case EvDup:
		body, size = &Dup{}, 16
	case EvDestSocket:
		body = &DestSocket{}
	case EvConnect:
		body, size = &Connect{}, 20+2*NameSize
	case EvAccept:
		body, size = &Accept{}, maxBodySize
	case EvFork:
		body = &Fork{}
	case EvTermProc:
		body = &TermProc{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint32(t))
	}
	if len(b) != size {
		return nil, fmt.Errorf("%w: %v body is %d bytes, want %d", ErrBadSize, t, len(b), size)
	}
	decodeInto(body, b)
	return body, nil
}

func decodeInto(body Body, b []byte) {
	switch v := body.(type) {
	case *Send:
		v.PID, v.PC, v.Sock = get32(b, 0), get32(b, 4), get32(b, 8)
		v.MsgLength, v.DestNameLen = get32(b, 12), get32(b, 16)
		copy(v.DestName[:], b[20:])
	case *RecvCall:
		v.PID, v.PC, v.Sock = get32(b, 0), get32(b, 4), get32(b, 8)
	case *Recv:
		v.PID, v.PC, v.Sock = get32(b, 0), get32(b, 4), get32(b, 8)
		v.MsgLength, v.SourceNameLen = get32(b, 12), get32(b, 16)
		copy(v.SourceName[:], b[20:])
	case *SocketCrt:
		v.PID, v.PC, v.Sock = get32(b, 0), get32(b, 4), get32(b, 8)
		v.Domain, v.SockType, v.Protocol = get32(b, 12), get32(b, 16), get32(b, 20)
	case *Dup:
		v.PID, v.PC, v.Sock, v.NewSock = get32(b, 0), get32(b, 4), get32(b, 8), get32(b, 12)
	case *DestSocket:
		v.PID, v.PC, v.Sock = get32(b, 0), get32(b, 4), get32(b, 8)
	case *Connect:
		v.PID, v.PC, v.Sock = get32(b, 0), get32(b, 4), get32(b, 8)
		v.SockNameLen, v.PeerNameLen = get32(b, 12), get32(b, 16)
		copy(v.SockName[:], b[20:36])
		copy(v.PeerName[:], b[36:52])
	case *Accept:
		v.PID, v.PC, v.Sock, v.NewSock = get32(b, 0), get32(b, 4), get32(b, 8), get32(b, 12)
		v.SockNameLen, v.PeerNameLen = get32(b, 16), get32(b, 20)
		copy(v.SockName[:], b[24:40])
		copy(v.PeerName[:], b[40:56])
	case *Fork:
		v.PID, v.PC, v.NewPID = get32(b, 0), get32(b, 4), get32(b, 8)
	case *TermProc:
		v.PID, v.PC, v.Status = get32(b, 0), get32(b, 4), get32(b, 8)
	}
}
