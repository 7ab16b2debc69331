package meter

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// allBodies returns one populated instance of every body type.
func allBodies() []Body {
	sn := InetName(228320140, 3000)
	pn := UnixName("/tmp/srv")
	return []Body{
		&Send{PID: 2120, PC: 0x40a0, Sock: 4, MsgLength: 512, DestNameLen: 16, DestName: sn},
		&RecvCall{PID: 2120, PC: 0x40b0, Sock: 4},
		&Recv{PID: 2122, PC: 0x40c0, Sock: 5, MsgLength: 512, SourceNameLen: 16, SourceName: sn},
		&SocketCrt{PID: 2120, PC: 0x40d0, Sock: 0x101, Domain: uint32(AFInet), SockType: 1, Protocol: 0},
		&Dup{PID: 2120, PC: 0x40e0, Sock: 0x101, NewSock: 0x102},
		&DestSocket{PID: 2120, PC: 0x40f0, Sock: 0x101},
		&Connect{PID: 2120, PC: 0x4100, Sock: 0x101, SockNameLen: 0, PeerNameLen: 16, PeerName: pn},
		&Accept{PID: 2122, PC: 0x4110, Sock: 0x201, NewSock: 0x202, SockNameLen: 16, PeerNameLen: 16, SockName: pn, PeerName: sn},
		&Fork{PID: 2120, PC: 0x4120, NewPID: 2121},
		&TermProc{PID: 2121, PC: 0x4130, Status: 0},
	}
}

func header() Header {
	return Header{Machine: 5, CPUTime: 9500, ProcTime: 120}
}

// newBody returns a zero body of event type typ.
func newBody(typ Type) Body {
	for _, b := range allBodies() {
		if b.EventType() == typ {
			return reflect.New(reflect.TypeOf(b).Elem()).Interface().(Body)
		}
	}
	return nil
}

// structFields returns body's struct fields in declaration order.
func structFields(body Body) []reflect.Value {
	v := reflect.ValueOf(body).Elem()
	fields := make([]reflect.Value, v.NumField())
	for i := range fields {
		fields[i] = v.Field(i)
	}
	return fields
}

var nameType = reflect.TypeOf(Name{})

// distinctBody returns a body of event type typ whose struct fields, in
// declaration order, hold values no two of them share: field i is the
// long seed+i, or a Name field the Internet name of host seed+i.
func distinctBody(typ Type, seed uint32) Body {
	body := newBody(typ)
	for i, f := range structFields(body) {
		v := seed + uint32(i)
		if f.Type() == nameType {
			f.Set(reflect.ValueOf(InetName(v, uint16(v))))
		} else {
			f.SetUint(uint64(v))
		}
	}
	return body
}

// decodeMsg is the reference decoder the tests hold the encoder to:
// Decode checks the message at the front of b, and field i of its
// type's Layout, read at the table's offset, becomes struct field i of
// a new body.
func decodeMsg(b []byte) (Msg, int, error) {
	h, n, err := Decode(b)
	if err != nil {
		return Msg{}, 0, err
	}
	lay, _ := LayoutOf(h.TraceType)
	body := newBody(h.TraceType)
	for i, f := range structFields(body) {
		v, name := lay.Fields[i].Read(b[HeaderSize:n])
		if f.Type() == nameType {
			f.Set(reflect.ValueOf(name))
		} else {
			f.SetUint(uint64(v))
		}
	}
	return Msg{Header: h, Body: body}, n, nil
}

// decodeAll decodes every message of a batch through decodeMsg.
func decodeAll(t *testing.T, batch []byte) []Msg {
	t.Helper()
	var msgs []Msg
	for len(batch) > 0 {
		m, n, err := decodeMsg(batch)
		if err != nil {
			t.Fatalf("batch not decodable after %d messages: %v", len(msgs), err)
		}
		msgs, batch = append(msgs, m), batch[n:]
	}
	return msgs
}

// TestEncoderAgreesWithTable is the gate between the kernel's encoder
// and the layout table: every body type, with a distinct value in each
// field, encodes through AppendEncode to a body of the table's size
// whose bytes at field i's offset hold struct field i, which bears
// table field i's name, and its type takes the table's number and name.
func TestEncoderAgreesWithTable(t *testing.T) {
	largest := 0
	for _, lay := range Layouts() {
		body := distinctBody(lay.Type, 1000*uint32(lay.Type))
		enc := (&Msg{Header: header(), Body: body}).AppendEncode(nil)
		h := DecodeHeader(enc)
		if h.TraceType != lay.Type || TypeOf(body) != lay.Type || lay.Type.String() != lay.Name {
			t.Fatalf("%s: encoded as type %d (TypeOf %d, String %q), table says %d", lay.Name, h.TraceType, TypeOf(body), lay.Type.String(), lay.Type)
		}
		if got := len(enc) - HeaderSize; got != lay.Size {
			t.Fatalf("%s: body is %d bytes, table says %d", lay.Name, got, lay.Size)
		}
		fields := structFields(body)
		if len(fields) != len(lay.Fields) {
			t.Fatalf("%s: struct has %d fields, table %d", lay.Name, len(fields), len(lay.Fields))
		}
		for i, f := range fields {
			// SockType is the Go name of SOCKET's type field.
			if sf := reflect.TypeOf(body).Elem().Field(i).Name; !strings.EqualFold(sf, lay.Fields[i].Name) && sf != "SockType" {
				t.Errorf("%s field %d: struct field %s, table field %s", lay.Name, i, sf, lay.Fields[i].Name)
			}
			v, name := lay.Fields[i].Read(enc[HeaderSize:])
			var got any = v
			if lay.Fields[i].IsName() {
				got = name
			}
			if want := f.Interface(); got != want {
				t.Errorf("%s field %d (%s at offset %d): read %v, struct holds %v", lay.Name, i, lay.Fields[i].Name, lay.Fields[i].Offset, got, want)
			}
		}
		largest = max(largest, lay.Size)
	}
	if largest != maxBodySize {
		t.Errorf("largest body %d bytes, maxBodySize %d", largest, maxBodySize)
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, body := range allBodies() {
		m := Msg{Header: header(), Body: body}
		enc := m.Encode()
		got, n, err := decodeMsg(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", body.EventType(), err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d bytes", body.EventType(), n, len(enc))
		}
		if !reflect.DeepEqual(got.Body, body) {
			t.Fatalf("%v: body round trip mismatch:\n got %+v\nwant %+v", body.EventType(), got.Body, body)
		}
		if got.Header.Machine != 5 || got.Header.CPUTime != 9500 || got.Header.ProcTime != 120 {
			t.Fatalf("%v: header mismatch: %+v", body.EventType(), got.Header)
		}
	}
}

func TestHeaderLayout(t *testing.T) {
	// Appendix A: long size; short machine (+2 pad); long cpuTime;
	// long Dummy; long procTime; long traceType. 24 bytes, VAX
	// little-endian.
	m := Msg{Header: Header{Machine: 5, CPUTime: 1000, Dummy: 0, ProcTime: 40}, Body: &Fork{PID: 1, PC: 2, NewPID: 3}}
	b := m.Encode()
	le := binary.LittleEndian
	if got := le.Uint32(b[0:4]); got != uint32(len(b)) {
		t.Errorf("size field = %d, want %d", got, len(b))
	}
	if got := le.Uint16(b[4:6]); got != 5 {
		t.Errorf("machine field = %d, want 5", got)
	}
	if got := le.Uint32(b[8:12]); got != 1000 {
		t.Errorf("cpuTime field = %d, want 1000", got)
	}
	if got := le.Uint32(b[16:20]); got != 40 {
		t.Errorf("procTime field = %d, want 40", got)
	}
	if got := le.Uint32(b[20:24]); got != uint32(EvFork) {
		t.Errorf("traceType field = %d, want %d", got, EvFork)
	}
	if HeaderSize != 24 {
		t.Errorf("HeaderSize = %d, want 24", HeaderSize)
	}
}

// TestSendLayoutMatchesFigure32 pins the send body layout to the event
// record description of Figure 3.2:
//
//	SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10
//	        destNameLen,16,4,10 destName,20,16,16
func TestSendLayoutMatchesFigure32(t *testing.T) {
	dest := InetName(228320140, 21)
	m := Msg{Header: header(), Body: &Send{PID: 77, PC: 88, Sock: 4, MsgLength: 99, DestNameLen: 16, DestName: dest}}
	b := m.Encode()
	body := b[HeaderSize:]
	le := binary.LittleEndian
	if EvSend != 1 {
		t.Errorf("EvSend = %d, want 1 (Figure 3.3 uses type=1 for send)", EvSend)
	}
	checks := []struct {
		name string
		off  int
		want uint32
	}{
		{"pid", 0, 77},
		{"pc", 4, 88},
		{"sock", 8, 4},
		{"msgLength", 12, 99},
		{"destNameLen", 16, 16},
	}
	for _, c := range checks {
		if got := le.Uint32(body[c.off : c.off+4]); got != c.want {
			t.Errorf("%s at body offset %d = %d, want %d", c.name, c.off, got, c.want)
		}
	}
	var gotName Name
	copy(gotName[:], body[20:36])
	if gotName != dest {
		t.Errorf("destName at body offset 20 = %v, want %v", gotName, dest)
	}
	if len(body) != 36 {
		t.Errorf("send body length = %d, want 36", len(body))
	}
}

// TestAcceptLayoutMatchesFigure41 pins the accept body layout to
// Figure 4.1 / struct MeterAccept: pid, pc, socket, newSocket,
// sockNameLen, peerNameLen, sockName, peerName.
func TestAcceptLayoutMatchesFigure41(t *testing.T) {
	sn, pn := UnixName("/tmp/a"), UnixName("/tmp/b")
	m := Msg{Header: header(), Body: &Accept{
		PID: 1, PC: 2, Sock: 3, NewSock: 4, SockNameLen: 16, PeerNameLen: 16, SockName: sn, PeerName: pn,
	}}
	b := m.Encode()
	body := b[HeaderSize:]
	le := binary.LittleEndian
	if EvAccept != 8 {
		t.Errorf("EvAccept = %d, want 8 (Figure 3.4 uses type=8 with sockName=peerName)", EvAccept)
	}
	for i, want := range []uint32{1, 2, 3, 4, 16, 16} {
		if got := le.Uint32(body[i*4 : i*4+4]); got != want {
			t.Errorf("accept scalar %d = %d, want %d", i, got, want)
		}
	}
	var gotSn, gotPn Name
	copy(gotSn[:], body[24:40])
	copy(gotPn[:], body[40:56])
	if gotSn != sn || gotPn != pn {
		t.Error("accept name fields misplaced")
	}
	if len(body) != 56 {
		t.Errorf("accept body length = %d, want 56", len(body))
	}
}

func TestBodySizes(t *testing.T) {
	// The C struct sizes implied by Appendix A on a 32-bit VAX.
	want := map[Type]int{
		EvSend:       36,
		EvRecvCall:   12,
		EvRecv:       36,
		EvSocket:     24,
		EvDup:        16,
		EvDestSocket: 12,
		EvConnect:    52,
		EvAccept:     56,
		EvFork:       12,
		EvTermProc:   12,
	}
	for _, b := range allBodies() {
		if got := len((&Msg{Body: b}).Encode()) - HeaderSize; got != want[b.EventType()] {
			t.Errorf("%v body size = %d, want %d", b.EventType(), got, want[b.EventType()])
		}
	}
}

func TestDecodeShort(t *testing.T) {
	m := Msg{Header: header(), Body: &Fork{PID: 1, PC: 2, NewPID: 3}}
	enc := m.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut]); !errors.Is(err, ErrShort) {
			t.Fatalf("Decode of %d/%d bytes: err = %v, want ErrShort", cut, len(enc), err)
		}
	}
}

func TestDecodeCorruptSize(t *testing.T) {
	m := Msg{Header: header(), Body: &Fork{}}
	enc := m.Encode()
	binary.LittleEndian.PutUint32(enc[0:4], 7) // < HeaderSize
	if _, _, err := Decode(enc); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
	binary.LittleEndian.PutUint32(enc[0:4], MaxMsgSize+1)
	if _, _, err := Decode(enc); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
}

func TestDecodeUnknownType(t *testing.T) {
	m := Msg{Header: header(), Body: &Fork{}}
	enc := m.Encode()
	binary.LittleEndian.PutUint32(enc[20:24], 999)
	if _, _, err := Decode(enc); !errors.Is(err, ErrBadType) {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
}

func TestDecodeStreamBatches(t *testing.T) {
	// The kernel sends several buffered messages together; the filter
	// must be able to split the batch on the size field.
	var batch []byte
	bodies := allBodies()
	for _, b := range bodies {
		m := Msg{Header: header(), Body: b}
		batch = m.AppendEncode(batch)
	}
	hs, rest, err := DecodeStream(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("undcoded tail of %d bytes", len(rest))
	}
	if len(hs) != len(bodies) {
		t.Fatalf("decoded %d messages, want %d", len(hs), len(bodies))
	}
	for i := range hs {
		if hs[i].TraceType != bodies[i].EventType() {
			t.Fatalf("message %d type = %v, want %v", i, hs[i].TraceType, bodies[i].EventType())
		}
	}
}

func TestDecodeStreamPartialTail(t *testing.T) {
	m := Msg{Header: header(), Body: &Send{PID: 1}}
	enc := m.Encode()
	double := append(append([]byte{}, enc...), enc[:10]...)
	hs, rest, err := DecodeStream(double)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 || len(rest) != 10 {
		t.Fatalf("msgs=%d rest=%d, want 1 and 10", len(hs), len(rest))
	}
}

// TestFieldsEnumeration: the table lays out every event type, each body
// starting with pid, pc; a field's width is its struct field's (a long
// or a Name) and its base is 10 for a long, 16 for a name.
func TestFieldsEnumeration(t *testing.T) {
	if n := len(Layouts()); n != int(EvTermProc) {
		t.Fatalf("table holds %d layouts, want %d", n, EvTermProc)
	}
	for _, lay := range Layouts() {
		if len(lay.Fields) < 3 || lay.Fields[0].Name != "pid" || lay.Fields[1].Name != "pc" {
			t.Fatalf("%s: every body starts with pid, pc; got %+v", lay.Name, lay.Fields)
		}
		for i, f := range structFields(newBody(lay.Type)) {
			lf, base := lay.Fields[i], 10
			if f.Type() == nameType {
				base = 16
			}
			if lf.Width != int(f.Type().Size()) || lf.Base != base {
				t.Errorf("%s field %s: width %d base %d for a %v", lay.Name, lf.Name, lf.Width, lf.Base, f.Type())
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Random sends and accepts survive encode/decode byte-for-byte.
	f := func(pid, pc, sock, length uint32, host uint32, port uint16) bool {
		s := &Send{PID: pid, PC: pc, Sock: sock, MsgLength: length, DestNameLen: 16, DestName: InetName(host, port)}
		m := Msg{Header: Header{Machine: 3, CPUTime: pc % 100000, ProcTime: pid % 1000}, Body: s}
		got, _, err := decodeMsg(m.Encode())
		return err == nil && reflect.DeepEqual(got.Body, s) && got.Header == m.Header
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStreamRandomBatchesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bodies := allBodies()
	f := func(picks []uint8) bool {
		var batch []byte
		var want []Type
		for _, p := range picks {
			b := bodies[int(p)%len(bodies)]
			m := Msg{Header: Header{Machine: uint16(rng.Intn(10))}, Body: b}
			batch = m.AppendEncode(batch)
			want = append(want, b.EventType())
		}
		hs, rest, err := DecodeStream(batch)
		if err != nil || len(rest) != 0 || len(hs) != len(want) {
			return false
		}
		for i := range hs {
			if hs[i].TraceType != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	if EvSend.String() != "SEND" || EvTermProc.String() != "TERMPROC" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() != "TYPE(99)" {
		t.Fatalf("unknown type string = %q", Type(99).String())
	}
}
