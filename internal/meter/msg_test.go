package meter

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
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

func TestRoundTripAllTypes(t *testing.T) {
	for _, body := range allBodies() {
		m := Msg{Header: header(), Body: body}
		enc := m.Encode()
		got, n, err := Decode(enc)
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
	msgs, rest, err := DecodeStream(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("undcoded tail of %d bytes", len(rest))
	}
	if len(msgs) != len(bodies) {
		t.Fatalf("decoded %d messages, want %d", len(msgs), len(bodies))
	}
	for i := range msgs {
		if msgs[i].Body.EventType() != bodies[i].EventType() {
			t.Fatalf("message %d type = %v, want %v", i, msgs[i].Body.EventType(), bodies[i].EventType())
		}
	}
}

func TestDecodeStreamPartialTail(t *testing.T) {
	m := Msg{Header: header(), Body: &Send{PID: 1}}
	enc := m.Encode()
	double := append(append([]byte{}, enc...), enc[:10]...)
	msgs, rest, err := DecodeStream(double)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || len(rest) != 10 {
		t.Fatalf("msgs=%d rest=%d, want 1 and 10", len(msgs), len(rest))
	}
}

func TestFieldsEnumeration(t *testing.T) {
	for _, b := range allBodies() {
		fields := b.Fields()
		if len(fields) == 0 {
			t.Fatalf("%v: no fields", b.EventType())
		}
		if fields[0].Name != "pid" || fields[1].Name != "pc" {
			t.Fatalf("%v: every body starts with pid, pc; got %v, %v", b.EventType(), fields[0].Name, fields[1].Name)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Random sends and accepts survive encode/decode byte-for-byte.
	f := func(pid, pc, sock, length uint32, host uint32, port uint16) bool {
		s := &Send{PID: pid, PC: pc, Sock: sock, MsgLength: length, DestNameLen: 16, DestName: InetName(host, port)}
		m := Msg{Header: Header{Machine: 3, CPUTime: pc % 100000, ProcTime: pid % 1000}, Body: s}
		got, _, err := Decode(m.Encode())
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
		msgs, rest, err := DecodeStream(batch)
		if err != nil || len(rest) != 0 || len(msgs) != len(want) {
			return false
		}
		for i := range msgs {
			if msgs[i].Body.EventType() != want[i] {
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
