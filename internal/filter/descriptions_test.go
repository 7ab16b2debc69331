package filter

import (
	"strings"
	"testing"

	"dpm/internal/meter"
)

// Extract interprets one encoded meter message into a fresh record, as
// the engine does (Program.ExtractInto): the tests' reference pipeline
// is Extract, Rules.Select and Record.Format.
func (d *Descriptions) Extract(raw []byte) (*Record, error) {
	rec := &Record{}
	if _, err := CompileProgram(d, nil).ExtractInto(rec, raw); err != nil {
		return nil, err
	}
	return rec, nil
}

func stdDesc(t *testing.T) *Descriptions {
	t.Helper()
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseStandardDescriptions(t *testing.T) {
	d := stdDesc(t)
	wantHeader := []string{"size", "machine", "cpuTime", "procTime", "traceType"}
	if len(d.Header) != len(wantHeader) {
		t.Fatalf("header = %v", d.Header)
	}
	for i := range wantHeader {
		if d.Header[i] != wantHeader[i] {
			t.Fatalf("header = %v, want %v", d.Header, wantHeader)
		}
	}
	for typ := meter.EvSend; typ <= meter.EvTermProc; typ++ {
		if _, ok := d.Event(typ); !ok {
			t.Errorf("no description for %v", typ)
		}
	}
}

func TestSendDescriptionMatchesFigure32(t *testing.T) {
	// Figure 3.2's description of the send event, field for field.
	d := stdDesc(t)
	ev, ok := d.Event(meter.EvSend)
	if !ok {
		t.Fatal("no SEND description")
	}
	want := []FieldDesc{
		{"pid", 0, 4, 10},
		{"pc", 4, 4, 10},
		{"sock", 8, 4, 10},
		{"msgLength", 12, 4, 10},
		{"destNameLen", 16, 4, 10},
		{"destName", 20, 16, 16},
	}
	if ev.Name != "SEND" || len(ev.Fields) != len(want) {
		t.Fatalf("SEND description = %+v", ev)
	}
	for i, f := range want {
		if ev.Fields[i] != f {
			t.Errorf("field %d = %+v, want %+v", i, ev.Fields[i], f)
		}
	}
}

// TestExtractAgreesWithMeterDecoder is the protocol cross-check of
// section 3.4: the description file and the kernel's encoders must
// describe the same byte layout. Every event type is encoded by the
// meter package and re-extracted via the descriptions; every scalar
// field must agree.
func TestExtractAgreesWithMeterDecoder(t *testing.T) {
	d := stdDesc(t)
	sn := meter.InetName(228320140, 3000)
	pn := meter.UnixName("/tmp/srv")
	bodies := []meter.Body{
		&meter.Send{PID: 2120, PC: 0x40a0, Sock: 4, MsgLength: 512, DestNameLen: 16, DestName: sn},
		&meter.RecvCall{PID: 2120, PC: 1, Sock: 4},
		&meter.Recv{PID: 2, PC: 3, Sock: 5, MsgLength: 99, SourceNameLen: 16, SourceName: sn},
		&meter.SocketCrt{PID: 9, PC: 8, Sock: 7, Domain: 2, SockType: 1, Protocol: 0},
		&meter.Dup{PID: 1, PC: 2, Sock: 3, NewSock: 4},
		&meter.DestSocket{PID: 5, PC: 6, Sock: 7},
		&meter.Connect{PID: 1, PC: 2, Sock: 3, SockNameLen: 16, PeerNameLen: 16, SockName: sn, PeerName: pn},
		&meter.Accept{PID: 1, PC: 2, Sock: 3, NewSock: 4, SockNameLen: 16, PeerNameLen: 16, SockName: pn, PeerName: sn},
		&meter.Fork{PID: 10, PC: 11, NewPID: 12},
		&meter.TermProc{PID: 13, PC: 14, Status: 0},
	}
	for _, b := range bodies {
		msg := meter.Msg{Header: meter.Header{Machine: 5, CPUTime: 777, ProcTime: 40}, Body: b}
		rec, err := d.Extract(msg.Encode())
		if err != nil {
			t.Fatalf("%v: %v", b.EventType(), err)
		}
		if rec.Type != b.EventType() || rec.Machine != 5 || rec.CPUTime != 777 || rec.ProcTime != 40 {
			t.Fatalf("%v: header mismatch: %+v", b.EventType(), rec)
		}
		truth := b.Fields()
		if len(truth) != len(rec.Fields) {
			t.Fatalf("%v: %d fields extracted, want %d", b.EventType(), len(rec.Fields), len(truth))
		}
		for i, f := range truth {
			got := rec.Fields[i]
			if got.Name != f.Name {
				t.Fatalf("%v field %d: name %q, want %q", b.EventType(), i, got.Name, f.Name)
			}
			if f.IsName {
				if !got.IsName || got.Addr != f.Addr {
					t.Fatalf("%v field %s: name value %v, want %v", b.EventType(), f.Name, got.Addr, f.Addr)
				}
			} else if got.Value != uint64(f.Value) {
				t.Fatalf("%v field %s: %d, want %d", b.EventType(), f.Name, got.Value, f.Value)
			}
		}
	}
}

func TestExtractTruncatedMessage(t *testing.T) {
	d := stdDesc(t)
	msg := meter.Msg{Header: meter.Header{}, Body: &meter.Fork{PID: 1}}
	enc := msg.Encode()
	if _, err := d.Extract(enc[:10]); err == nil {
		t.Fatal("extract of truncated message succeeded")
	}
	// Size claims more body than present.
	enc2 := enc[:meter.HeaderSize]
	if _, err := d.Extract(enc2); err == nil {
		t.Fatal("extract with missing body succeeded")
	}
}

func TestExtractUnknownType(t *testing.T) {
	d := stdDesc(t)
	msg := meter.Msg{Header: meter.Header{}, Body: &meter.Fork{}}
	enc := msg.Encode()
	enc[20] = 200
	if _, err := d.Extract(enc); err == nil {
		t.Fatal("extract of undescribed type succeeded")
	}
}

func TestParseDescriptionsErrors(t *testing.T) {
	cases := map[string]string{
		"no header":       "SEND 1, pid,0,4,10\n",
		"bad type":        "HEADER size\nSEND x, pid,0,4,10\n",
		"bad field tuple": "HEADER size\nSEND 1, pid,0,4\n",
		"bad offset":      "HEADER size\nSEND 1, pid,a,4,10\n",
		"duplicate type":  "HEADER size\nSEND 1, pid,0,4,10\nSND 1, pid,0,4,10\n",
	}
	for name, data := range cases {
		if _, err := ParseDescriptions([]byte(data)); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

func TestRecordFieldLookup(t *testing.T) {
	d := stdDesc(t)
	msg := meter.Msg{Header: meter.Header{Machine: 5, CPUTime: 9}, Body: &meter.Send{PID: 7, Sock: 4, MsgLength: 100}}
	rec, err := d.Extract(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"machine": 5, "cpuTime": 9, "type": 1, "pid": 7, "sock": 4, "msgLength": 100,
	} {
		if v, ok := rec.Field(name); !ok || v != want {
			t.Errorf("Field(%s) = (%d, %v), want %d", name, v, ok, want)
		}
	}
	if _, ok := rec.Field("nonexistent"); ok {
		t.Error("lookup of nonexistent field succeeded")
	}
}

func TestFormatAndDiscard(t *testing.T) {
	d := stdDesc(t)
	dest := meter.InetName(99, 7)
	msg := meter.Msg{Header: meter.Header{Machine: 2, CPUTime: 10, ProcTime: 0},
		Body: &meter.Send{PID: 44, PC: 4, Sock: 3, MsgLength: 5, DestNameLen: 16, DestName: dest}}
	rec, err := d.Extract(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	full := rec.Format(nil)
	if !strings.HasPrefix(full, "SEND machine=2 cpuTime=10 procTime=0 pid=44") {
		t.Fatalf("Format = %q", full)
	}
	if !strings.Contains(full, "destName=inet:99:7") {
		t.Fatalf("Format lacks name rendering: %q", full)
	}
	reduced := rec.Format(map[string]bool{"pid": true, "destName": true})
	if strings.Contains(reduced, "pid=") || strings.Contains(reduced, "destName=") {
		t.Fatalf("discarded fields present: %q", reduced)
	}
	if !strings.Contains(reduced, "msgLength=5") {
		t.Fatalf("undiscarded field missing: %q", reduced)
	}
}
