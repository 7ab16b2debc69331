package filter

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

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

// figure32 is the descriptions file as it shipped before it was rendered
// from meter's layout table: Figure 3.2's format, every Appendix A body.
const figure32 = `HEADER size machine cpuTime procTime traceType
SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
RECEIVECALL 2, pid,0,4,10 pc,4,4,10 sock,8,4,10
RECEIVE 3, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 sourceNameLen,16,4,10 sourceName,20,16,16
SOCKET 4, pid,0,4,10 pc,4,4,10 sock,8,4,10 domain,12,4,10 type,16,4,10 protocol,20,4,10
DUP 5, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10
DESTSOCKET 6, pid,0,4,10 pc,4,4,10 sock,8,4,10
CONNECT 7, pid,0,4,10 pc,4,4,10 sock,8,4,10 sockNameLen,12,4,10 peerNameLen,16,4,10 sockName,20,16,16 peerName,36,16,16
ACCEPT 8, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10 sockNameLen,16,4,10 peerNameLen,20,4,10 sockName,24,16,16 peerName,40,16,16
FORK 9, pid,0,4,10 pc,4,4,10 newPid,8,4,10
TERMPROC 10, pid,0,4,10 pc,4,4,10 status,8,4,10
`

// TestStandardDescriptionsText holds the rendered descriptions file
// byte for byte to the text it replaced: no Appendix A byte moves.
func TestStandardDescriptionsText(t *testing.T) {
	if StandardDescriptions != figure32 {
		t.Fatalf("StandardDescriptions =\n%s\nwant\n%s", StandardDescriptions, figure32)
	}
}

// TestFormatsDocAgrees holds docs/formats.md to the layout table: its
// event table lists each type's fields in table order, "(16)" marking
// the socket names, and its descriptions block is StandardDescriptions.
func TestFormatsDocAgrees(t *testing.T) {
	doc, err := os.ReadFile("../../docs/formats.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^\| (\d+) \| ([A-Z]+) \| (.*) \|$`).FindAllStringSubmatch(string(doc), -1)
	if len(rows) != len(meter.Layouts()) {
		t.Fatalf("docs/formats.md lists %d event types, the table %d", len(rows), len(meter.Layouts()))
	}
	for i, lay := range meter.Layouts() {
		var want []string
		for _, f := range lay.Fields {
			if want = append(want, f.Name); f.IsName() {
				want[len(want)-1] += "(16)"
			}
		}
		fields := strings.TrimSpace(regexp.MustCompile(`\*\(.*\)\*`).ReplaceAllString(rows[i][3], ""))
		if got := fmt.Sprintf("%s %s %s", rows[i][1], rows[i][2], fields); got != fmt.Sprintf("%d %s %s", lay.Type, lay.Name, strings.Join(want, ", ")) {
			t.Errorf("docs/formats.md row %q, table %d %s %s", got, lay.Type, lay.Name, strings.Join(want, ", "))
		}
	}
	block := regexp.MustCompile("(?s)\n```\n(HEADER .*?)```\n").FindStringSubmatch(string(doc))
	if block == nil || block[1] != StandardDescriptions {
		t.Errorf("docs/formats.md's descriptions block is not StandardDescriptions:\n%v", block)
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
// describe the same byte layout. Every event type, with a distinct
// value in each field, is encoded by the meter package and decoded
// through the descriptions, by Extract and by the compiled program;
// field i of the description must hold struct field i of the body,
// walked in declaration order.
func TestExtractAgreesWithMeterDecoder(t *testing.T) {
	d := stdDesc(t)
	prog, err := CompileProgram(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []meter.Body{&meter.Send{}, &meter.RecvCall{}, &meter.Recv{}, &meter.SocketCrt{}, &meter.Dup{},
		&meter.DestSocket{}, &meter.Connect{}, &meter.Accept{}, &meter.Fork{}, &meter.TermProc{}}
	for _, b := range bodies {
		v := reflect.ValueOf(b).Elem()
		for i := range v.NumField() {
			seed := 1000*uint32(b.EventType()) + uint32(i)
			if f := v.Field(i); f.Type() == reflect.TypeOf(meter.Name{}) {
				f.Set(reflect.ValueOf(meter.InetName(seed, uint16(seed))))
			} else {
				f.SetUint(uint64(seed))
			}
		}
		raw := (&meter.Msg{Header: meter.Header{Machine: 5, CPUTime: 777, ProcTime: 40}, Body: b}).Encode()
		rec, err := d.Extract(raw)
		if err != nil {
			t.Fatalf("%v: %v", b.EventType(), err)
		}
		if rec.Type != b.EventType() || rec.Machine != 5 || rec.CPUTime != 777 || rec.ProcTime != 40 {
			t.Fatalf("%v: header mismatch: %+v", b.EventType(), rec)
		}
		var h meter.Header
		var s trace.Slots
		if _, err := prog.decode(raw, &h, &s); err != nil {
			t.Fatalf("%v: %v", b.EventType(), err)
		}
		if len(rec.Fields) != v.NumField() {
			t.Fatalf("%v: %d fields extracted, struct has %d", b.EventType(), len(rec.Fields), v.NumField())
		}
		for i, got := range rec.Fields {
			switch want := v.Field(i).Interface().(type) {
			case meter.Name:
				if !got.IsName || got.Addr != want || s.Name(i) != want {
					t.Errorf("%v field %s: name %v, decoded %v, want %v", b.EventType(), got.Name, got.Addr, s.Name(i), want)
				}
			case uint32:
				if dec, _ := s.Field(b.EventType(), i); got.Value != uint64(want) || dec != uint64(want) {
					t.Errorf("%v field %s: %d, decoded %d, want %d", b.EventType(), got.Name, got.Value, dec, want)
				}
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
