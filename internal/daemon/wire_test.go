package daemon

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFigure36TypeCodes(t *testing.T) {
	// Figure 3.6 shows "11: create request" and "18: create reply".
	if TCreateReq != 11 {
		t.Errorf("TCreateReq = %d, want 11", TCreateReq)
	}
	if TCreateRep != 18 {
		t.Errorf("TCreateRep = %d, want 18", TCreateRep)
	}
}

func TestWireRoundTrip(t *testing.T) {
	w := &WireMsg{Type: TCreateReq, Fields: []string{"a", "", "third field with spaces"}}
	got, err := DecodeWire(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("round trip: %+v != %+v", got, w)
	}
}

// TestWireShort: the decoder takes one whole payload, so every prefix
// of a message is corrupt — and so is a message with bytes behind it.
func TestWireShort(t *testing.T) {
	w := &WireMsg{Type: TStartReq, Fields: []string{"123"}}
	enc := w.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeWire(enc[:cut]); !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrWireCorrupt", cut, err)
		}
	}
	if _, err := DecodeWire(append(enc, 0)); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrWireCorrupt", err)
	}
}

func TestWireCorrupt(t *testing.T) {
	w := &WireMsg{Type: TStartReq, Fields: []string{"123"}}
	enc := w.Encode()
	enc[0] = 5 // size below minimum
	enc[1], enc[2], enc[3] = 0, 0, 0
	if _, err := DecodeWire(enc); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("err = %v, want ErrWireCorrupt", err)
	}
	// A size that counts a byte behind the last field.
	enc = append(w.Encode(), 0)
	enc[0]++
	if _, err := DecodeWire(enc); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("byte behind the fields: err = %v, want ErrWireCorrupt", err)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(typ uint8, fields []string) bool {
		w := &WireMsg{Type: MsgType(typ), Fields: fields}
		got, err := DecodeWire(w.Encode())
		if err != nil {
			return false
		}
		if len(fields) == 0 {
			return len(got.Fields) == 0
		}
		return reflect.DeepEqual(got.Fields, fields)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// reader opens m's encoding for the typed readers.
func reader(t *testing.T, m Message) (MsgType, *fieldReader) {
	t.Helper()
	typ, f, err := openWire(m.appendWire(nil), false)
	if err != nil {
		t.Fatal(err)
	}
	return typ, &f
}

func TestCreateReqRoundTrip(t *testing.T) {
	req := &CreateReq{
		Filename:    "/bin/worker",
		Params:      []string{"p1", "p2", "p3"},
		FilterPort:  9000,
		FilterHost:  "blue",
		MeterFlags:  0x2ff,
		ControlPort: 7700,
		ControlHost: "yellow",
		UID:         100,
		StdinFile:   "/tmp/in",
	}
	_, f := reader(t, req)
	got, err := readCreateReq(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestCreateReqNoParams(t *testing.T) {
	_, f := reader(t, &CreateReq{Filename: "/bin/x", UID: 1})
	got, err := readCreateReq(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Filename != "/bin/x" || len(got.Params) != 0 || got.UID != 1 {
		t.Fatalf("got %+v", got)
	}
}

// TestParseCreateReqWrongType: a daemon reads a body as the type its
// type word names, so a create's fields under the start type are a
// start of pid 0, which fails, and create nothing.
func TestParseCreateReqWrongType(t *testing.T) {
	r := newRig(t)
	r.pingOn(r.red)
	create := (&CreateReq{Filename: "/bin/ping", UID: testUID}).Wire()
	rep, err := Exchange(r.ctl, "red", &WireMsg{Type: TStartReq, Fields: create.Fields})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != TStartRep || rep.OK() || pingCount(r.red) != 0 {
		t.Fatalf("a create under the start type: %+v, %d processes", rep, pingCount(r.red))
	}
}

func TestParseCreateReqTruncated(t *testing.T) {
	for _, count := range []string{"5", "9223372036854775807", "99999999999999999999", "-1"} {
		_, f := reader(t, &WireMsg{Type: TCreateReq, Fields: []string{"/bin/x", count, "only-one-param"}})
		if _, err := readCreateReq(f); !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("parameter count %s: %v, want ErrWireCorrupt", count, err)
		}
	}
}

func TestProcReqRoundTrip(t *testing.T) {
	req := &ProcReq{Type: TAcquireReq, PID: 42, UID: 7, Flags: 0x1ff, FilterPort: 900, FilterHost: "blue", Path: "/usr/tmp/f1.log"}
	got := readProcReq(reader(t, req))
	if !reflect.DeepEqual(&got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestQueryReqRoundTrip(t *testing.T) {
	req := &QueryReq{Dir: "/usr/tmp/f1.store", Rules: "machine=2,cpuTime>=100\n", UID: 7, NoPrune: true}
	_, f := reader(t, req)
	if got := readQueryReq(f); !reflect.DeepEqual(&got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
	// A peer of another version may send a trailing field this one does
	// not know (older ones sent a worker count); it must be ignored.
	extra := req.Wire()
	extra.Fields = append(extra.Fields, "8")
	_, f = reader(t, extra)
	if got := readQueryReq(f); !reflect.DeepEqual(&got, req) {
		t.Fatalf("extra trailing field:\n got %+v\nwant %+v", got, req)
	}
}

func TestAggReqRoundTrip(t *testing.T) {
	req := &AggReq{
		Dir: "/usr/tmp/f1.store", Rules: "machine=2,cpuTime>=100\n",
		Spec: "agg sum(msgLength) by machine window 1s",
		UID:  7, NoPrune: true,
	}
	_, f := reader(t, req)
	if got := readAggReq(f); !reflect.DeepEqual(&got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
	// An unknown trailing field is ignored — the QueryReq discipline.
	extra := req.Wire()
	extra.Fields = append(extra.Fields, "8")
	_, f = reader(t, extra)
	if got := readAggReq(f); !reflect.DeepEqual(&got, req) {
		t.Fatalf("extra trailing field:\n got %+v\nwant %+v", got, req)
	}
}

// TestStatsReqRoundTrip: a stats request carries the requester's uid,
// and a daemon answers one whatever its body holds: trailing fields
// from a newer peer, in the QueryReq discipline, and a malformed uid.
func TestStatsReqRoundTrip(t *testing.T) {
	if got := (&StatsReq{UID: 42}).Wire(); got.Type != TStatsReq || !reflect.DeepEqual(got.Fields, []string{"42"}) {
		t.Fatalf("stats request: %+v", got)
	}
	r := newRig(t)
	rep, err := Exchange(r.ctl, "red", &WireMsg{Type: TStatsReq, Fields: []string{"bogus", "some-future-field"}})
	if err != nil || !rep.OK() || len(rep.Data) == 0 {
		t.Fatalf("stats with a malformed uid and a trailing field: %v %+v", err, rep)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rep := &Reply{Type: TGetFileRep, PID: 9, Status: "ok", Data: "file contents\nline 2"}
	got, err := readReply(rep.appendWire(nil), true)
	if err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip: %+v != %+v (%v)", got, rep, err)
	}
	if !rep.OK() {
		t.Fatal("OK() = false for ok reply")
	}
	if (&Reply{Status: "nope"}).OK() {
		t.Fatal("OK() = true for failed reply")
	}
}

func TestStateChangeRoundTrip(t *testing.T) {
	sc := &StateChange{Machine: "red", PID: 2120, Reason: "normal", Status: 0}
	_, f := reader(t, sc)
	if got := readStateChange(f); !reflect.DeepEqual(&got, sc) {
		t.Fatalf("round trip: %+v != %+v", got, sc)
	}
}

func TestIODataRoundTrip(t *testing.T) {
	d := &IOData{Machine: "green", PID: 5, Data: "output line\n"}
	_, f := reader(t, d)
	if got := readIOData(f); !reflect.DeepEqual(&got, d) {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if TCreateReq.String() != "create request" || TCreateRep.String() != "create reply" {
		t.Fatal("figure 3.6 names wrong")
	}
	if MsgType(99).String() != "type(99)" {
		t.Fatalf("unknown = %q", MsgType(99).String())
	}
}
