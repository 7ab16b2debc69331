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
	enc := w.Encode()
	got, n, err := DecodeWire(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("round trip: %+v != %+v", got, w)
	}
}

func TestWireShort(t *testing.T) {
	w := &WireMsg{Type: TStartReq, Fields: []string{"123"}}
	enc := w.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeWire(enc[:cut]); !errors.Is(err, ErrWireShort) {
			t.Fatalf("cut %d: err = %v, want ErrWireShort", cut, err)
		}
	}
}

func TestWireCorrupt(t *testing.T) {
	w := &WireMsg{Type: TStartReq, Fields: []string{"123"}}
	enc := w.Encode()
	enc[0] = 5 // size below minimum
	enc[1], enc[2], enc[3] = 0, 0, 0
	if _, _, err := DecodeWire(enc); !errors.Is(err, ErrWireCorrupt) {
		t.Fatalf("err = %v, want ErrWireCorrupt", err)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(typ uint8, fields []string) bool {
		w := &WireMsg{Type: MsgType(typ), Fields: fields}
		got, n, err := DecodeWire(w.Encode())
		if err != nil || n != len(w.Encode()) {
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
	got, err := ParseCreateReq(req.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestCreateReqNoParams(t *testing.T) {
	req := &CreateReq{Filename: "/bin/x", UID: 1}
	got, err := ParseCreateReq(req.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if got.Filename != "/bin/x" || len(got.Params) != 0 || got.UID != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestParseCreateReqWrongType(t *testing.T) {
	if _, err := ParseCreateReq(&WireMsg{Type: TStartReq}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestParseCreateReqTruncated(t *testing.T) {
	w := &WireMsg{Type: TCreateReq, Fields: []string{"/bin/x", "5", "only-one-param"}}
	if _, err := ParseCreateReq(w); err == nil {
		t.Fatal("truncated parameter list accepted")
	}
}

func TestProcReqRoundTrip(t *testing.T) {
	req := &ProcReq{Type: TAcquireReq, PID: 42, UID: 7, Flags: 0x1ff, FilterPort: 900, FilterHost: "blue", Path: "/usr/tmp/f1.log"}
	got := ParseProcReq(req.Wire())
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
}

func TestQueryReqRoundTrip(t *testing.T) {
	req := &QueryReq{Dir: "/usr/tmp/f1.store", Rules: "machine=2,cpuTime>=100\n", UID: 7, NoPrune: true}
	got, err := ParseQueryReq(req.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
	// A peer of another version may send a trailing field this one does
	// not know (older ones sent a worker count); it must be ignored.
	extra := req.Wire()
	extra.Fields = append(extra.Fields, "8")
	decoded, _, err := DecodeWire(extra.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err = ParseQueryReq(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("extra trailing field:\n got %+v\nwant %+v", got, req)
	}
}

func TestAggReqRoundTrip(t *testing.T) {
	req := &AggReq{
		Dir: "/usr/tmp/f1.store", Rules: "machine=2,cpuTime>=100\n",
		Spec: "agg sum(msgLength) by machine window 1s",
		UID:  7, NoPrune: true,
	}
	got, err := ParseAggReq(req.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
	// An unknown trailing field is ignored — the QueryReq discipline.
	extra := req.Wire()
	extra.Fields = append(extra.Fields, "8")
	decoded, _, err := DecodeWire(extra.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, err = ParseAggReq(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("extra trailing field:\n got %+v\nwant %+v", got, req)
	}
	if _, err := ParseAggReq(&WireMsg{Type: TQueryReq}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestStatsReqRoundTrip(t *testing.T) {
	req := &StatsReq{UID: 42}
	got, err := ParseStatsReq(req.Wire())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}
	// A request from a newer peer may carry trailing fields this version
	// does not know; they must be ignored, not rejected — the same
	// discipline QueryReq and AggReq follow.
	future := req.Wire()
	future.Fields = append(future.Fields, "some-future-field")
	got, err = ParseStatsReq(future)
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != 42 {
		t.Fatalf("future parse: %+v", got)
	}
	// The wrong message type is rejected; a malformed numeric field
	// degrades to zero, the same lenient convention every other parser
	// in this file follows.
	if _, err := ParseStatsReq(&WireMsg{Type: TListReq, Fields: []string{"1"}}); err == nil {
		t.Fatal("wrong type accepted")
	}
	got, err = ParseStatsReq(&WireMsg{Type: TStatsReq, Fields: []string{"bogus"}})
	if err != nil || got.UID != 0 {
		t.Fatalf("malformed uid: got %+v, err %v", got, err)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rep := &Reply{Type: TGetFileRep, PID: 9, Status: "ok", Data: "file contents\nline 2"}
	got := ParseReply(rep.Wire())
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip: %+v != %+v", got, rep)
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
	got := ParseStateChange(sc.Wire())
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("round trip: %+v != %+v", got, sc)
	}
}

func TestIODataRoundTrip(t *testing.T) {
	d := &IOData{Machine: "green", PID: 5, Data: "output line\n"}
	got := ParseIOData(d.Wire())
	if !reflect.DeepEqual(got, d) {
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
