package daemon

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire.golden from this build's frames")

const wireGoldenFile = "testdata/wire.golden"

// wireCase is one message the golden pins: the frame it travels in,
// and the message, which encodes itself.
type wireCase struct {
	name string
	kind uint32
	id   uint64
	msg  interface{ Wire() *WireMsg }
}

// wireCases are the golden's messages: every request, reply and notice
// shape the controller and the daemons exchange, with the trailing and
// optional fields both set and left out.
func wireCases() []wireCase {
	cs := []wireCase{
		{"create", FrameReq, 1, &CreateReq{
			Filename: "/bin/worker", Params: []string{"p1", "", "third param"},
			FilterPort: 9000, FilterHost: "blue", MeterFlags: 0x2ff,
			ControlPort: 7700, ControlHost: "yellow", UID: 100,
			StdinFile: "/usr/tmp/in", Token: "yellow:7700:42",
		}},
		{"create-bare", FrameReq, 2, &CreateReq{Filename: "/bin/x", UID: 1}},
	}
	for i, t := range []MsgType{TSetFlagsReq, TStartReq, TStopReq, TKillReq, TAcquireReq, TGetFileReq, TReleaseReq, TListReq, TStdinReq} {
		cs = append(cs, wireCase{"proc-" + strings.TrimSuffix(t.String(), " request"), FrameReq, uint64(10 + i), &ProcReq{
			Type: t, PID: 2120 + i, UID: 7, Flags: 0x1ff, FilterPort: 900,
			FilterHost: "green", Path: "/usr/tmp/f1.log", Offset: 1 << 20 * i,
		}})
	}
	return append(cs,
		wireCase{"proc-zero", FrameReq, 30, &ProcReq{Type: TListReq}},
		wireCase{"proc-negative", FrameReq, 31, &ProcReq{Type: TStartReq, PID: -4, UID: -1, Offset: -9}},
		wireCase{"query", FrameReq, 40, &QueryReq{Dir: "/usr/tmp/f1.store", Rules: "machine=2,cpuTime>=100\n", UID: 7, NoPrune: true}},
		wireCase{"query-all", FrameReq, 41, &QueryReq{Dir: "/usr/tmp/f1.store"}},
		wireCase{"agg", FrameReq, 42, &AggReq{Dir: "/usr/tmp/f1.store", Rules: "type=send\n", Spec: "agg sum(msgLength) by machine window 1s", UID: 7, NoPrune: true}},
		wireCase{"agg-bare", FrameReq, 43, &AggReq{Spec: "top 2 machine by count"}},
		wireCase{"stats", FrameReq, 44, &StatsReq{UID: 100}},
		wireCase{"reply-ok", FrameRep, 10, &Reply{Type: TSetFlagsRep, PID: 2120, Status: "ok"}},
		wireCase{"reply-error", FrameRep, 11, &Reply{Type: TStartRep, PID: -1, Status: "no such process"}},
		wireCase{"reply-data", FrameRep, 12, &Reply{Type: TListRep, Status: "ok", Data: "1 0 init\n2120 7 worker\n"}},
		wireCase{"reply-data-aux", FrameRep, 13, &Reply{Type: TGetFileRep, PID: 1 << 22, Status: "ok", Data: "0123456789abcde\n", Aux: "3735928559"}},
		wireCase{"reply-aux", FrameRep, 14, &Reply{Type: TAggRep, Status: "ok", Aux: "segments=1 scanned=1 pruned=0 records=0 matched=0"}},
		wireCase{"reply-empty", FrameRep, 1 << 40, &Reply{Type: TCreateRep}},
		wireCase{"state-change", FrameReq, 0, &StateChange{Machine: "red", PID: 2120, Reason: "normal", Status: 0}},
		wireCase{"state-change-killed", FrameReq, 0, &StateChange{Machine: "green", PID: 9, Reason: "signal", Status: -9}},
		wireCase{"io-data", FrameReq, 0, &IOData{Machine: "green", PID: 5, Data: "output line\n"}},
	)
}

// TestWireGolden pins the bytes of every control message, framed as it
// travels, against testdata/wire.golden: one line per message, its name
// and the frame in hex. A change to how messages are written or read
// must leave them as they are.
func TestWireGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range wireCases() {
		fmt.Fprintf(&b, "%s %s\n", c.name, hex.EncodeToString(AppendFrame(nil, c.kind, c.id, c.msg.Wire().Encode())))
	}
	if *updateWireGolden {
		if err := os.WriteFile(wireGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			t.Errorf("line %d:\n got %.120s\nwant %.120s", i+1, at(got, i), line)
		}
	}
	if n := strings.Count(string(want), "\n"); len(got)-1 != n {
		t.Errorf("%d messages framed, the golden holds %d", len(got)-1, n)
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
