package controller

import (
	"bytes"
	"fmt"
	"testing"

	"dpm/internal/daemon"
	"dpm/internal/filter"
)

// TestCommandsReleaseLentFrames: a session lends the frame of a reply
// larger than its connection buffer to the caller, whose fields are read
// in place from it, and every command that receives replies gives each
// one back once it is done with it — query, query … agg, stats, status,
// ps and each getlog chunk, broadcast slots included. An unreleased
// reply stays correct, but the next large reply is received into a new
// array. Each case first shows that its request's reply is lent, then
// that the command leaves no frame lent.
func TestCommandsReleaseLentFrames(t *testing.T) {
	c, ctl, _ := newSystem(t)
	red, _ := c.Machine("red")
	for i := 0; i < 64; i++ { // ps and status list them: a 2 KiB reply
		if _, err := red.SpawnDetached(testUID, fmt.Sprintf("long-running-server-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Exec("filter f1 red")
	populateFilterStore(t, c, ctl, "f1", 200)
	// Two getlog chunks, both larger than the connection buffer.
	log := bytes.Repeat([]byte("0123456789abcde\n"), (4<<20+2<<10)/16)
	if err := red.FS().Append(filter.LogPath("f1"), testUID, log); err != nil {
		t.Fatal(err)
	}

	list := (&daemon.ProcReq{Type: daemon.TListReq, UID: testUID}).Wire()
	const spec = "agg count by machine window 1"
	for _, tc := range []struct {
		cmd string
		req *daemon.WireMsg // a request of the command's whose reply is lent
	}{
		{"query f1 q", (&daemon.QueryReq{Dir: filter.StorePath("f1"), UID: testUID}).Wire()},
		{"query f1 a " + spec, (&daemon.AggReq{Dir: filter.StorePath("f1"), Spec: spec, UID: testUID}).Wire()},
		{"query all a " + spec, (&daemon.AggReq{Dir: filter.StorePath("f1"), Spec: spec, UID: testUID}).Wire()},
		{"stats", (&daemon.StatsReq{UID: testUID}).Wire()},
		{"status", list},
		{"ps red", list},
		{"getlog f1 log", (&daemon.ProcReq{Type: daemon.TGetFileReq, UID: testUID, Path: filter.LogPath("f1")}).Wire()},
	} {
		before := daemon.LentFrames()
		rep, err := ctl.exchange("red", tc.req)
		if err != nil || !rep.OK() {
			t.Fatalf("%s: %v %+v", tc.cmd, err, rep)
		}
		if lent := daemon.LentFrames() - before; lent != 1 {
			t.Fatalf("%s: a %d-byte reply lent %d frames, want 1", tc.cmd, len(rep.Data), lent)
		}
		rep.Release()
		ctl.Exec(tc.cmd)
		if lent := daemon.LentFrames() - before; lent != 0 {
			t.Errorf("%s leaves %d frames lent", tc.cmd, lent)
		}
	}
	if got := readDest(t, ctl, "/usr/log"); got != string(log) {
		t.Errorf("getlog copied %d bytes, want the %d of the log", len(got), len(log))
	}
}
