package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/meter"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestStoreDiscardEndToEnd drives a discard-prefix template through
// the whole stack: the kernel meters a ping-pong job, the filter's
// selection keeps only SEND records with their pid field dropped
// ('#'), the surviving records land in the filter's event store, and
// the controller's query command reads them back out.
func TestStoreDiscardEndToEnd(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	checkConserved(t, sys)
	registerPingPong(t, sys)
	var out bytes.Buffer
	ctl, err := sys.NewController("yellow", &out)
	if err != nil {
		t.Fatal(err)
	}
	yellow, err := sys.Machine("yellow")
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 3.4 template: keep SEND records, discard their pid.
	if err := yellow.FS().Create("/usr/tmpl", sys.UID, fsys.PrivateMode,
		[]byte("type=1, pid=#*\n")); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{
		"filter f1 yellow filter /etc/meter/descriptions /usr/tmpl",
		"newjob pp f1",
		"setflags pp send receive termproc",
		"addprocess pp green ponger",
		"addprocess pp red pinger green",
		"startjob pp",
	} {
		ctl.Exec(cmd)
	}
	if err := WaitJob(ctl, "pp", time.Minute); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}

	// The filter appends to its store in the same batch loop as the
	// flat log; wait for the stored records to show up — both of them,
	// the one send of each side, or the controller's query below can see
	// a record this snapshot was taken too early for.
	be := store.NewFsysBackend(yellow.FS(), sys.UID, filter.StorePath("f1"))
	matchAll, err := query.Compile("")
	if err != nil {
		t.Fatal(err)
	}
	var stored []trace.Event
	deadline := time.Now().Add(10 * time.Second)
	for {
		rd, err := store.OpenReader(be)
		if err == nil {
			if res, qerr := query.Run(rd, matchAll); qerr == nil && res.Stats.Matched >= 2 {
				if stored, err = trace.ParseLog(res.Lines); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no records reached the store\n%s", out.String())
		}
		time.Sleep(time.Millisecond)
	}
	// The selection ran before storage: only SENDs, no pid anywhere.
	for _, e := range stored {
		if e.Type != meter.EvSend {
			t.Fatalf("non-SEND record stored: %v", e.Event)
		}
		if _, ok := e.Fields["pid"]; ok {
			t.Fatalf("pid survived the '#' discard into the store: %v", e.Fields)
		}
	}

	// And the user-facing path: the controller's query command against
	// the live store.
	before := out.String()
	ctl.Exec("query f1 qdump")
	statsLine := strings.TrimPrefix(out.String(), before)
	if !strings.Contains(statsLine, "query 'f1': segments=") {
		t.Fatalf("no stats line: %s", statsLine)
	}
	data, err := yellow.FS().Read("/usr/qdump", sys.UID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ParseLog(data)
	if err != nil {
		t.Fatalf("query output does not parse: %v", err)
	}
	if len(got) != len(stored) {
		t.Fatalf("query returned %d events, store holds %d", len(got), len(stored))
	}
	for _, e := range got {
		if e.Type != meter.EvSend {
			t.Fatalf("query leaked a %v record", e.Event)
		}
		if _, ok := e.Fields["pid"]; ok {
			t.Fatalf("pid came back through query: %v", e.Fields)
		}
	}

	// The filter's counters balance once the job's records are through:
	// every kept record appended (no sink failed here), every appended
	// one stored typed, as the filter handed it over.
	reg := yellow.Obs()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		kept, appends := reg.Counter("filter.kept").Load(), reg.Counter("store.appends").Load()
		typed := reg.Counter("store.records_typed").Load()
		if kept > 0 && kept == appends && typed == appends {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("filter.kept %d, store.appends %d, store.records_typed %d", kept, appends, typed)
		}
	}
	// The daemon's query scanned typed records, and stats finds every
	// conservation law kept.
	before = out.String()
	ctl.Exec("stats")
	report := strings.TrimPrefix(out.String(), before)
	if !strings.Contains(report, "query.records_typed") || strings.Contains(report, "WARNING: conservation") {
		t.Fatalf("stats report:\n%s", report)
	}
}
