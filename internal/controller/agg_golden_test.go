package controller

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

var updateAggGolden = flag.Bool("update-agg-golden", false, "rewrite testdata/agg.golden from this build's answers")

const aggGoldenFile = "testdata/agg.golden"

// populateAggStore writes n records of a SEND and RECEIVE stream into a
// filter's store, each with a message length, over four machines and
// five pids, cpuTime step ms apart, and flushes it.
func populateAggStore(t *testing.T, st *store.Store, n, step int) {
	t.Helper()
	for i := 0; i < n; i++ {
		typ := meter.EvSend
		if i%2 == 1 {
			typ = meter.EvRecv
		}
		e := trace.Event{
			Type: typ, Event: typ.String(), Machine: i%4 + 1, CPUTime: int64(i * step),
			Fields: map[string]uint64{"pid": uint64(200 + i%5), "sock": 3, "msgLength": uint64(i * 37 % 1500)},
			Names:  map[string]meter.Name{},
		}
		m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: uint32(typ), PID: uint32(e.Fields["pid"])}
		if err := st.AppendBatch([]store.BatchRec{{Meta: m, Line: []byte(e.Format()), Slots: slotsOf(&e)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryAggGolden pins every byte of what `query all ... agg` prints
// and of the result file it writes, over three filters' stores, for
// each operator shape: a windowed count, a top-k, a percentile, a rate
// without a window, a two-field group, an empty answer, one filter's
// store past the group cap, and the merge with one filter's machine
// down. testdata/agg.golden was written before the aggregate was merged
// and rendered from the replies' tables and is regenerated only by a
// change that means to alter the answer:
//
//	go test ./internal/controller/ -run TestQueryAggGolden -update-agg-golden
func TestQueryAggGolden(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)
	ctl.SetSessionConfig(fastSessionCfg)
	ctl.Exec("filter f1 red")
	ctl.Exec("filter f2 green")
	ctl.Exec("filter f3 blue")
	populateAggStore(t, openFilterStore(t, c, ctl, "f1"), 60, 100)
	populateAggStore(t, openFilterStore(t, c, ctl, "f2"), 90, 30)
	populateAggStore(t, openFilterStore(t, c, ctl, "f3"), 4200, 7) // 4200 cpuTimes: past the 4096-group cap
	ctl.Exec("status")
	var got bytes.Buffer
	run := func(name, args string) {
		before := len(out.String())
		ctl.Exec("query all " + name + " " + args)
		fmt.Fprintf(&got, "=== %s\n%s--- /usr/%s\n%s", args, out.String()[before:], name, readDest(t, ctl, "/usr/"+name))
	}
	run("window", "agg count by machine window 1s")
	run("top", "top 10 pid by sum(msgLength)")
	run("p95", "agg p95(msgLength)")
	run("rate", "agg rate")
	run("twofield", "agg sum(msgLength) by machine,pid")
	run("empty", "machine=99 agg count by machine")
	run("capped", "top 3 cpuTime by count")
	if err := c.CrashMachine("red"); err != nil {
		t.Fatal(err)
	}
	run("degraded", "agg max(msgLength) by machine")
	if *updateAggGolden {
		if err := os.WriteFile(aggGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(aggGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("aggregate answers differ from %s:\n%s", aggGoldenFile, got.String())
	}
}
