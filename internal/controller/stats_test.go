package controller

import (
	"runtime"
	"strings"
	"testing"

	"dpm/internal/analysis/live"
	"dpm/internal/filter"
	"dpm/internal/meter"
)

// TestStatsCommand: the stats command polls every machine's
// meterdaemon over the wire, merges the snapshots, and renders the
// aggregate report with counters and histogram quantiles.
func TestStatsCommand(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)

	// A status probe first, so every machine has served at least one
	// list request and the merged report has a known nonzero counter.
	ctl.Exec("status")
	ctl.Exec("stats")
	text := out.String()
	if !strings.Contains(text, "stats: 4/4 machines reporting") {
		t.Fatalf("stats header:\n%s", text)
	}
	for _, want := range []string{
		"daemon.req.list",  // counted by the probed daemons
		"daemon.req.stats", // counted by serving this very command
		"daemon.rtt.list",  // controller-side round-trip histogram
		"p50", "p95", "p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stats report lacks %q:\n%s", want, text)
		}
	}

	// Narrowed to one machine the report is that machine's alone.
	ctl.Exec("stats red")
	if !strings.Contains(out.String(), "stats: 1/1 machines reporting (red)") {
		t.Errorf("single-machine stats:\n%s", out.String())
	}

	// An unknown target is an error, not a hang.
	ctl.Exec("stats nosuch")
	if !strings.Contains(out.String(), "stats: no machine or job named 'nosuch'") {
		t.Errorf("bad target:\n%s", out.String())
	}
}

// TestStatsJobTarget: a job name narrows the poll to the machines the
// job's processes and its filter run on.
func TestStatsJobTarget(t *testing.T) {
	_, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)
	ctl.Exec("filter f1 blue")
	ctl.Exec("newjob foo")
	ctl.Exec("addprocess foo red B")

	ctl.Exec("stats foo")
	text := out.String()
	if !strings.Contains(text, "stats: 2/2 machines reporting (red blue)") {
		t.Fatalf("job-scoped stats:\n%s", text)
	}
}

// TestStatsUnderPartition: a machine cut off mid-poll degrades the
// report — it is listed as missing, the survivors still merge — and
// the command returns within the retry policy instead of hanging.
func TestStatsUnderPartition(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)

	cutFrom(t, c, ctl, "green")
	ctl.Exec("stats")
	text := out.String()
	if !strings.Contains(text, "stats: 3/4 machines reporting") {
		t.Fatalf("degraded header:\n%s", text)
	}
	if !strings.Contains(text, "stats: degraded, missing green") {
		t.Fatalf("missing list:\n%s", text)
	}
	if !strings.Contains(text, "daemon.req.stats") {
		t.Errorf("degraded report still renders survivors:\n%s", text)
	}
}

// TestStatsRoundTripNoAllocBeyondCopies gates what one `stats` of a
// machine whose filter has seen live.Config's default MaxProcs of
// processes allocates, end to end, in units of the snapshot's wire size
// (~1.5 MB). The copies that remain, one wire size each: the daemon
// encodes the two big sections, marshals the snapshot and makes it the
// reply's Data string; the reply is framed once into the sender's
// socket buffer; the session receives the frame and decodes Data out of
// it (those three are TestSessionCallNoAllocBeyondReply's, in
// internal/daemon); the controller turns Data into bytes it owns and
// parses the sections in place. Rendering adds the decoded parallelism
// intervals and their sweep, about 0.6. That is 8.6, gated at 10 — of
// which the transport's 4 are not this path's to remove while
// Reply.Data is a string, and the rest is the "at most 6 for capture,
// marshal, parse and render" of docs/perf.md. Before the stats path was
// made linear the same command allocated over 16: buffers grown by
// reallocation, the message encoded and then framed, the sections
// copied out of a copy, every process row decoded to be counted.
func TestStatsRoundTripNoAllocBeyondCopies(t *testing.T) {
	c, ctl, _ := newSystem(t)
	red, _ := c.Machine("red")
	coll := live.NewCollector(live.Config{Obs: red.Obs()})
	defer coll.Close()
	const procs = 16384
	tap := coll.NewTap()
	info := &filter.TapInfo{Type: meter.EvTermProc, PIDIdx: 0, SockIdx: -1, LenIdx: -1, AuxIdx: -1, Name1Idx: -1, Name2Idx: -1}
	rec := &filter.Record{Fields: make([]filter.RecordField, 1)}
	for i := 0; i < procs; i++ {
		rec.Machine, rec.CPUTime, rec.ProcTime = uint16(i%6), uint32(100+(i*7919)%5000), uint32(i%90)
		rec.Fields[0].Value = uint64(1 + (i*7919)%procs)
		tap.TapRecord(info, rec)
	}
	tap.TapFlush()

	ctl.Exec("stats red") // the session comes up; the collector's cells are put in order
	replyBytes := red.Obs().Counter("daemon.stats_reply_bytes")
	const calls = 4
	var before, after runtime.MemStats
	sent := replyBytes.Load()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ctl.Exec("stats red")
	}
	runtime.ReadMemStats(&after)
	wire := float64(replyBytes.Load()-sent) / calls
	if wire < procs*(62+31) {
		t.Fatalf("a stats reply carries %.0f bytes, too few for %d processes", wire, procs)
	}
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.2f wire sizes (of %.0f bytes) allocated per stats", perCall/wire, wire)
	if perCall > 10*wire {
		t.Errorf("one stats allocates %.2f times its %.0f-byte snapshot, want at most 10", perCall/wire, wire)
	}
}
