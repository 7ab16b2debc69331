package controller

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// logState returns the incremental-getlog bookkeeping for a filter.
func logState(t *testing.T, ctl *Controller, name string) *FilterInfo {
	t.Helper()
	for _, f := range ctl.Filters() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no filter %q", name)
	return nil
}

func readDest(t *testing.T, ctl *Controller, path string) string {
	t.Helper()
	data, err := ctl.machine.FS().Read(path, testUID)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data)
}

func TestGetLogIncremental(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	if !strings.Contains(out.String(), "created") {
		t.Fatalf("filter not created: %s", out.String())
	}
	blue, err := c.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	log := filter.LogPath("f1")

	// First fetch: a full copy, and the offset starts tracking.
	if err := blue.FS().Append(log, testUID, []byte("line one\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "line one\n" {
		t.Fatalf("first getlog content %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len("line one\n") {
		t.Fatalf("LogOffset after first getlog = %d", f.LogOffset)
	}

	// Second fetch must transfer only the delta. Plant a marker in the
	// destination: an incremental fetch appends after it, a full copy
	// would wipe it.
	if err := ctl.machine.FS().Remove("/usr/out", testUID); err != nil {
		t.Fatal(err)
	}
	if err := ctl.machine.FS().Create("/usr/out", testUID, fsys.PrivateMode, []byte("MARKER")); err != nil {
		t.Fatal(err)
	}
	if err := blue.FS().Append(log, testUID, []byte("line two\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "MARKERline two\n" {
		t.Fatalf("incremental getlog did not splice: %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len("line one\nline two\n") {
		t.Fatalf("LogOffset after second getlog = %d", f.LogOffset)
	}

	// An unchanged log transfers nothing and disturbs nothing.
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "MARKERline two\n" {
		t.Fatalf("no-op getlog rewrote the destination: %q", got)
	}

	// A same-length in-place rewrite (the counting filter does this
	// every batch) must be detected by the prefix CRC and refetched
	// whole, not spliced.
	rewritten := "LINE ONE\nLINE TWO\n" // same length as the old content
	if err := blue.FS().Remove(log, testUID); err != nil {
		t.Fatal(err)
	}
	if err := blue.FS().Append(log, testUID, []byte(rewritten)); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != rewritten {
		t.Fatalf("same-length rewrite not detected: %q", got)
	}

	// A shrunken log also falls back to a full copy.
	if err := blue.FS().Remove(log, testUID); err != nil {
		t.Fatal(err)
	}
	if err := blue.FS().Append(log, testUID, []byte("short\n")); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("getlog f1 out")
	if got := readDest(t, ctl, "/usr/out"); got != "short\n" {
		t.Fatalf("shrink not detected: %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogOffset != len("short\n") {
		t.Fatalf("LogOffset after shrink = %d", f.LogOffset)
	}

	// A different destination restarts from the top: the remembered
	// offset describes the old file, not this one.
	ctl.Exec("getlog f1 elsewhere")
	if got := readDest(t, ctl, "/usr/elsewhere"); got != "short\n" {
		t.Fatalf("new destination got %q", got)
	}
	if f := logState(t, ctl, "f1"); f.LogDest != "/usr/elsewhere" {
		t.Fatalf("LogDest = %q", f.LogDest)
	}
}

// TestGetLogBeyondWireBound: a getlog is a sequence of bounded
// exchanges, so neither a first fetch nor an increment is limited by
// what one wire message may carry (16 MiB). A 44 MiB log comes over
// from offset 0, 23 MiB more come over incrementally, the copy matches
// the source byte for byte both times, and nothing about it looks like
// a failing machine. When the whole remainder travelled in one reply,
// the daemon's reply was over the bound, the controller called it
// corrupt, retried until exhausted and declared the machine unreachable.
func TestGetLogBeyondWireBound(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	blue, err := c.Machine("blue")
	if err != nil {
		t.Fatal(err)
	}
	log := filter.LogPath("f1")
	rng := rand.New(rand.NewSource(16))
	grow := func(n int) {
		t.Helper()
		chunk := make([]byte, 1<<20+4321) // appended in pieces that straddle extents
		for n > 0 {
			rng.Read(chunk)
			k := min(n, len(chunk))
			if err := blue.FS().Append(log, testUID, chunk[:k]); err != nil {
				t.Fatal(err)
			}
			n -= k
		}
	}
	fetchAndCompare := func(what string) {
		t.Helper()
		ctl.Exec("getlog f1 big")
		src, err := blue.FS().Read(log, testUID)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := ctl.machine.FS().Read("/usr/big", testUID)
		if err != nil {
			t.Fatalf("%s: %v\n%s", what, err, out.String())
		}
		if !bytes.Equal(src, dst) {
			t.Fatalf("%s: destination holds %d bytes, source %d, or they differ\n%s", what, len(dst), len(src), out.String())
		}
		if f := logState(t, ctl, "f1"); f.LogOffset != len(src) || f.LogCRC != crc32.ChecksumIEEE(src) {
			t.Fatalf("%s: resume state offset %d crc %08x, want %d %08x", what, f.LogOffset, f.LogCRC, len(src), crc32.ChecksumIEEE(src))
		}
	}
	grow(44 << 20)
	fetchAndCompare("first fetch of 44 MiB")
	// The destination's identity shows the second fetch appended to it
	// rather than starting over.
	before, err := ctl.machine.FS().Open("/usr/big", testUID)
	if err != nil {
		t.Fatal(err)
	}
	grow(23 << 20)
	fetchAndCompare("increment of 23 MiB")
	after, err := ctl.machine.FS().Open("/usr/big", testUID)
	if err != nil {
		t.Fatal(err)
	}
	if after.ID() != before.ID() {
		t.Fatal("the incremental fetch replaced the destination instead of appending to it")
	}
	if s := out.String(); strings.Contains(s, "getlog:") || strings.Contains(s, "unreachable") {
		t.Fatalf("getlog complained:\n%s", s)
	}
	ctl.Exec("status")
	if s := out.String(); strings.Contains(s, "lost") || strings.Contains(s, "unreachable") {
		t.Fatalf("a machine was given up on:\n%s", s)
	}
}

// storeEvent writes one synthetic event into a store with consistent
// frame metadata.
func storeEvent(t *testing.T, st *store.Store, machine int, cpuTime int64, typ meter.Type, pid uint64) {
	t.Helper()
	e := trace.Event{
		Type: typ, Event: typ.String(), Machine: machine, CPUTime: cpuTime,
		Fields: map[string]uint64{"pid": pid, "sock": 3},
		Names:  map[string]meter.Name{},
	}
	m := store.Meta{Machine: uint16(machine), Time: uint32(cpuTime), Type: uint32(typ), PID: uint32(pid)}
	if err := st.AppendBatch([]store.BatchRec{{Meta: m, Line: []byte(e.Format())}}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCommand(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	// Populate the filter's store directly — the daemon-side query path
	// is what's under test, not the filter's meter loop.
	st := openFilterStore(t, c, ctl, "f1")
	for i := 0; i < 30; i++ {
		typ := meter.EvSend
		if i%2 == 1 {
			typ = meter.EvRecv
		}
		storeEvent(t, st, i%4+1, int64(i*100), typ, uint64(200+i%4))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	ctl.Exec("query f1 qout machine=3,type=1")
	if !strings.Contains(out.String(), "query 'f1': segments=") {
		t.Fatalf("no stats line: %s", out.String())
	}
	body := readDest(t, ctl, "/usr/qout")
	events, err := trace.ParseLog([]byte(body))
	if err != nil {
		t.Fatalf("query output does not parse as a trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("selective query matched nothing")
	}
	for _, e := range events {
		if e.Machine != 3 || e.Type != meter.EvSend {
			t.Fatalf("query result leaked machine=%d type=%v", e.Machine, e.Type)
		}
	}

	// No rules: everything comes back, in cpuTime order.
	ctl.Exec("query f1 qall")
	all, err := trace.ParseLog([]byte(readDest(t, ctl, "/usr/qall")))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 30 {
		t.Fatalf("match-all query returned %d events, want 30", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].CPUTime < all[i-1].CPUTime {
			t.Fatalf("query results out of order at %d", i)
		}
	}

	// The rule alphabet is accepted by the command parser, but only
	// after the destination argument.
	ctl.Exec("query f1 qnone machine=1,machine=2")
	if got := readDest(t, ctl, "/usr/qnone"); got != "" {
		t.Fatalf("contradictory query wrote %q", got)
	}
	before := out.String()
	ctl.Exec("query f=1 dest machine=1")
	if !strings.Contains(strings.TrimPrefix(out.String(), before), "bad token") {
		t.Fatal("operator characters accepted in the filter-name position")
	}

	// Unknown filter.
	before = out.String()
	ctl.Exec("query nosuch dest")
	if !strings.Contains(strings.TrimPrefix(out.String(), before), "no filter 'nosuch'") {
		t.Fatalf("unknown filter: %s", strings.TrimPrefix(out.String(), before))
	}

	// The daemon that ran the queries accounts for them in its machine's
	// registry: stats for blue carries the query.* rows.
	before = out.String()
	ctl.Exec("stats blue")
	report := strings.TrimPrefix(out.String(), before)
	m := regexp.MustCompile(`query\.runs\s+(\d+)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("stats after queries lacks query.runs:\n%s", report)
	}
	if runs, _ := strconv.Atoi(m[1]); runs < 1 {
		t.Fatalf("query.runs = %d after three queries, want >= 1", runs)
	}
}
