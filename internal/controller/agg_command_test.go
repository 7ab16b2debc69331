package controller

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/agg"
	"dpm/internal/daemon"
	"dpm/internal/filter"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/store"
)

// openFilterStore opens a second writer on a running filter's event
// store, for tests that populate it directly. It first waits for the
// filter to be listening: the filter opens its store just before it
// binds its meter port, and a test that is already appending by then
// has its unsealed segment "recovered" — resealed at whatever length it
// had — by the filter's own store.Open, losing the records appended
// after (seen as 26 of 30 events about once in forty runs).
func openFilterStore(t *testing.T, c *kernel.Cluster, ctl *Controller, filterName string) *store.Store {
	t.Helper()
	f := logState(t, ctl, filterName)
	m, err := c.Machine(f.Machine)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !m.PortBound(kernel.SockStream, f.Port); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("filter %s on %s never started listening", filterName, f.Machine)
		}
	}
	st, err := store.Open(store.NewFsysBackend(m.FS(), testUID, filter.StorePath(filterName)), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// populateFilterStore writes n synthetic events into a filter's event
// store on its machine, flushed so segments are sealed and indexed.
func populateFilterStore(t *testing.T, c *kernel.Cluster, ctl *Controller, filterName string, n int) {
	t.Helper()
	st := openFilterStore(t, c, ctl, filterName)
	for i := 0; i < n; i++ {
		typ := meter.EvSend
		if i%2 == 1 {
			typ = meter.EvRecv
		}
		storeEvent(t, st, i%4+1, int64(i*100), typ, uint64(200+i%4))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryAggCommand(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	populateFilterStore(t, c, ctl, "f1", 40)

	// Plain group-by count, pushed down to blue's daemon.
	ctl.Exec("query f1 aggout agg count by machine")
	if !strings.Contains(out.String(), "agg 'agg count by machine': 1/1 filters reporting (f1@blue)") {
		t.Fatalf("no reporting summary: %s", out.String())
	}
	body := readDest(t, ctl, "/usr/aggout")
	if !strings.Contains(body, "agg count by machine") || !strings.Contains(body, "records=40") {
		t.Fatalf("rendered table wrong: %s", body)
	}
	// Four machines, ten records each: every row's count is 10.
	if strings.Count(body, " 10\n") != 4 {
		t.Fatalf("want 4 groups of count 10: %s", body)
	}

	// Selection rules compose with the aggregate clause.
	ctl.Exec(fmt.Sprintf("query f1 aggsel machine=3,type=%d agg count by machine", int(meter.EvSend)))
	sel := readDest(t, ctl, "/usr/aggsel")
	if !strings.Contains(sel, "records=10") || strings.Count(sel, "\n") < 3 {
		t.Fatalf("rule-filtered aggregate wrong: %s", sel)
	}

	// Top-k with an operator argument exercises the '(' ')' lexing.
	ctl.Exec("query f1 aggtop top 2 machine by sum(pid)")
	topBody := readDest(t, ctl, "/usr/aggtop")
	if !strings.Contains(topBody, "top 2 machine by sum(pid)") {
		t.Fatalf("top-k spec missing from render: %s", topBody)
	}

	// A bad spec is rejected locally, before any fan-out.
	ctl.Exec("query f1 aggbad agg count window 0")
	if !strings.Contains(out.String(), "bad aggregate spec") {
		t.Fatalf("bad spec not rejected: %s", out.String())
	}
}

func TestQueryAggAllFanout(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("filter f2 green")
	populateFilterStore(t, c, ctl, "f1", 40)
	populateFilterStore(t, c, ctl, "f2", 40)

	ctl.Exec("query all aggall agg count by machine")
	if !strings.Contains(out.String(), "agg 'agg count by machine': 2/2 filters reporting (f1@blue f2@green)") {
		t.Fatalf("fan-out summary wrong: %s", out.String())
	}
	body := readDest(t, ctl, "/usr/aggall")
	// Partials merged: 10 records per machine per filter -> 20 each.
	if !strings.Contains(body, "records=80") || strings.Count(body, " 20\n") != 4 {
		t.Fatalf("merged aggregate wrong: %s", body)
	}
}

// TestAggDegradedMerge is the acceptance run for degraded aggregation:
// filters on three machines, one machine crashed and one partitioned
// mid-aggregation. The scatter-gather must return within the retry
// deadline with error slots for the dead machines while the surviving
// partial merges into a deterministic (degraded) answer.
func TestAggDegradedMerge(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.SetRetryPolicy(shortRetry)
	ctl.SetSessionConfig(fastSessionCfg)
	ctl.Exec("filter f1 red")
	ctl.Exec("filter f2 green")
	ctl.Exec("filter f3 blue")
	populateFilterStore(t, c, ctl, "f1", 40)
	populateFilterStore(t, c, ctl, "f2", 40)
	populateFilterStore(t, c, ctl, "f3", 40)
	ctl.Exec("status") // warm the sessions so the faults strike live connections

	if err := c.CrashMachine("red"); err != nil {
		t.Fatal(err)
	}
	cutFrom(t, c, ctl, "green")

	start := time.Now()
	ctl.Exec("query all aggdeg agg count by machine")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("degraded aggregate took %v, want bounded by retry deadline", elapsed)
	}
	if !strings.Contains(out.String(), "agg 'agg count by machine': 1/3 filters reporting (f3@blue)") {
		t.Fatalf("degraded summary wrong: %s", out.String())
	}
	if !strings.Contains(out.String(), "agg: degraded, missing f1@red f2@green") {
		t.Fatalf("missing slots not reported: %s", out.String())
	}
	// The surviving partial still merges deterministically: blue's 40
	// records, 10 per machine.
	body := readDest(t, ctl, "/usr/aggdeg")
	if !strings.Contains(body, "records=40") || strings.Count(body, " 10\n") != 4 {
		t.Fatalf("degraded merge wrong: %s", body)
	}
}

func TestWatchCommand(t *testing.T) {
	c, ctl, out := newSystem(t)
	ctl.Exec("filter f1 blue")
	populateFilterStore(t, c, ctl, "f1", 8)

	ctl.Exec("watch 2 1 query f1 wout agg count by machine")
	s := out.String()
	if !strings.Contains(s, "watch 1/2:") || !strings.Contains(s, "watch 2/2:") {
		t.Fatalf("watch rounds missing: %s", s)
	}
	if strings.Count(s, "agg 'agg count by machine'") != 2 {
		t.Fatalf("wrapped query did not run each round: %s", s)
	}

	ctl.Exec("watch x 1 status")
	if !strings.Contains(out.String(), "usage: watch") {
		t.Fatalf("bad rounds accepted: %s", out.String())
	}
	ctl.Exec("watch 2 1 watch 2 1 status")
	if !strings.Contains(out.String(), "watch does not nest") {
		t.Fatalf("nested watch accepted: %s", out.String())
	}
}

// TestAggCommandNoAllocBeyondAnswer gates what an aggregate's answer
// costs the controller against the result file it writes. Two filters'
// replies, over 400 groups of `agg count by cpuTime`, are decoded into
// the kept tables, merged in one pass and rendered into the kept buffer
// in at most three times the file's bytes and 2 kB: no map, no *Group
// and no keyed row per group. The path is the least of five windows, as
// in TestStatsClusterNoAllocBeyondReport; the whole command, its round
// trips and the file's copy included, is logged.
func TestAggCommandNoAllocBeyondAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	c, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("filter f2 green")
	populateAggStore(t, openFilterStore(t, c, ctl, "f1"), 300, 10)
	populateAggStore(t, openFilterStore(t, c, ctl, "f2"), 300, 15)
	const spec, calls = "agg count by cpuTime", 20
	for i := 0; i < 4; i++ {
		ctl.Exec("query all aggwarm " + spec) // sessions, memos and tables warm
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		ctl.Exec("query all aggwarm " + spec)
	}
	runtime.ReadMemStats(&after)
	command := float64(after.TotalAlloc-before.TotalAlloc) / calls

	s, err := agg.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var targets []target
	for _, f := range ctl.Filters() {
		targets = append(targets, target{Label: f.Name, Host: f.Machine,
			Req: &daemon.AggReq{Dir: filter.StorePath(f.Name), Spec: s.String(), UID: ctl.uid}})
	}
	res := ctl.broadcastTargets(targets)
	defer release(res)
	m := new(aggMerge)
	if reporting, _ := m.answer(s, res); len(reporting) != 2 {
		t.Fatalf("%d filters reporting", len(reporting))
	}
	file := float64(len(m.table))
	if groups := strings.Count(string(m.table), "\n") - 3; groups < 400 {
		t.Fatalf("%d groups, want 400 or more:\n%s", groups, m.table)
	}
	path := math.Inf(1)
	for w := 0; w < 5; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			m.answer(s, res)
		}
		runtime.ReadMemStats(&after)
		path = min(path, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	t.Logf("a %.0f-byte result file: the merge and rendering allocate %.0f bytes (%.2f times), the command %.0f (%.2f times)",
		file, path, path/file, command, command/file)
	if path > 3*file+2048 {
		t.Errorf("merging and rendering two replies allocates %.0f bytes for a %.0f-byte result file; want at most %.0f", path, file, 3*file+2048)
	}

	// Commands of two specs in turn, as a grouped and a top-k aggregate
	// alternate, cost what each costs alone: a part decodes a reply of
	// the spec it was reset to without parsing the spec again.
	s2, err := agg.ParseSpec("top 3 machine by sum(msgLength)")
	if err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		targets[i].Req = &daemon.AggReq{Dir: filter.StorePath(ctl.Filters()[i].Name), Spec: s2.String(), UID: ctl.uid}
	}
	res2 := ctl.broadcastTargets(targets)
	defer release(res2)
	if reporting, _ := m.answer(s2, res2); len(reporting) != 2 {
		t.Fatalf("%d filters reporting to %s", len(reporting), s2)
	}
	first := testing.AllocsPerRun(20, func() { m.answer(s, res) })
	second := testing.AllocsPerRun(20, func() { m.answer(s2, res2) })
	turns := testing.AllocsPerRun(20, func() { m.answer(s, res); m.answer(s2, res2) })
	t.Logf("answers allocate %.0f times for %s, %.0f for %s, %.0f for the two in turn", first, s, second, s2, turns)
	if turns > first+second {
		t.Errorf("two specs in turn allocate %.0f times, each alone %.0f and %.0f", turns, first, second)
	}
}

// TestConcurrentAggAnswers merges and renders aggregate replies from
// several goroutines at once, each through a pooled aggMerge as
// cmdQueryAgg takes one: every answer is whole and the same.
func TestConcurrentAggAnswers(t *testing.T) {
	c, ctl, _ := newSystem(t)
	ctl.Exec("filter f1 blue")
	ctl.Exec("filter f2 green")
	populateAggStore(t, openFilterStore(t, c, ctl, "f1"), 120, 10)
	populateAggStore(t, openFilterStore(t, c, ctl, "f2"), 90, 15)
	var targets []target
	for _, f := range ctl.Filters() {
		targets = append(targets, target{Label: f.Name, Host: f.Machine,
			Req: &daemon.AggReq{Dir: filter.StorePath(f.Name), Spec: "agg sum(msgLength) by machine,pid", UID: ctl.uid}})
	}
	s, err := agg.ParseSpec("agg sum(msgLength) by machine,pid")
	if err != nil {
		t.Fatal(err)
	}
	answer := func() string {
		res := ctl.broadcastTargets(targets)
		defer release(res)
		m := aggMerges.Get().(*aggMerge)
		defer aggMerges.Put(m)
		if reporting, _ := m.answer(s, res); len(reporting) != 2 {
			return fmt.Sprintf("%d filters reporting", len(reporting))
		}
		return string(m.table)
	}
	want := answer()
	if !strings.Contains(want, "records=210") {
		t.Fatalf("answer:\n%s", want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := answer(); got != want {
					t.Errorf("concurrent answer:\n%s\nwant:\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
