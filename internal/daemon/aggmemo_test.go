package daemon

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpm/internal/agg"
	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// storeMachine starts a machine whose store at dir holds records 0 to
// n-1 of a SEND stream, the last ones in unsealed tails, and returns a
// process on it and add, which appends more of the stream.
func storeMachine(t *testing.T, dir string, n int) (p *kernel.Process, m *kernel.Machine, add func(from, to int)) {
	t.Helper()
	p, m, st := machineStore(t, dir, store.Config{Shards: 2, SegmentCap: 2048})
	add = func(from, to int) { appendSends(t, st, from, to) }
	add(0, n)
	return p, m, add
}

// machineStore starts a machine with a process on it and opens a store
// at dir on its file system.
func machineStore(t *testing.T, dir string, cfg store.Config) (*kernel.Process, *kernel.Machine, *store.Store) {
	t.Helper()
	p, m := machineProcess(t)
	st, err := store.Open(store.NewFsysBackend(m.FS(), testUID, dir), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, m, st
}

// machineProcess starts a machine with a process on it.
func machineProcess(t *testing.T) (*kernel.Process, *kernel.Machine) {
	t.Helper()
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	m, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	m.AddAccount(testUID, "user")
	p, err := m.SpawnDetached(testUID, "aggmemo")
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// appendSends appends records from to to-1 of the SEND stream to st.
func appendSends(t *testing.T, st *store.Store, from, to int) {
	for i := from; i < to; i++ {
		e := trace.Event{
			Type: meter.EvSend, Event: meter.EvSend.String(), Machine: i%4 + 1, CPUTime: int64(10 * i),
			Fields: map[string]uint64{"pid": uint64(100 + i%3), "sock": 3, "msgLength": uint64(i * 37 % 1000)},
			Names:  map[string]meter.Name{},
		}
		m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: 1, PID: uint32(e.Fields["pid"])}
		if err := st.AppendBatch([]store.BatchRec{{Meta: m, Line: []byte(e.Format()), Slots: slotsOf(&e)}}); err != nil {
			t.Error(err)
		}
	}
}

// TestHandleAggMemoConcurrent: concurrent aggregate requests on one
// daemon share its memo — under a bound so small that it is emptied
// again and again while they run — and every reply is byte for byte the
// reply of a daemon without a memo.
func TestHandleAggMemoConcurrent(t *testing.T) {
	const dir = "/usr/tmp/aggmemo"
	p, m, _ := storeMachine(t, dir, 1500)
	reqs := []*AggReq{
		{Dir: dir, UID: testUID, Spec: "agg count by machine window 100ms"},
		{Dir: dir, UID: testUID, Rules: "type=1", Spec: "top 3 pid by sum(msgLength)"},
		{Dir: dir, UID: testUID, Rules: "machine=2", Spec: "agg p95(msgLength) by pid"},
		{Dir: dir, UID: testUID, Spec: "agg max(msgLength) by machine", NoPrune: true},
	}
	plain := &daemonState{p: p}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		rep := plain.handleAgg(*req)
		if rep.Status != "ok" {
			t.Fatalf("%+v: %s", req, rep.Status)
		}
		want[i] = replyWire(rep)
	}
	d := &daemonState{p: p, aggMemo: agg.NewMemo(200, m.Obs())}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(reqs)
				if got := d.handleAgg(*reqs[k]); replyWire(got) != want[k] {
					errs <- fmt.Errorf("request %d, round %d: reply %q %q differs", k, i, got.Status, got.Aux)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	reg := m.Obs()
	if hits, clears := reg.Counter("agg.memo_hits").Load(), reg.Counter("agg.memo_clears").Load(); hits == 0 || clears == 0 {
		t.Fatalf("%d memo hits and %d clears: the bound did not make the memo start over", hits, clears)
	}
}

// TestCompiledQueriesShared: concurrent record queries and aggregates
// of one rules text, with pruning on and off, share the daemon's
// compiled queries, and every reply is byte for byte the reply of a
// daemon that compiles the request afresh.
func TestCompiledQueriesShared(t *testing.T) {
	const dir, rules = "/usr/tmp/compiled", "cpuTime<3000,pid=101\ncpuTime>=12000,type=1"
	p, m, _ := storeMachine(t, dir, 1500)
	var reqs []func(*daemonState) Reply
	for _, noPrune := range []bool{false, true} {
		q := QueryReq{Dir: dir, UID: testUID, Rules: rules, NoPrune: noPrune}
		a := AggReq{Dir: dir, UID: testUID, Rules: rules, Spec: "agg sum(msgLength) by pid", NoPrune: noPrune}
		reqs = append(reqs, func(d *daemonState) Reply { return d.handleQuery(q) },
			func(d *daemonState) Reply { return d.handleAgg(a) })
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		if want[i] = replyWire(req(&daemonState{p: p})); !strings.Contains(want[i], "ok") {
			t.Fatalf("request %d: %q", i, want[i])
		}
	}
	if want[0] == want[2] || want[1] == want[3] {
		t.Fatal("the replies with pruning on and off are equal: the test cannot tell the queries apart")
	}
	d := &daemonState{p: p, aggMemo: agg.NewMemo(agg.MemoCost, m.Obs())}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(reqs)
				if got := replyWire(reqs[k](d)); got != want[k] {
					t.Errorf("request %d, round %d: the reply differs from a fresh compile's", k, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	reg := m.Obs()
	if hits, misses := reg.Counter("daemon.compile_hits").Load(), reg.Counter("daemon.compile_misses").Load(); hits == 0 || misses < int64(len(reqs)) {
		t.Fatalf("%d compile hits and %d misses over %d texts", hits, misses, len(reqs))
	}
}

// TestStandingQueryOutlivesOneOffs: a standing aggregate asked between
// 200 point queries whose texts never repeat compiles once. The table of
// compiled queries fills and then evicts its least recently used entry,
// one a new text, counted in daemon.table_evictions; it was emptied
// whole when full, and the aggregate compiled again each time.
func TestStandingQueryOutlivesOneOffs(t *testing.T) {
	const dir, oneOffs = "/usr/tmp/standing", 200
	p, m, _ := storeMachine(t, dir, 400)
	d := &daemonState{p: p, aggMemo: agg.NewMemo(agg.MemoCost, m.Obs())}
	for i := 0; i < oneOffs; i++ {
		for _, rep := range []Reply{
			d.handleAgg(AggReq{Dir: dir, UID: testUID, Spec: "agg count by machine"}),
			d.handleQuery(QueryReq{Dir: dir, UID: testUID, Rules: fmt.Sprintf("cpuTime>=%d,cpuTime<%d", 10*i, 10*i+20)}),
		} {
			if rep.Status != "ok" {
				t.Fatal(rep.Status)
			}
		}
	}
	reg := m.Obs()
	hits, misses := reg.Counter("daemon.compile_hits").Load(), reg.Counter("daemon.compile_misses").Load()
	if evicted := reg.Counter("daemon.table_evictions").Load(); hits != oneOffs-1 || misses != oneOffs+1 || evicted != oneOffs+1-tableSize {
		t.Fatalf("%d compile hits, %d misses and %d evictions; want the aggregate compiled once (%d hits), each point text once (%d misses) and %d evictions",
			hits, misses, evicted, oneOffs-1, oneOffs+1, oneOffs+1-tableSize)
	}
}

// sealedStore starts a machine whose store at dir holds the given
// number of sealed segments, 40 records each over two shards, and two
// records past them in unsealed tails, one a shard, and returns a daemon
// on it and the store.
func sealedStore(t *testing.T, dir string, segments int) (*daemonState, *store.Store) {
	p, m, st := machineStore(t, dir, store.Config{Shards: 2, SegmentCap: 1 << 20, CompactMin: 1 << 20})
	for s := 0; s < segments/2; s++ {
		appendSends(t, st, 80*s, 80*(s+1))
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	appendSends(t, st, 40*segments, 40*segments+2)
	d := &daemonState{p: p, aggMemo: agg.NewMemo(agg.MemoCost, m.Obs())}
	rd, _, err := d.reader(testUID, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := rd.NumSegments(); n != segments+2 {
		t.Fatalf("%d segments, want %d sealed and 2 unsealed", n, segments)
	}
	return d, st
}

// warmCost is what one request costs once warm — its allocations and
// bytes, the cheapest of five windows of 50 — with its reply written
// into a frame the caller keeps. between, when set, runs before each
// request, outside what is counted.
func warmCost(t *testing.T, between func(), handle func() Reply) (allocs, bytes float64) {
	var frame []byte
	var before, after runtime.MemStats
	var mallocs, total uint64
	call := func() {
		if between != nil {
			between()
		}
		runtime.ReadMemStats(&before)
		rep := handle()
		if rep.Status != "ok" {
			t.Fatal(rep.Status)
		}
		frame = rep.appendWire(beginFrame(frame[:0], FrameRep, 0))
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		total += after.TotalAlloc - before.TotalAlloc
	}
	call()
	call()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for w := 0; w < 5; w++ {
		mallocs, total = 0, 0
		for i := 0; i < 50; i++ {
			call()
		}
		allocs = min(allocs, float64(mallocs)/50)
		bytes = min(bytes, float64(total)/50)
	}
	return allocs, bytes
}

// TestWarmAggNoAllocPerSegment gates a standing aggregate on the daemon:
// with every sealed segment's table in the memo and the query compiled,
// a request makes at most 9 allocations (measured: 9.0; 15 when each
// request built the store's id and backend), as many at 512 sealed
// segments as at 16, within one, and no more bytes, within 64.
func TestWarmAggNoAllocPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	measure := func(segments int) (float64, float64) {
		const dir = "/usr/tmp/warmagg"
		d, _ := sealedStore(t, dir, segments)
		return warmCost(t, nil, func() Reply {
			return d.handleAgg(AggReq{Dir: dir, UID: testUID, Rules: "type=1", Spec: "agg count by machine"})
		})
	}
	fewA, fewB := measure(16)
	manyA, manyB := measure(512)
	t.Logf("a warm aggregate: %.1f allocations and %.0f bytes over 16 sealed segments, %.1f and %.0f over 512", fewA, fewB, manyA, manyB)
	if fewA > 9 || manyA > fewA+1 || manyB > fewB+64 {
		t.Fatalf("a warm aggregate over 512 sealed segments costs %.1f allocations and %.0f bytes, over 16 %.1f and %.0f; budget 9 allocations", manyA, manyB, fewA, fewB)
	}
}

// TestWarmPointQueryNoAllocPerSegment: the same for a record query
// that footer pruning narrows to one sealed segment: the segments it
// prunes cost nothing, and a request makes at most 7 allocations
// (measured: 7.0; 11 when each request built the store's id and
// backend).
func TestWarmPointQueryNoAllocPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	measure := func(segments int) (float64, float64) {
		const dir = "/usr/tmp/warmpoint"
		d, _ := sealedStore(t, dir, segments)
		return warmCost(t, nil, pointQuery(d, dir))
	}
	fewA, fewB := measure(16)
	manyA, manyB := measure(512)
	t.Logf("a warm point query: %.1f allocations and %.0f bytes over 16 sealed segments, %.1f and %.0f over 512", fewA, fewB, manyA, manyB)
	if fewA > 7 || manyA > fewA+1 || manyB > fewB+64 {
		t.Fatalf("a warm point query over 512 sealed segments costs %.1f allocations and %.0f bytes, over 16 %.1f and %.0f; budget 7 allocations", manyA, manyB, fewA, fewB)
	}
}

// TestLiveQueryNoAllocPerSegment: the point query of a store appended to
// between requests, a record to each shard, pays for the two tails that
// grew, not for the sealed segments beside them: as many allocations at
// 512 sealed segments as at 16, within one, and past that one pointer a
// segment: 8 B, which the allocator's size classes round up by an
// eighth (store.TestReopenNoAllocPerSegment's bound), and a byte for
// what else the machine allocates meanwhile. Measured: 17 allocations
// at both sizes and 8.97–9.15 B a segment more at 512. When the reopen
// copied the store's whole listing, a segment cost 55 B.
func TestLiveQueryNoAllocPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	measure := func(segments int) (float64, float64) {
		const dir = "/usr/tmp/livepoint"
		d, st := sealedStore(t, dir, segments)
		next := 40*segments + 2
		appendTails := func() { // records of odd and even machines: both shards
			appendSends(t, st, next, next+2)
			next += 2
		}
		return warmCost(t, appendTails, pointQuery(d, dir))
	}
	fewA, fewB := measure(16)
	manyA, manyB := measure(512)
	t.Logf("a live point query: %.1f allocations and %.0f bytes over 16 sealed segments, %.1f and %.0f over 512", fewA, fewB, manyA, manyB)
	if perSeg := (manyB - fewB) / (512 - 16); manyA > fewA+1 || perSeg > 10 {
		t.Fatalf("a live point query over 512 sealed segments costs %.1f allocations and %.0f bytes (%.1f B a segment more), over 16 %.1f and %.0f", manyA, manyB, perSeg, fewA, fewB)
	}
}

// pointQuery is a request for the records of a window of 100 ms of
// cpuTime in the store at dir, which footer pruning narrows to one
// sealed segment.
func pointQuery(d *daemonState, dir string) func() Reply {
	return func() Reply {
		return d.handleQuery(QueryReq{Dir: dir, UID: testUID, Rules: "cpuTime>=1000,cpuTime<=1100"})
	}
}

// TestReaderSharedAcrossRequests: concurrent queries and aggregates on
// one daemon share its cached reader of the store, and each reply is
// byte for byte that of a daemon that opens the store afresh — before
// the store changes, and after appends have grown its unsealed tails
// and rotated new segments past what the cached reader saw.
func TestReaderSharedAcrossRequests(t *testing.T) {
	const dir = "/usr/tmp/shared"
	p, _, add := storeMachine(t, dir, 1500)
	queries := []*QueryReq{
		{Dir: dir, UID: testUID, Rules: "machine=2,msgLength>=500"},
		{Dir: dir, UID: testUID, Rules: "cpuTime>=14000", NoPrune: true},
	}
	aggs := []*AggReq{
		{Dir: dir, UID: testUID, Spec: "agg count by machine"},
		{Dir: dir, UID: testUID, Rules: "type=1", Spec: "top 2 pid by sum(msgLength)"},
	}
	d := &daemonState{p: p}
	for round := 0; round < 2; round++ {
		fresh := func() *daemonState { return &daemonState{p: p} }
		var want []string
		for i, rep := range []Reply{fresh().handleQuery(*queries[0]), fresh().handleQuery(*queries[1]), fresh().handleAgg(*aggs[0]), fresh().handleAgg(*aggs[1])} {
			if rep.Status != "ok" {
				t.Fatalf("request %d: %s", i, rep.Status)
			}
			want = append(want, replyWire(rep))
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					k := (g + i) % len(want)
					var got Reply
					if k < len(queries) {
						got = d.handleQuery(*queries[k])
					} else {
						got = d.handleAgg(*aggs[k-len(queries)])
					}
					if replyWire(got) != want[k] {
						errs <- fmt.Errorf("round %d, request %d: reply %q %q differs", round, k, got.Status, got.Aux)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if len(d.readers.byKey) != 1 {
			t.Fatalf("%d cached readers for one store", len(d.readers.byKey))
		}
		add(1500, 3000)
	}
}

// TestReaderPermission: a reopen that skips reading an unchanged segment
// skips no permission check. Another uid's query of a private store
// fails with EACCES before and after the owner's reader is cached, the
// owner's answer is that of a daemon opening the store afresh, and a
// file in the directory that is no segment and that the owner may not
// read fails no query.
func TestReaderPermission(t *testing.T) {
	const dir, other = "/usr/tmp/private", testUID + 1
	p, m, add := storeMachine(t, dir, 600)
	if err := m.FS().Create(dir+"/lock", fsys.Superuser, fsys.PrivateMode, []byte("held")); err != nil {
		t.Fatal(err)
	}
	d := &daemonState{p: p}
	denied := func(when string) {
		t.Helper()
		for _, rep := range []Reply{
			d.handleQuery(QueryReq{Dir: dir, UID: other}),
			d.handleAgg(AggReq{Dir: dir, UID: other, Spec: "agg count by machine"}),
		} {
			if !strings.Contains(rep.Status, "EACCES") {
				t.Fatalf("%s: uid %d's request of uid %d's private store: %q, want EACCES", when, other, testUID, rep.Status)
			}
		}
	}
	owner := func(when string) {
		t.Helper()
		req := &QueryReq{Dir: dir, UID: testUID, Rules: "machine=2"}
		got, want := d.handleQuery(*req), (&daemonState{p: p}).handleQuery(*req)
		if gw, ww := replyWire(got), replyWire(want); got.Status != "ok" || gw != ww {
			t.Fatalf("%s: the owner's query says %q, %d bytes; a fresh daemon %q, %d bytes", when, got.Status, len(gw), want.Status, len(ww))
		}
	}
	denied("before the owner's reader is cached")
	owner("first")
	denied("after the owner's reader is cached")
	owner("again")
	add(600, 700)
	denied("after appends")
	owner("after appends")
}

// TestReopenTimingNoAlloc: every query's reopen lands in the machine's
// daemon.reopen_ns histogram, and timing it allocates nothing.
func TestReopenTimingNoAlloc(t *testing.T) {
	const dir = "/usr/tmp/timed"
	p, m, _ := storeMachine(t, dir, 200)
	d := &daemonState{p: p}
	h := m.Obs().Histogram("daemon.reopen_ns")
	for i := 1; i <= 3; i++ {
		if rep := d.handleQuery(QueryReq{Dir: dir, UID: testUID}); rep.Status != "ok" {
			t.Fatal(rep.Status)
		}
		if h.Count() != int64(i) {
			t.Fatalf("after %d queries daemon.reopen_ns holds %d", i, h.Count())
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		obs.StartSpan(d.p.Machine().Obs().Histogram("daemon.reopen_ns")).End()
	}); n != 0 {
		t.Fatalf("timing a reopen allocates %v per query, want 0", n)
	}
}

// replyWire is the frame a daemon sends for rep, where alone the Data of a
// reply written straight into its frame is: two replies carry the same
// when their frames are equal. It writes rep's Data, which only one
// call may do.
func replyWire(rep Reply) string {
	return string(endFrame(rep.appendWire(beginFrame(nil, FrameRep, 0)), 0))
}

// slotsOf types an event as the filter hands it to the store: each key
// of its type's stored order it carries, with a value of the key's kind.
func slotsOf(e *trace.Event) *trace.Slots {
	s := new(trace.Slots)
	s.Reset(e.ProcTime)
	keys, names := trace.SlotKeys(e.Type, e.Event)
	for k, key := range keys {
		if n, ok := e.Names[key]; ok && names>>k&1 != 0 {
			s.SetName(k, n)
		} else if v, ok := e.Fields[key]; ok && names>>k&1 == 0 {
			s.SetVal(k, v)
		}
	}
	return s
}
