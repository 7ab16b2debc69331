package daemon

import (
	"fmt"
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
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	m, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	m.AddAccount(testUID, "user")
	p, err = m.SpawnDetached(testUID, "aggmemo")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.NewFsysBackend(m.FS(), testUID, dir), store.Config{Shards: 2, SegmentCap: 2048})
	if err != nil {
		t.Fatal(err)
	}
	add = func(from, to int) {
		for i := from; i < to; i++ {
			e := trace.Event{
				Type: meter.EvSend, Event: meter.EvSend.String(), Machine: i%4 + 1, CPUTime: int64(10 * i),
				Fields: map[string]uint64{"pid": uint64(100 + i%3), "sock": 3, "msgLength": uint64(i * 37 % 1000)},
				Names:  map[string]meter.Name{},
			}
			m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: 1, PID: uint32(e.Fields["pid"])}
			if err := st.AppendBatch([]store.BatchRec{{Meta: m, Line: []byte(e.Format())}}); err != nil {
				t.Error(err)
			}
		}
	}
	add(0, n)
	return p, m, add
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
		if len(d.readers) != 1 {
			t.Fatalf("%d cached readers for one store", len(d.readers))
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
