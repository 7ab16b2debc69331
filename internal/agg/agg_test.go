package agg

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// buildStore writes n synthetic SEND/RECV events into a fresh store
// with small segments, flushed so every segment is sealed and indexed —
// the fixture shape the query package's tests use.
func buildStore(t testing.TB, n int, cfg store.Config) store.Backend {
	t.Helper()
	be := store.NewMemBackend()
	st, err := store.Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		typ := meter.EvSend
		if i%2 == 1 {
			typ = meter.EvRecv
		}
		e := trace.Event{
			Seq: i, Type: typ, Event: typ.String(),
			Machine: i%4 + 1, CPUTime: int64(i * 10),
			Fields: map[string]uint64{
				"pid": uint64(100 + i%4), "sock": 3, "msgLength": uint64(64 + i),
			},
			Names: map[string]meter.Name{},
		}
		m := store.Meta{
			Machine: uint16(e.Machine), Time: uint32(e.CPUTime),
			Type: uint32(e.Type), PID: uint32(e.Fields["pid"]),
		}
		if err := st.Append(m, e.Format()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return be
}

// eval compiles and evaluates an aggregate query against a backend.
func eval(t testing.TB, be store.Backend, text string) (*Partial, query.Stats) {
	t.Helper()
	aq, err := Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	p, stats, err := Eval(rd, aq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, stats
}

func TestEvalCountByMachine(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	p, stats := eval(t, be, "agg count by machine")
	if p.Records != 100 || stats.Matched != 100 {
		t.Fatalf("records=%d matched=%d, want 100", p.Records, stats.Matched)
	}
	if len(p.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(p.Groups))
	}
	for key, g := range p.Groups {
		if g.Count != 25 {
			t.Errorf("machine %d count = %d, want 25", key.Vals[0], g.Count)
		}
	}
}

func TestEvalSelectionRulesApply(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	// Only machine 3's SEND records: machines cycle 1..4 with machine 3
	// on even i, which are all EvSend.
	p, _ := eval(t, be, fmt.Sprintf("machine=3,type=%d\nagg count by machine", int(meter.EvSend)))
	if len(p.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(p.Groups))
	}
	g := p.Groups[GroupKey{Vals: [MaxBy]uint64{3}}]
	if g == nil || g.Count != 25 {
		t.Fatalf("machine 3 group = %+v, want count 25", g)
	}
}

func TestEvalWindows(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	// cpuTime 0..990 in steps of 10; 250ms windows -> starts 0,250,500,750.
	p, _ := eval(t, be, "agg count window 250ms")
	if len(p.Groups) != 4 {
		t.Fatalf("windows = %d, want 4", len(p.Groups))
	}
	for key, g := range p.Groups {
		if key.Window%250 != 0 {
			t.Errorf("window start %d not on a 250ms boundary", key.Window)
		}
		if g.Count != 25 {
			t.Errorf("window %d count = %d, want 25", key.Window, g.Count)
		}
	}
	if p.MinTime != 0 || p.MaxTime != 990 {
		t.Errorf("time range [%d,%d], want [0,990]", p.MinTime, p.MaxTime)
	}
}

func TestEvalSumMinMax(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	// msgLength = 64+i for i=0..99.
	p, _ := eval(t, be, "agg sum(msgLength)")
	g := p.Groups[GroupKey{}]
	if g == nil {
		t.Fatal("no group")
	}
	wantSum := int64(0)
	for i := 0; i < 100; i++ {
		wantSum += int64(64 + i)
	}
	if g.Sum != wantSum || g.Min != 64 || g.Max != 163 {
		t.Fatalf("sum=%d min=%d max=%d, want %d/64/163", g.Sum, g.Min, g.Max, wantSum)
	}
}

func TestEvalRate(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	p, _ := eval(t, be, "agg rate")
	s := mustSpec(t, "agg rate")
	r := NewResult(s, p)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	// 100 records over a 991ms span ≈ 100.9/s.
	got := r.Rows[0].Value
	if got < 100 || got > 102 {
		t.Fatalf("rate = %v, want ~100.9", got)
	}
}

func TestEvalPercentileUpperBound(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	p, _ := eval(t, be, "agg p95(msgLength)")
	s := mustSpec(t, "agg p95(msgLength)")
	r := NewResult(s, p)
	// The log2 sketch answers with a power-of-two upper bound: the true
	// p95 is 159, so the bound must be >= 159 and <= 2*163.
	v := r.Rows[0].Value
	if v < 159 || v > 326 {
		t.Fatalf("p95 bound = %v, want within [159, 326]", v)
	}
}

func TestEvalTopK(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	p, _ := eval(t, be, "top 2 machine by sum(msgLength)")
	s := mustSpec(t, "top 2 machine by sum(msgLength)")
	r := NewResult(s, p)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (k cut)", len(r.Rows))
	}
	// Machine 4 sees i%4==3 -> msgLength 67,71,...: the largest sums
	// belong to machines 4 then 3.
	if r.Rows[0].Key["machine"] != 4 || r.Rows[1].Key["machine"] != 3 {
		t.Fatalf("top-2 machines = %d,%d, want 4,3",
			r.Rows[0].Key["machine"], r.Rows[1].Key["machine"])
	}
	if r.Rows[0].Value < r.Rows[1].Value {
		t.Fatal("rows not sorted heaviest first")
	}
}

// atWorkers runs fn with GOMAXPROCS set to n — the value the read
// executor derives its worker count from — and restores it after.
func atWorkers(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestEvalGroupCapDrops saturates the group cap: 100 distinct keys
// against MaxGroups=10, spread over many segments. Which ten groups
// survive is decided by record order, so the answer must be the same
// bytes at every worker count and on every repetition — a cap applied
// per worker (or per arrival) would let scheduling pick the groups.
func TestEvalGroupCapDrops(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	aq, err := Compile("agg count by cpuTime")
	if err != nil {
		t.Fatal(err)
	}
	aq.Spec.MaxGroups = 10 // 100 distinct cpuTimes against a 10-group cap
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 5; rep++ {
			atWorkers(workers, func() {
				p, _, err := Eval(rd, aq, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(p.Groups) != 10 || p.Dropped != 90 {
					t.Fatalf("workers=%d rep=%d: groups=%d dropped=%d, want 10 (cap) and 90",
						workers, rep, len(p.Groups), p.Dropped)
				}
				got := p.MarshalBinary()
				if want == nil {
					want = got
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d rep=%d: partial differs from the workers=1 answer", workers, rep)
				}
			})
		}
	}
}

func TestEvalMissingFieldSkips(t *testing.T) {
	be := buildStore(t, 100, store.Config{SegmentCap: 512})
	p, _ := eval(t, be, "agg sum(noSuchField)")
	if p.Skipped != 100 || len(p.Groups) != 0 {
		t.Fatalf("skipped=%d groups=%d, want 100/0", p.Skipped, len(p.Groups))
	}
	p, _ = eval(t, be, "agg count by noSuchField")
	if p.Skipped != 100 {
		t.Fatalf("skipped=%d, want 100", p.Skipped)
	}
}

// TestEvalParallelMatchesSequential: an uncapped aggregate at four
// workers equals the one-worker (in effect sequential) answer, scan
// statistics included.
func TestEvalParallelMatchesSequential(t *testing.T) {
	be := buildStore(t, 400, store.Config{SegmentCap: 512})
	for _, text := range []string{
		"agg count by machine window 100ms",
		"agg p95(msgLength) by machine",
		"top 3 pid by sum(msgLength)",
	} {
		var one, many *Partial
		var oneStats, manyStats query.Stats
		atWorkers(1, func() { one, oneStats = eval(t, be, text) })
		atWorkers(4, func() { many, manyStats = eval(t, be, text) })
		if !bytes.Equal(one.MarshalBinary(), many.MarshalBinary()) {
			t.Errorf("%q: result at 4 workers differs from 1 worker", text)
		}
		if oneStats != manyStats {
			t.Errorf("%q: stats differ: %+v vs %+v", text, oneStats, manyStats)
		}
	}
}

func TestEvalPruning(t *testing.T) {
	be := buildStore(t, 400, store.Config{SegmentCap: 512})
	aq, err := Compile("machine=2\nagg count by machine")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Eval(rd, aq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned == 0 {
		t.Fatalf("no segments pruned under machine=2: %+v", stats)
	}
}

func TestEvalObsMetrics(t *testing.T) {
	be := buildStore(t, 200, store.Config{SegmentCap: 512})
	reg := obs.NewRegistry()
	aq, err := Compile("agg count by machine")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Eval(rd, aq, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var runs int64
	for _, c := range snap.Counters {
		if c.Name == "agg.runs" {
			runs = c.Value
		}
	}
	if runs != 1 {
		t.Fatalf("agg.runs = %d, want 1", runs)
	}
}

func TestCompileRejects(t *testing.T) {
	for _, text := range []string{
		"machine=3",                     // no aggregate line
		"agg count\nagg sum(msgLength)", // two aggregate lines
		"agg bogus",                     // bad spec
		"machine=((\nagg count",         // bad rules
	} {
		if _, err := Compile(text); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", text)
		}
	}
}

// TestScanSegmentZeroAllocs gates the push-down scan: folding a sealed
// compressed segment's records into its group table reads keys and
// values straight from the record view and, with the pooled table warm
// (its map cleared, not reallocated), allocates nothing — no event is
// ever built for an aggregated record.
func TestScanSegmentZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	be := buildStore(t, 2000, store.Config{Shards: 1, SegmentCap: 1 << 20})
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	rs := rd.Shards()[0][0]
	if !rs.Sealed || rs.FormatVersion() != 3 || len(rd.Shards()[0]) != 1 {
		t.Fatalf("fixture is not one sealed v3 segment: sealed=%v v%d, %d segments", rs.Sealed, rs.FormatVersion(), len(rd.Shards()[0]))
	}
	aq, err := Compile("type=1\nagg sum(msgLength) by machine,pid window 1s")
	if err != nil {
		t.Fatal(err)
	}
	var folded int64
	scan := func() {
		seg, _, err := aq.scanSegment(rs)
		if err != nil {
			t.Fatal(err)
		}
		folded = 0
		for i := range seg.groups {
			folded += seg.groups[i].Count
		}
		segmentPool.Put(seg)
	}
	scan() // warm the decoder, view and group table
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("scanSegment allocates %.0f times per 2000-record segment, want 0", allocs)
	}
	if folded != 1000 {
		t.Fatalf("scan folded %d records into groups, want the 1000 SEND records", folded)
	}
}
