package agg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// memoSpecs are the operators the memo tests ask for: count, rate,
// sum, min, max, a sketch and top-k, each with and without a window.
func memoSpecs() []string {
	var specs []string
	for _, spec := range []string{
		"agg count by machine,pid",
		"agg rate by pid",
		"agg sum(msgLength) by machine",
		"agg min(msgLength) by destName",
		"agg max(pc) by type,machine",
		"agg p95(msgLength) by machine",
		"top 3 pid by sum(msgLength)",
	} {
		specs = append(specs, spec, spec+" window 100ms")
	}
	return specs
}

// sameEval reports how got differs from want, "" when it does not: the
// partial's bytes and counters and the scan statistics.
func sameEval(got, want *Partial, gotStats, wantStats query.Stats) string {
	if !bytes.Equal(got.MarshalBinary(), want.MarshalBinary()) || got.Records != want.Records ||
		got.Skipped != want.Skipped || got.Dropped != want.Dropped {
		return fmt.Sprintf("records/skipped/dropped %d/%d/%d, want %d/%d/%d or other bytes",
			got.Records, got.Skipped, got.Dropped, want.Records, want.Skipped, want.Dropped)
	}
	if gotStats != wantStats {
		return fmt.Sprintf("stats %+v, want %+v", gotStats, wantStats)
	}
	return ""
}

func openReader(t testing.TB, be store.Backend) *store.Reader {
	t.Helper()
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestMemoMatchesScan: an Eval served by a memo, cold or warm, is the
// Eval without one — the partial's bytes and counters and the scan
// statistics — for every operator with and without a window, group caps
// that fill, pruning on and off and 1, 2 or 8 workers, over random stores
// with unsealed tails and the checked-in stores. The warm Eval
// reads through a reader opened after the cold one, as the daemon's next
// request does.
func TestMemoMatchesScan(t *testing.T) {
	stores := map[string]store.Backend{}
	for seed := int64(1); seed <= 3; seed++ {
		stores[fmt.Sprintf("random-%d", seed)] = foldStore(t, seed, 1200)
	}
	for _, layout := range []string{"v3/cap1k", "v3/cap1k+tail", "v3/cap2k", "v3/cap2k+tail", "v3/cap2k+archives"} {
		stores[layout] = loadFixture(t, "../store/testdata/"+layout)
	}
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(1))
	for name, be := range stores {
		rd := openReader(t, be)
		for _, rules := range []string{"", "machine=2\nmachine=3,pid=101"} {
			for _, spec := range memoSpecs() {
				aq, err := Compile(rules + "\n" + spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, noPrune := range []bool{false, true} {
					aq.Sel.NoPrune = noPrune
					for _, maxGroups := range []int{1, 3, 0} {
						aq.Spec.MaxGroups = maxGroups
						want, wantStats, err := Eval(rd, aq, Options{})
						if err != nil {
							t.Fatal(err)
						}
						// Each case at one worker count, drawn.
						workers := []int{1, 2, 8}[rng.Intn(3)]
						memo := NewMemo(MemoCost, reg)
						atWorkers(workers, func() {
							for _, pass := range []string{"cold", "warm"} {
								got, gotStats, err := Eval(openReader(t, be), aq, Options{Memo: memo, Store: name})
								if err != nil {
									t.Fatal(err)
								}
								if diff := sameEval(got, want, gotStats, wantStats); diff != "" {
									t.Errorf("%s %q %q noprune=%v cap %d, %d workers, %s: %s",
										name, rules, spec, noPrune, maxGroups, workers, pass, diff)
								}
							}
						})
					}
				}
			}
		}
	}
	if reg.Counter("agg.memo_hits").Load() == 0 {
		t.Fatal("no Eval was served by the memo")
	}
}

// memoCheck compares, over a reader opened now, the Evals of a few
// queries through memo with the same Evals without one.
func memoCheck(t *testing.T, memo *Memo, be store.Backend, storeID, when string) {
	t.Helper()
	for _, text := range []string{"agg count by machine window 100ms", "top 3 pid by sum(msgLength)", "machine=2\nagg p95(msgLength) by pid"} {
		aq, err := Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := Eval(openReader(t, be), aq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := Eval(openReader(t, be), aq, Options{Memo: memo, Store: storeID})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameEval(got, want, gotStats, wantStats); diff != "" {
			t.Fatalf("%s, %q: %s", when, text, diff)
		}
	}
}

// memoRecord is, as a batch of one, the i-th record of the stores
// TestMemoNeverStale grows: four machines, three pids, a message length,
// cpuTime 10 ms apart from base on.
func memoRecord(i, base int) []store.BatchRec {
	e := trace.Event{
		Type: meter.EvSend, Event: meter.EvSend.String(), Machine: i%4 + 1, CPUTime: int64(base + 10*i),
		Fields: map[string]uint64{"pid": uint64(100 + i%3), "sock": 3, "msgLength": uint64(i * 37 % 1000)},
		Names:  map[string]meter.Name{},
	}
	m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: uint32(e.Type), PID: uint32(e.Fields["pid"])}
	return []store.BatchRec{{Meta: m, Line: []byte(e.Format()), Slots: slotsOf(&e)}}
}

// TestMemoNeverStale: whatever happens to a store between two Evals —
// compaction, archival, the recovery of an unsealed tail into a sealed
// segment of the same name, the directory removed and rebuilt with the
// same names over other records — the Eval through a
// memo that saw the store before is the Eval without one. And a segment
// whose scan fails is never kept: every Eval of it fails.
func TestMemoNeverStale(t *testing.T) {
	grow := func(t *testing.T, cfg store.Config, rounds int, counter string) {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		be := store.NewMemBackend()
		st, err := store.Open(be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(MemoCost, obs.NewRegistry())
		for r, i := 0, 0; r < rounds; r++ {
			for end := i + 30; i < end; i++ {
				if err := st.AppendBatch(memoRecord(i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if r%2 == 0 { // else the round stays in unsealed tails
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			memoCheck(t, memo, be, "dir", fmt.Sprintf("round %d", r))
		}
		if reg.Counter(counter).Load() == 0 {
			t.Fatalf("%s never moved", counter)
		}
		if memo.hits.Load() == 0 {
			t.Fatal("the memo never served a table")
		}
	}
	t.Run("compaction", func(t *testing.T) {
		grow(t, store.Config{Shards: 2, SegmentCap: 1 << 20, CompactMin: 3}, 12, "store.compactions")
	})
	t.Run("archival", func(t *testing.T) {
		grow(t, store.Config{Shards: 2, SegmentCap: 1024, ArchiveAfter: 300}, 12, "store.archive_runs")
	})

	t.Run("recovery", func(t *testing.T) {
		be := store.NewMemBackend()
		cfg := store.Config{Shards: 2, SegmentCap: 1 << 20}
		st, err := store.Open(be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if i == 120 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.AppendBatch(memoRecord(i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		memo := NewMemo(MemoCost, obs.NewRegistry())
		unsealed := map[string]bool{}
		for _, shard := range openReader(t, be).Shards() {
			for _, rs := range shard {
				if !rs.Sealed {
					unsealed[rs.Name] = true
				}
			}
		}
		memoCheck(t, memo, be, "dir", "before the reopen")
		reg := obs.NewRegistry()
		cfg.Obs = reg
		if _, err := store.Open(be, cfg); err != nil {
			t.Fatal(err)
		}
		resealed := 0
		for _, shard := range openReader(t, be).Shards() {
			for _, rs := range shard {
				if unsealed[rs.Name] && rs.Tail() != nil {
					resealed++
				}
			}
		}
		if resealed == 0 || reg.Counter("store.recovered").Load() == 0 {
			t.Fatalf("no unsealed tail came back sealed under its name (%d recovered)", reg.Counter("store.recovered").Load())
		}
		memoCheck(t, memo, be, "dir", "after the reopen")
	})

	t.Run("rebuilt", func(t *testing.T) {
		memo := NewMemo(MemoCost, obs.NewRegistry())
		build := func(base int) (store.Backend, map[string]bool) {
			be := store.NewMemBackend()
			st, err := store.Open(be, store.Config{Shards: 2, SegmentCap: 1024})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				if err := st.AppendBatch(memoRecord(i+base, base)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			listed, err := be.List()
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			for _, e := range listed {
				set[e.Name] = true
			}
			return be, set
		}
		before, names := build(0)
		memoCheck(t, memo, before, "dir", "the first directory")
		after, again := build(7)
		same := 0
		for n := range again {
			if names[n] {
				same++
			}
		}
		if same == 0 {
			t.Fatal("the rebuilt directory reuses no segment name")
		}
		memoCheck(t, memo, after, "dir", "the rebuilt directory")
	})

	t.Run("scan error", func(t *testing.T) {
		be := buildStore(t, 400, store.Config{Shards: 1, SegmentCap: 1024})
		listed, err := be.List()
		if err != nil {
			t.Fatal(err)
		}
		victim := listed[len(listed)/2].Name
		data, err := be.Read(victim)
		if err != nil {
			t.Fatal(err)
		}
		flipped := bytes.Clone(data)
		flipped[12] ^= 0x40 // inside the stream: its CRC fails, the tail still verifies
		if err := be.Remove(victim); err != nil {
			t.Fatal(err)
		}
		if err := be.Create(victim, flipped); err != nil {
			t.Fatal(err)
		}
		for _, shard := range openReader(t, be).Shards() {
			for _, rs := range shard {
				if rs.Name == victim && rs.Tail() == nil {
					t.Fatal("the damaged segment lost its tail; the case tests nothing")
				}
			}
		}
		aq, err := Compile("agg count by machine")
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(MemoCost, obs.NewRegistry())
		for pass := 0; pass < 3; pass++ {
			if _, _, err := Eval(openReader(t, be), aq, Options{Memo: memo, Store: "dir"}); err == nil {
				t.Fatalf("pass %d: an Eval over a damaged stream succeeded", pass)
			}
			for k := range memo.tables {
				if k.name == victim {
					t.Fatalf("pass %d: the damaged segment was kept", pass)
				}
			}
		}
	})
}

// TestMemoCounters: every scanned segment that has a tail is one memo
// hit or one miss — misses the first time, hits after — and the memo
// changes neither agg.records nor agg.fold_groups; agg.memo_groups holds
// the groups of the tables kept.
func TestMemoCounters(t *testing.T) {
	be := foldStore(t, 4, 1200)
	aq, err := Compile("machine=1\nmachine=2\nagg count by machine window 100ms")
	if err != nil {
		t.Fatal(err)
	}
	plain, memoed := obs.NewRegistry(), obs.NewRegistry()
	memo := NewMemo(MemoCost, memoed)
	withTail, scanned, groups := 0, 0, 0
	for pass := 0; pass < 3; pass++ {
		rd := openReader(t, be)
		segs, _ := query.Admitted(nil, rd, aq.Sel)
		for _, rs := range segs {
			if rs.Tail() != nil {
				withTail++
			}
		}
		_, stats, err := Eval(rd, aq, Options{Obs: plain})
		if err != nil {
			t.Fatal(err)
		}
		scanned += stats.Scanned
		if _, _, err := Eval(rd, aq, Options{Obs: memoed, Memo: memo, Store: "dir"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range memo.tables {
		groups += len(tbl.seg.groups)
	}
	hits, misses := memoed.Counter("agg.memo_hits").Load(), memoed.Counter("agg.memo_misses").Load()
	if hits+misses != int64(withTail) || misses != int64(withTail/3) || withTail == 0 || withTail == scanned {
		t.Errorf("%d hits + %d misses over %d scanned segments with a tail (%d scanned)", hits, misses, withTail, scanned)
	}
	for _, name := range []string{"agg.records", "agg.fold_groups", "agg.runs"} {
		if a, b := plain.Counter(name).Load(), memoed.Counter(name).Load(); a != b {
			t.Errorf("%s: %d without the memo, %d with it", name, a, b)
		}
	}
	if g := memoed.Gauge("agg.memo_groups").Load(); g != int64(groups) || g == 0 {
		t.Errorf("agg.memo_groups = %d, the kept tables hold %d groups", g, groups)
	}
	if c := memoed.Counter("agg.memo_clears").Load(); c != 0 {
		t.Errorf("agg.memo_clears = %d under a bound nothing reached", c)
	}
}

// TestMemoBound: a memo at its bound is emptied before the next table,
// never holds more than the bound, and keeps no table that alone
// exceeds it; its answers stay the scan's.
func TestMemoBound(t *testing.T) {
	be := foldStore(t, 5, 1200)
	reg := obs.NewRegistry()
	memo := NewMemo(12, reg)
	for pass := 0; pass < 3; pass++ {
		memoCheck(t, memo, be, "dir", fmt.Sprintf("pass %d", pass))
		cost := 0
		for _, tbl := range memo.tables {
			if len(tbl.seg.groups) > 0 && tbl.seg.groups[0].hist != nil {
				t.Fatal("a sketched table, which costs more than the bound, was kept")
			}
			cost += 1 + len(tbl.seg.groups)
		}
		if cost != memo.cost || cost > 12 {
			t.Fatalf("pass %d: the tables cost %d, the memo counts %d, the bound is 12", pass, cost, memo.cost)
		}
	}
	if reg.Counter("agg.memo_clears").Load() == 0 {
		t.Fatal("the memo was never emptied")
	}
}

// TestMemoWarmEvalNoAlloc gates the hit path: with every table in the
// memo, an Eval over 64 sealed segments allocates what an Eval over one
// does — nothing per segment, neither an allocation nor a byte.
func TestMemoWarmEvalNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	aq, err := Compile("agg count by machine")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(segments int) (allocs, bytes float64) {
		be := store.NewMemBackend()
		st, err := store.Open(be, store.Config{Shards: 1, SegmentCap: 1 << 20, CompactMin: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < segments; s++ {
			for i := 0; i < 40; i++ {
				if err := st.AppendBatch(memoRecord(40*s+i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		rd := openReader(t, be)
		if n := rd.NumSegments(); n != segments {
			t.Fatalf("%d segments, want %d", n, segments)
		}
		memo := NewMemo(MemoCost, obs.NewRegistry())
		eval := func() {
			if _, _, err := Eval(rd, aq, Options{Memo: memo, Store: "dir"}); err != nil {
				t.Fatal(err)
			}
		}
		eval()
		atWorkers(1, func() {
			allocs, bytes = testing.AllocsPerRun(50, eval), math.Inf(1)
			for w := 0; w < 3; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 50; i++ {
					eval()
				}
				runtime.ReadMemStats(&after)
				bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/50)
			}
		})
		if hits := memo.hits.Load(); hits != 201*int64(segments) {
			t.Fatalf("%d hits over 201 warm Evals of %d segments", hits, segments)
		}
		return allocs, bytes
	}
	oneA, oneB := measure(1)
	manyA, manyB := measure(64)
	t.Logf("a warm Eval: %.1f allocations and %.0f bytes over one segment, %.1f and %.0f over 64", oneA, oneB, manyA, manyB)
	if manyA != oneA || manyB > oneB+32 {
		t.Fatalf("a warm Eval costs %.1f allocations and %.0f bytes over 64 segments, %.1f and %.0f over one", manyA, manyB, oneA, oneB)
	}
}

// TestMemoKeySeparatesQueries: the memo's key spells the query and the
// store out whole. Queries that differ in their rules, spec or pruning do
// not share tables, and neither do two stores, even of equal files.
func TestMemoKeySeparatesQueries(t *testing.T) {
	be := foldStore(t, 6, 600)
	memo := NewMemo(MemoCost, obs.NewRegistry())
	aq, err := Compile("agg count by machine")
	if err != nil {
		t.Fatal(err)
	}
	for _, storeID := range []string{"a", "b"} {
		if _, _, err := Eval(openReader(t, be), aq, Options{Memo: memo, Store: storeID}); err != nil {
			t.Fatal(err)
		}
	}
	if hits := memo.hits.Load(); hits != 0 {
		t.Fatalf("store b was served %d of store a's tables", hits)
	}
	for _, text := range []string{
		"agg count by machine", "agg count by pid", "agg count by machine window 100ms",
		"machine=2\nagg count by machine", "machine=3\nagg count by machine", "machine=#3\nagg count by machine",
	} {
		for _, noPrune := range []bool{false, true} {
			aq, err := Compile(text)
			if err != nil {
				t.Fatal(err)
			}
			aq.Sel.NoPrune = noPrune
			want, wantStats, err := Eval(openReader(t, be), aq, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := Eval(openReader(t, be), aq, Options{Memo: memo, Store: "dir"})
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameEval(got, want, gotStats, wantStats); diff != "" {
				t.Errorf("%q noprune=%v after the others: %s", strings.ReplaceAll(text, "\n", " / "), noPrune, diff)
			}
		}
	}
}

// TestAggEvalNoAllocPerGroup gates the daemon's side of an aggregate:
// with both segments' tables in the memo, an Eval, the encoding of its
// partial into a kept buffer and the partial's release allocate as often
// at 1 000 groups as at 10, within one — no map entry, no *Group and no
// table grown per group.
func TestAggEvalNoAllocPerGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	aq, err := Compile("agg count by cpuTime")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(groups int) float64 {
		be := store.NewMemBackend()
		st, err := store.Open(be, store.Config{Shards: 1, SegmentCap: 1 << 20, CompactMin: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < groups; i++ { // one cpuTime each
			if err := st.AppendBatch(memoRecord(i, 0)); err != nil {
				t.Fatal(err)
			}
			if i == groups/2 || i == groups-1 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		rd, memo := openReader(t, be), NewMemo(MemoCost, obs.NewRegistry())
		var buf []byte
		eval := func() {
			p, _, err := Eval(rd, aq, Options{Memo: memo, Store: "dir"})
			if err != nil || len(p.Groups) != groups {
				t.Fatalf("%v, %d groups, want %d", err, len(p.Groups), groups)
			}
			buf = p.AppendBinary(buf[:0])
			p.Release()
		}
		eval()
		var allocs float64
		atWorkers(1, func() { allocs = testing.AllocsPerRun(50, eval) })
		if memo.hits.Load() != 51*2 {
			t.Fatalf("%d memo hits over 51 Evals of 2 segments", memo.hits.Load())
		}
		return allocs
	}
	few, many := measure(10), measure(1000)
	t.Logf("an Eval, its encoding and release: %.0f allocations at 10 groups, %.0f at 1000", few, many)
	if many > few+1 {
		t.Fatalf("an Eval of 1000 groups allocates %.0f times, of 10 groups %.0f", many, few)
	}
}
