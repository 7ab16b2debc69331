package query

import (
	"math/rand"
	"testing"

	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestParallelMemoryRatio gates the executor's memory behavior: adding
// a second worker must not multiply bytes per query. An earlier
// collector folded every segment through trace.Merge — a fresh
// allocation of the whole shard buffer per segment — and each scan
// grew a throwaway matched slice, which together took two workers to
// 2.4x the bytes of one. With pooled scan buffers and a single
// append+sort fold the ratio is about 1.2x, but how often a GC empties
// the pools mid-measurement moves it: twenty recorded runs on the
// 2-core reference host read 1.09-1.33x (median 1.20x, two at or over
// the old 1.3x line). The bound is 1.5x: above every recorded run and
// well under the 2.4x this test exists to catch.
// scripts/bench_filter.sh holds the same line on BENCH_filter.json.
func TestParallelMemoryRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	if testing.Short() {
		t.Skip("benchmark-based gate")
	}
	rng := rand.New(rand.NewSource(7))
	be := buildRandomStore(t, rng, 4000, store.Config{Shards: 8, SegmentCap: 256}, false)
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(workers int) (bytesPerOp int64) {
		q, err := Compile("")
		if err != nil {
			t.Fatal(err)
		}
		q.NoPrune = true
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := run(rd, q, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Matched != 4000 {
					b.Fatalf("scan returned %d records, want 4000", res.Stats.Matched)
				}
			}
		})
		return r.AllocedBytesPerOp()
	}
	one := measure(1)
	two := measure(2)
	ratio := float64(two) / float64(one)
	t.Logf("workers=2 %d B/op, workers=1 %d B/op: %.3fx", two, one, ratio)
	if ratio > 1.5 {
		t.Fatalf("workers=2 allocates %d bytes/op vs %d at workers=1 (%.2fx), want <= 1.5x",
			two, one, ratio)
	}
}

// TestScanSegmentZeroAllocs gates the record-selection tier: scanning
// a sealed compressed segment — decode, parse into the view, evaluate
// rules — allocates nothing once the pooled decoder and view are warm,
// however many records it visits. Only a record that ships costs
// memory, and this rule ships none.
func TestScanSegmentZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	be := buildRandomStore(t, rand.New(rand.NewSource(13)), 2000,
		store.Config{Shards: 1, SegmentCap: 1 << 20}, false)
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	rs := rd.Shards()[0][0]
	if !rs.Sealed || len(rd.Shards()[0]) != 1 {
		t.Fatalf("fixture is not one sealed segment: sealed=%v, %d segments", rs.Sealed, len(rd.Shards()[0]))
	}
	q, err := Compile("msgLength>=300,sockName=peerName\npid=100,newPid=*,cpuTime>99999")
	if err != nil {
		t.Fatal(err)
	}
	q.NoPrune = true
	var st Stats
	scan := func() {
		st, err = q.ScanSegment(rs, func(*trace.View, map[string]bool) { t.Error("no record should match") })
		if err != nil {
			t.Fatal(err)
		}
	}
	scan() // warm the pools
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("ScanSegment allocates %.0f times per %d-record segment, want 0", allocs, st.Records)
	}
	if st.Records != 2000 || st.Matched != 0 || st.BadLines != 0 {
		t.Fatalf("scan stats %+v, want 2000 records, none matched or bad", st)
	}
}

// TestRunShipsNoAllocPerRecord: what a warm Run allocates does not grow
// with the records it ships — each line is written into pooled buffers
// and the result is one allocation — so a query that ships a thousand
// records allocates within a small constant of one that ships ten over
// the same segments.
func TestRunShipsNoAllocPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; pooled reuse not measurable")
	}
	be, _ := buildStore(t, 1000, store.Config{SegmentCap: 4096})
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rules string, ships int) float64 {
		q, err := Compile(rules)
		if err != nil {
			t.Fatal(err)
		}
		q.NoPrune = true // both scan every segment
		var res *Result
		run := func() {
			if res, err = Run(rd, q); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		n := testing.AllocsPerRun(20, run)
		if res.Stats.Matched != ships || res.Stats.Typed != 1000 {
			t.Fatalf("%q: %+v, want %d matched of 1000 typed", rules, res.Stats, ships)
		}
		return n
	}
	few, many := allocs("cpuTime<100", 10), allocs("cpuTime<10000", 1000)
	t.Logf("allocations per Run: %.0f shipping 10 records, %.0f shipping 1000", few, many)
	if many > few+4 {
		t.Fatalf("shipping 1000 records allocates %.0f times, 10 records %.0f: it grows with what ships", many, few)
	}
}
