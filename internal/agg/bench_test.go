package agg

import (
	"testing"

	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
)

// benchText is the reference aggregate query for the push-down
// benchmark: a cluster-wide per-machine traffic profile.
const benchText = "agg sum(msgLength) by machine window 1s"

// shippedBytes measures what the same answer costs without push-down:
// every matching record crosses the wire and the caller aggregates —
// the only query shape the daemon offered before TAggReq.
func shippedBytes(tb testing.TB, be store.Backend) int {
	tb.Helper()
	q, err := query.Compile("")
	if err != nil {
		tb.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := query.Run(rd, q)
	if err != nil {
		tb.Fatal(err)
	}
	return len(res.Lines) - res.Stats.Matched // each line less its newline
}

// pushdownBytes measures the wire cost with push-down: one encoded
// partial per machine.
func pushdownBytes(tb testing.TB, be store.Backend) int {
	tb.Helper()
	p, _ := eval(tb, be, benchText)
	return len(p.MarshalBinary())
}

// TestAggPushdownBytesReduction pins the acceptance bar: pushing the
// aggregation to the data must move at least 10x fewer bytes than
// shipping the matching records.
func TestAggPushdownBytesReduction(t *testing.T) {
	be := buildStore(t, 5000, store.Config{SegmentCap: 4096})
	shipped := shippedBytes(t, be)
	pushed := pushdownBytes(t, be)
	t.Logf("ship-records=%d bytes, pushdown=%d bytes, reduction=%.1fx",
		shipped, pushed, float64(shipped)/float64(pushed))
	if pushed == 0 || shipped < 10*pushed {
		t.Fatalf("reduction below 10x: shipped=%d pushed=%d", shipped, pushed)
	}
}

// BenchmarkAggPushdown compares the two evaluation strategies for the
// same aggregate answer. The bytes_moved metric is the wire payload
// each strategy ships per evaluated query; scripts/bench_filter.sh
// records both sub-benchmarks in BENCH_filter.json.
func BenchmarkAggPushdown(b *testing.B) {
	be := buildStore(b, 5000, store.Config{SegmentCap: 4096})

	b.Run("pushdown", func(b *testing.B) {
		aq, err := Compile(benchText)
		if err != nil {
			b.Fatal(err)
		}
		rd, err := store.OpenReader(be)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _, err := Eval(rd, aq, Options{})
			if err != nil {
				b.Fatal(err)
			}
			bytes = len(p.MarshalBinary())
		}
		b.ReportMetric(float64(bytes), "bytes_moved")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*5000), "ns/record")
	})

	// The same Eval repeated through a daemon's memo, every table in it:
	// what a standing aggregate over unchanged sealed segments costs.
	b.Run("warm-memo", func(b *testing.B) {
		aq, err := Compile(benchText)
		if err != nil {
			b.Fatal(err)
		}
		rd, err := store.OpenReader(be)
		if err != nil {
			b.Fatal(err)
		}
		opt := Options{Memo: NewMemo(MemoCost, obs.NewRegistry()), Store: "bench"}
		if _, _, err := Eval(rd, aq, opt); err != nil {
			b.Fatal(err)
		}
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _, err := Eval(rd, aq, opt)
			if err != nil {
				b.Fatal(err)
			}
			bytes = len(p.MarshalBinary())
		}
		b.ReportMetric(float64(bytes), "bytes_moved")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*5000), "ns/record")
	})

	b.Run("ship-records", func(b *testing.B) {
		q, err := query.Compile("")
		if err != nil {
			b.Fatal(err)
		}
		rd, err := store.OpenReader(be)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := query.Run(rd, q)
			if err != nil {
				b.Fatal(err)
			}
			bytes = len(res.Lines) - res.Stats.Matched
		}
		b.ReportMetric(float64(bytes), "bytes_moved")
	})
}
