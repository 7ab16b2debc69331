package query

import (
	"math/rand"
	"testing"

	"dpm/internal/store"
)

// formatEvents renders just the records — order and bytes.
func formatEvents(res *Result) string { return string(res.Lines) }

// TestCompressedRunEquivalence stores randomized record streams in
// several layouts — few shards; many shards, their segments a tiny
// stored DEFLATE block per record appended; an unsealed tail; one big
// segment — and asserts every rule set returns byte-identical events at
// workers 1/2/8 as at the default count, pruned or not. (That
// v1 files answer as they did: TestAnswersByteIdentical, over the
// checked-in v1 stores.)
func TestCompressedRunEquivalence(t *testing.T) {
	rules := []string{
		"",
		"machine=2",
		"cpuTime>=500,cpuTime<2000",
		"type=4\ntype=8",
		"pid=101,machine=#*",
		"msgLength>=300,cpuTime=#*",
		"machine=1,machine=2", // self-contradictory: prunes everything
		"cpuTime>=1000\nmachine=3,cpuTime<3000",
		"msgLength=#*,pid=#*",
		"sockName=#*,peerName=#*\nnewPid=#*",
		"absent=*",
		"sockName=peerName",
		"sockName!=peerName,sock=#*",
	}
	layouts := []struct {
		name     string
		shards   int
		cap      int
		n        int
		unsealed bool
	}{
		{"3shards", 3, 2048, 400, false},
		{"8shards-tiny-blocks", 8, 4096, 500, false},
		{"unsealed-tail", 4, 2048, 400, true},
		{"one-big-segment", 2, 1 << 20, 300, false},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			be := buildRandomStore(t, rand.New(rand.NewSource(99)), lay.n,
				store.Config{Shards: lay.shards, SegmentCap: lay.cap}, lay.unsealed)
			rd, err := store.OpenReader(be)
			if err != nil {
				t.Fatal(err)
			}
			for ri, text := range rules {
				for _, noPrune := range []bool{false, true} {
					q, err := Compile(text)
					if err != nil {
						t.Fatal(err)
					}
					q.NoPrune = noPrune
					res, err := Run(rd, q)
					if err != nil {
						t.Fatalf("rule %d: %v", ri, err)
					}
					want := formatEvents(res)
					for _, workers := range workerCounts {
						res, err := run(rd, q, workers)
						if err != nil {
							t.Fatalf("rule %d workers=%d: %v", ri, workers, err)
						}
						if got := formatEvents(res); got != want {
							t.Fatalf("rule %d noPrune=%v workers=%d: scan diverges from the default worker count:\n--- default\n%s\n--- workers=%d\n%s",
								ri, noPrune, workers, want, workers, got)
						}
					}
				}
			}
		})
	}
}
