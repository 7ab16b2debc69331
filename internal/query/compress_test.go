package query

import (
	"math/rand"
	"testing"

	"dpm/internal/store"
)

// formatEvents renders just the records — order and bytes. Stats
// legitimately differ across storage layouts (block counts follow the
// block size), so byte-identity is asserted on the records alone.
func formatEvents(res *Result) string { return string(res.Lines) }

// TestCompressedRunEquivalence stores one randomized record stream two
// ways — a block per segment (the footer index is the only zone map),
// and tiny blocks (many zone maps per segment) — and asserts every rule
// set returns byte-identical events from both, at workers 1/2/8.
// Segment capacity is accounted in v1-equivalent bytes whatever the
// block size, so the rotation layout (and thus result order) is the
// same; only the blocks differ. (That v1 files answer as they did:
// TestAnswersByteIdentical, over the checked-in v1 stores.)
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
		block    int
		n        int
		unsealed bool
	}{
		{"3shards", 3, 2048, 512, 400, false},
		{"8shards-tiny-blocks", 8, 4096, 256, 500, false},
		{"unsealed-tail", 4, 2048, 512, 400, true},
		{"one-big-segment", 2, 1 << 20, 1024, 300, false},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			// Identical record streams into each store: same seed.
			flat := buildRandomStore(t, rand.New(rand.NewSource(99)), lay.n,
				store.Config{Shards: lay.shards, SegmentCap: lay.cap}, lay.unsealed)
			comp := buildRandomStore(t, rand.New(rand.NewSource(99)), lay.n,
				store.Config{Shards: lay.shards, SegmentCap: lay.cap,
					BlockTarget: lay.block}, lay.unsealed)
			rdFlat, err := store.OpenReader(flat)
			if err != nil {
				t.Fatal(err)
			}
			rdComp, err := store.OpenReader(comp)
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
					res, err := Run(rdFlat, q)
					if err != nil {
						t.Fatalf("rule %d flat: %v", ri, err)
					}
					want := formatEvents(res)
					for _, workers := range workerCounts {
						res, err := run(rdComp, q, workers)
						if err != nil {
							t.Fatalf("rule %d compressed workers=%d: %v", ri, workers, err)
						}
						if got := formatEvents(res); got != want {
							t.Fatalf("rule %d noPrune=%v workers=%d: compressed scan diverges from flat:\n--- flat\n%s\n--- compressed\n%s",
								ri, noPrune, workers, want, got)
						}
					}
				}
			}
		})
	}
}

// TestBlockPruningPrunes is the sanity check behind the equivalence:
// on a selective query over a compressed multi-block store, pruning
// must actually skip blocks (else the test above proves nothing about
// the pruned decode path).
func TestBlockPruningPrunes(t *testing.T) {
	be := buildRandomStore(t, rand.New(rand.NewSource(5)), 500,
		store.Config{Shards: 2, SegmentCap: 1 << 20, BlockTarget: 512}, false)
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("cpuTime>=1000,cpuTime<1400")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(rd, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksPruned == 0 {
		t.Fatalf("selective query pruned no blocks: %+v", res.Stats)
	}
	if len(res.Lines) == 0 {
		t.Fatal("selective query matched nothing")
	}
}
