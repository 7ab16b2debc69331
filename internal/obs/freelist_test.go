package obs

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestFreeListTakesSmallestThatFits: a take gets the smallest entry that
// holds what it asks for, of equal ones the last put back; a miss makes
// one an eighth larger; an entry past either cap is dropped; and each is
// counted on the taker's registry.
func TestFreeListTakesSmallestThatFits(t *testing.T) {
	l := NewByteList("test", 3, 100)
	reg := NewRegistry()
	st := l.Stats(reg)
	for _, n := range []int{40, 20, 30, 20} {
		l.Put(make([]byte, 0, n), st) // the last is past the count cap
	}
	if b := l.Take(25, st); cap(b) != 30 {
		t.Fatalf("a take of 25 got %d bytes, not the 30", cap(b))
	}
	if b := l.Take(10, st); cap(b) != 20 {
		t.Fatalf("a take of 10 got %d bytes, not the 20", cap(b))
	}
	if b := l.Take(50, st); cap(b) != 56 {
		t.Fatalf("a take no entry holds got %d bytes, want 56", cap(b))
	}
	a, b := make([]byte, 0, 40), make([]byte, 0, 40)
	l.Put(a, nil)
	l.Put(b, st)
	if held, bytes := l.Held(); len(held) != 2 || bytes != 80 {
		t.Fatalf("held %d entries and %d bytes, want 2 and 80: the third is past the byte cap", len(held), bytes)
	}
	if got := l.Take(40, st); unsafe.SliceData(got[:1]) != unsafe.SliceData(a[:1]) {
		t.Fatal("of two equal entries a take did not get the last put back")
	}
	for name, want := range map[string]int64{"hits": 3, "misses": 1, "dropped": 2} {
		if got := reg.Counter("mem.test." + name).Load(); got != want {
			t.Errorf("mem.test.%s = %d, want %d", name, got, want)
		}
	}
	if b[:1][0] != 0xa5 || b[:40][39] != 0xa5 {
		t.Error("in a test binary Put does not overwrite what it is given")
	}
}

// TestFreeListKeptAcrossGCNoAlloc: an entry put back survives two
// collections, and the take after them is a hit that allocates nothing.
func TestFreeListKeptAcrossGCNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	l := NewByteList("test", 4, 1<<20)
	reg := NewRegistry()
	st := l.Stats(reg)
	l.Put(make([]byte, 0, 64<<10), st)
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(10, func() { l.Put(l.Take(64<<10, st), st) }); n != 0 {
		t.Fatalf("a take and put of a kept entry allocate %v times", n)
	}
	if hits, misses := reg.Counter("mem.test.hits").Load(), reg.Counter("mem.test.misses").Load(); hits != 11 || misses != 0 {
		t.Fatalf("%d hits and %d misses, want 11 and 0", hits, misses)
	}
}

// TestFreeListConcurrentWithinCaps takes and puts entries of random
// sizes from eight goroutines at once: the list never holds more than
// its count cap or its byte cap, and the bytes it counts are the sizes
// of what it holds.
func TestFreeListConcurrentWithinCaps(t *testing.T) {
	l := NewByteList("test", 6, 40<<10)
	check := func() {
		held, bytes := l.Held()
		sum := 0
		for _, b := range held {
			sum += cap(b)
		}
		if len(held) > l.Count || bytes > l.Bytes || sum != bytes {
			t.Errorf("held %d entries, %d bytes (counted %d)", len(held), sum, bytes)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine [][]byte
			for i := 0; i < 2000; i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					l.Put(mine[len(mine)-1], nil)
					mine = mine[:len(mine)-1]
				} else {
					mine = append(mine, l.Take(1+rng.Intn(16<<10), nil))
				}
				if i%64 == 0 {
					check()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	check()
}
