package obs

import (
	"slices"
	"sync"
	"testing"
)

// FreeList keeps entries — byte arrays, or objects that own arrays —
// between uses, so that a path which needs one takes it back instead of
// growing a new one. Unlike a sync.Pool it keeps them across garbage
// collections: at most Count entries and Bytes in all, each weighed by
// Size. Take hands out the smallest entry that holds what is asked, of
// equal ones the last put back, or on a miss a new one an eighth
// larger: the next request of the same kind, a few bytes longer as its
// counters grow digits, still fits it. Lists are process-wide; their
// traffic is counted on the registry of whoever takes (Stats).
type FreeList[T any] struct {
	Name         string        // the metrics are mem.<Name>.hits, misses and dropped
	Count, Bytes int           // the most entries, and bytes, held
	Size         func(T) int   // the bytes an entry holds
	New          func(n int) T // an entry that holds n bytes
	Poison       func(T)       // in a test binary, overwrites what Put is given

	mu   sync.Mutex
	free []T
	held int
}

// NewByteList returns a list of byte arrays, weighed by capacity; the
// taker reslices what Take returns.
func NewByteList(name string, count, bytes int) *FreeList[[]byte] {
	return &FreeList[[]byte]{Name: name, Count: count, Bytes: bytes,
		Size: func(b []byte) int { return cap(b) },
		New:  func(n int) []byte { return make([]byte, 0, n) }, Poison: PoisonBytes}
}

// FreeStats counts one registry's traffic with a FreeList: [0] takes
// that found an entry, [1] takes that made one, and [2] entries put back
// that the list had no room for. A nil *FreeStats counts nothing.
type FreeStats [3]*Counter

// Stats resolves the list's counters in r, once a registry, so that a
// path may resolve them on every call; a nil r counts nothing.
func (l *FreeList[T]) Stats(r *Registry) *FreeStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.lists[l.Name]
	if st == nil {
		p := "mem." + l.Name + "."
		st = &FreeStats{lookup(&r.counters, p+"hits"), lookup(&r.counters, p+"misses"), lookup(&r.counters, p+"dropped")}
		if r.lists == nil {
			r.lists = make(map[string]*FreeStats)
		}
		r.lists[l.Name] = st
	}
	return st
}

func (s *FreeStats) count(i int) {
	if s != nil {
		s[i].Inc()
	}
}

// Take removes and returns the smallest entry that holds n bytes, or
// makes one that holds n+n/8.
func (l *FreeList[T]) Take(n int, st *FreeStats) T {
	l.mu.Lock()
	best := -1
	for i, v := range l.free {
		if m := l.Size(v); m >= n && (best < 0 || m <= l.Size(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		st.count(1)
		return l.New(n + n/8)
	}
	v := l.free[best]
	l.free = slices.Delete(l.free, best, best+1)
	l.held -= l.Size(v)
	l.mu.Unlock()
	st.count(0)
	return v
}

// Put gives back an entry Take returned, or one grown from it; one the
// list has no room for goes to the collector. Nothing may use v after.
func (l *FreeList[T]) Put(v T, st *FreeStats) {
	if poisoning && l.Poison != nil {
		l.Poison(v)
	}
	n := l.Size(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.Count && l.held+n <= l.Bytes {
		l.free, l.held = append(l.free, v), l.held+n
		return
	}
	st.count(2)
}

// Held returns the entries the list holds and their bytes.
func (l *FreeList[T]) Held() ([]T, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.free), l.held
}

// poisoning turns on Put's overwrite: in test binaries only.
var poisoning = testing.Testing()

// PoisonBytes overwrites the whole array of b in a test binary, so that
// what still reads it once it is given back reads garbage.
func PoisonBytes(b []byte) {
	if b = b[:cap(b)]; poisoning {
		for i := range b {
			b[i] = 0xa5
		}
	}
}
