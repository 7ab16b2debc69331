package analysis

// fifo is a head-indexed queue over a slice: pops advance an index
// instead of reslicing, and the buffer compacts once the dead prefix
// dominates, so a warmed-up queue pushes and pops with no allocation —
// the property the tap path's alloc gate depends on.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// peek returns the oldest entry; only valid when len() > 0.
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head >= 32 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// firstMatch returns the index (relative to the head) of the oldest
// entry satisfying fn, scanning at most limit entries; -1 when none.
func (f *fifo[T]) firstMatch(limit int, fn func(*T) bool) int {
	n := f.len()
	if n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		if fn(&f.buf[f.head+i]) {
			return i
		}
	}
	return -1
}

// at returns the i'th entry (relative to the head).
func (f *fifo[T]) at(i int) *T { return &f.buf[f.head+i] }

// remove deletes the i'th entry (relative to the head), preserving
// order.
func (f *fifo[T]) remove(i int) {
	idx := f.head + i
	f.buf = append(f.buf[:idx], f.buf[idx+1:]...)
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
}

// extract walks the queue oldest-first, calling fn on each entry;
// entries for which fn returns true are removed (fn may consume them),
// the rest keep their order.
func (f *fifo[T]) extract(fn func(*T) bool) {
	w := f.head
	for i := f.head; i < len(f.buf); i++ {
		if fn(&f.buf[i]) {
			continue
		}
		f.buf[w] = f.buf[i]
		w++
	}
	f.buf = f.buf[:w]
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
}
