package kernel

import "sync"

// This file implements the kernel's wait machinery: intrusive wait
// lists on sockets in place of the close-and-replace channel the seed
// kernel used. A blocked system call enqueues a pooled waiter node on
// the socket it needs and sleeps on the node's channel; a state change
// walks the list and delivers a non-blocking wakeup to each node. The
// scheme costs zero allocations per wait in steady state: the nodes
// and their channels are pooled.

// waiter is one parked wait: an intrusive node on a socket's wait
// list. The blocked system call sleeps on ch.
type waiter struct {
	prev, next *waiter
	ch         chan struct{} // cap 1; wakeups are non-blocking sends
	queued     bool          // guarded by the owning socket's mutex
}

// fire delivers the wakeup. It must never block: it is called while
// holding the socket's mutex.
func (w *waiter) fire() {
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// waitList is an intrusive doubly-linked list of waiters, embedded in
// Socket and guarded by the socket's mutex.
type waitList struct {
	head, tail *waiter
}

// push appends w to the list.
func (l *waitList) push(w *waiter) {
	w.prev = l.tail
	w.next = nil
	if l.tail != nil {
		l.tail.next = w
	} else {
		l.head = w
	}
	l.tail = w
	w.queued = true
}

// remove unlinks w if it is still queued; safe to call after a
// broadcast already popped it.
func (l *waitList) remove(w *waiter) {
	if !w.queued {
		return
	}
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		l.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		l.tail = w.prev
	}
	w.prev, w.next = nil, nil
	w.queued = false
}

// wakeAll pops every waiter and fires it — the broadcast that replaced
// closing a shared channel. Waiters left with a pending token they did
// not consume (a racing timeout, say) drain it on reuse.
//
// It stays out of line: inlined into every broadcastLocked site, it
// grew Connect's frame by 16 bytes, enough to make a daemon request's
// goroutine grow its stack on every create (runtime.newstack 1.8 % →
// 5.3 % of control_churn's CPU, its job turnaround 9 % slower).
//
//go:noinline
func (l *waitList) wakeAll() {
	for w := l.head; w != nil; {
		next := w.next
		w.prev, w.next = nil, nil
		w.queued = false
		w.fire()
		w = next
	}
	l.head, l.tail = nil, nil
}

// waiterPool recycles single-wait nodes, channel included, so a
// blocking system call allocates nothing in steady state.
var waiterPool = sync.Pool{
	New: func() any { return &waiter{ch: make(chan struct{}, 1)} },
}

// getWaiter takes a node from the pool with any stale wakeup drained.
func getWaiter() *waiter {
	w := waiterPool.Get().(*waiter)
	select {
	case <-w.ch:
	default:
	}
	return w
}

// putWaiter returns a node to the pool. The caller must have removed
// it from any wait list first.
func putWaiter(w *waiter) { waiterPool.Put(w) }

// selectParking carries the shared wake channel and the per-socket
// nodes of one Select call: all nodes point at one channel, because a
// single sleeper re-checks every watched socket on any wakeup. Pooled
// so a Select allocates only its argument and result slices.
type selectParking struct {
	ch    chan struct{}
	nodes []waiter
}

var selectPool = sync.Pool{
	New: func() any { return &selectParking{ch: make(chan struct{}, 1)} },
}

// getSelectParking takes a parking set sized for n sockets, drained of
// stale wakeups.
func getSelectParking(n int) *selectParking {
	sp := selectPool.Get().(*selectParking)
	select {
	case <-sp.ch:
	default:
	}
	if cap(sp.nodes) < n {
		sp.nodes = make([]waiter, n)
	}
	sp.nodes = sp.nodes[:n]
	for i := range sp.nodes {
		sp.nodes[i] = waiter{ch: sp.ch}
	}
	return sp
}

// putSelectParking returns a parking set to the pool. Every node must
// already be off its wait list.
func putSelectParking(sp *selectParking) { selectPool.Put(sp) }
