package kernel

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the cluster's event-driven process scheduler:
// the density engine that lets one Go process simulate thousands of
// machines. A Task is a process-table entry with *no goroutine* — a
// step function run by a small pooled worker set whenever the task has
// work, and parked on socket wait lists (waitq.go) or a shared timer
// heap in between. Goroutine count is therefore a function of the
// worker pool size, not of the task count: 10k idle tasks cost 10k
// small structs, zero goroutines, zero channels.
//
// A step must not block: tasks use the non-blocking syscall variants
// (TryAccept, TryRecvFrom) and return PollBlocked with watches
// registered via Task.Park / Task.Sleep. The run state machine
// (parked/queued/running/running-wake) guarantees a wakeup arriving at
// any point — including while the step runs — is never lost and never
// enqueues the task twice.

// Poll is a task step's report to the scheduler.
type Poll int

const (
	// PollBlocked parks the task until a socket watched via Park
	// changes state, a Sleep deadline fires, or a signal arrives.
	PollBlocked Poll = iota
	// PollReady re-queues the task to run again as soon as a worker is
	// free.
	PollReady
	// PollDone retires the task; its process exits with Task.Status.
	PollDone
)

// TaskFunc is one scheduling step of an event-driven process. It runs
// on a pooled worker goroutine and must not block: use the TryXxx
// syscalls and park on what they report would block.
type TaskFunc func(t *Task) Poll

// Task run states.
const (
	taskParked int32 = iota
	taskQueued
	taskRunning
	taskRunningWake // wakeup arrived mid-step: requeue after it
	taskDone
)

// Task is the scheduler's handle for one event-driven process.
type Task struct {
	proc  *Process
	fn    TaskFunc
	sched *scheduler

	// Status is the exit status reported when fn returns PollDone.
	Status int

	state   atomic.Int32
	gen     atomic.Uint64 // timer generation; bumped per run to void stale timers
	retired atomic.Bool

	wakeFn func() // t.wake, allocated once

	// Park/Sleep registrations for the current step; consumed by the
	// worker when the step returns PollBlocked.
	watch       []*Socket
	nodes       []waiter
	deadline    time.Time
	hasDeadline bool
}

// Proc returns the task's process, the receiver for its system calls.
func (t *Task) Proc() *Process { return t.proc }

// Park watches the sockets behind the given descriptors: if the step
// returns PollBlocked, any state change on one of them re-queues the
// task. Unknown or non-socket descriptors are ignored (the task is
// usually tearing down when they appear). Returns PollBlocked so a
// step can end with `return t.Park(fd)`.
func (t *Task) Park(fds ...int) Poll {
	for _, fd := range fds {
		s, err := t.proc.sockFD(fd)
		if err != nil {
			continue
		}
		t.watch = append(t.watch, s)
	}
	return PollBlocked
}

// Sleep arms a wakeup d from now for a PollBlocked return; combined
// with Park it is a timeout on the watched sockets. Returns
// PollBlocked so a step can end with `return t.Sleep(d)`.
func (t *Task) Sleep(d time.Duration) Poll {
	t.deadline = time.Now().Add(d)
	t.hasDeadline = true
	return PollBlocked
}

// wake transitions the task toward the run queue; callable from any
// goroutine, lock-free, idempotent while already queued.
func (t *Task) wake() {
	for {
		switch s := t.state.Load(); s {
		case taskParked:
			if t.state.CompareAndSwap(taskParked, taskQueued) {
				t.sched.enqueue(t)
				return
			}
		case taskRunning:
			if t.state.CompareAndSwap(taskRunning, taskRunningWake) {
				return
			}
		default: // queued, running-wake, done: nothing to do
			return
		}
	}
}

// unparkAll removes the task's waiter nodes from every watched socket.
func (t *Task) unparkAll() {
	for i := range t.watch {
		s := t.watch[i]
		s.mu.Lock()
		s.waiters.remove(&t.nodes[i])
		s.mu.Unlock()
	}
}

// invoke runs the step, absorbing the kill/exit panics that unwind
// goroutine-backed processes — a task process is detached, so its
// syscalls report ErrKilled instead, but a stray p.Exit in a shared
// program body must still retire the task cleanly.
func (t *Task) invoke() (poll Poll) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case killedPanic:
			poll, t.Status = PollDone, -1
		case exitPanic:
			poll, t.Status = PollDone, v.status
		default:
			panic(v)
		}
	}()
	return t.fn(t)
}

// retire finishes the task's process exactly once and releases its
// cluster-shutdown accounting.
func (t *Task) retire(status int, reason string) {
	if !t.retired.CompareAndSwap(false, true) {
		return
	}
	t.state.Store(taskDone)
	t.proc.finish(status, reason)
	t.proc.machine.wg.Done()
}

// scheduler is the cluster-wide run queue and worker pool.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	runq    []*Task
	head    int
	stopped bool

	timerMu sync.Mutex
	timers  timerHeap
	timerCh chan struct{} // kicks the timer goroutine on an earlier deadline
	stopCh  chan struct{}

	wg sync.WaitGroup
}

// defaultSchedWorkers sizes the pool when Config.SchedWorkers is zero.
func defaultSchedWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	return n
}

// newScheduler starts the worker pool and the timer goroutine.
func newScheduler(workers int) *scheduler {
	if workers <= 0 {
		workers = defaultSchedWorkers()
	}
	s := &scheduler{
		timerCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	go s.timerLoop()
	return s
}

// enqueue appends a runnable task to the queue.
func (s *scheduler) enqueue(t *Task) {
	s.mu.Lock()
	s.runq = append(s.runq, t)
	s.cond.Signal()
	s.mu.Unlock()
}

// pop removes the next runnable task, blocking while the queue is
// empty; it returns nil only after stop.
func (s *scheduler) pop() *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.head < len(s.runq) {
			t := s.runq[s.head]
			s.runq[s.head] = nil
			s.head++
			if s.head == len(s.runq) {
				s.runq = s.runq[:0]
				s.head = 0
			}
			return t
		}
		if s.stopped {
			return nil
		}
		s.cond.Wait()
	}
}

// stop drains the workers and the timer goroutine. Cluster.Shutdown
// calls it after every process has finished, so the queue is empty.
func (s *scheduler) stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stopCh)
	s.wg.Wait()
}

// worker runs task steps until stop.
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		t := s.pop()
		if t == nil {
			return
		}
		s.step(t)
	}
}

// step runs one scheduling step of t and re-disposes it: retire on
// done or kill, park on sockets/timer on blocked, requeue on ready.
func (s *scheduler) step(t *Task) {
	t.state.Store(taskRunning)
	t.gen.Add(1) // void timers armed for the previous park
	t.unparkAll()
	p := t.proc

	p.sigMu.Lock()
	killed, stopped := p.killed, p.stopped
	p.sigMu.Unlock()
	if killed || p.exited() {
		t.retire(-1, ReasonKilled)
		return
	}
	if stopped {
		// SIGSTOP: park with no watches; SIGCONT's schedHook wakes us.
		// Re-check after parking so a continue racing the park is not
		// lost.
		prev := t.state.Swap(taskParked)
		p.sigMu.Lock()
		stopped = p.stopped
		p.sigMu.Unlock()
		if prev == taskRunningWake || !stopped {
			t.wake()
		}
		return
	}

	t.watch = t.watch[:0]
	t.hasDeadline = false
	switch t.invoke() {
	case PollDone:
		t.retire(t.Status, ReasonNormal)
	case PollReady:
		t.state.Store(taskQueued)
		s.enqueue(t)
	default: // PollBlocked
		// Register first, publish taskParked last: until then the task
		// is still running, so a wake through a watch already registered
		// only marks it running-wake and no other worker can pop it while
		// this one is still writing its nodes and deadline. Check after
		// parking: a socket that became ready (or a wake that arrived)
		// during the step or the registration must re-queue, not sleep.
		if n := len(t.watch); cap(t.nodes) < n {
			t.nodes = make([]waiter, n)
		} else {
			t.nodes = t.nodes[:n]
		}
		readyNow := false
		for i, sock := range t.watch {
			t.nodes[i] = waiter{fn: t.wakeFn}
			sock.mu.Lock()
			sock.waiters.push(&t.nodes[i])
			if sock.readyLocked() {
				readyNow = true
			}
			sock.mu.Unlock()
		}
		if t.hasDeadline {
			s.addTimer(t, t.deadline, t.gen.Load())
		}
		if prev := t.state.Swap(taskParked); prev == taskRunningWake || readyNow {
			t.wake()
		}
	}
}

// timerEntry is one armed Sleep deadline.
type timerEntry struct {
	when time.Time
	gen  uint64
	task *Task
}

type timerHeap []timerEntry

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].when.Before(h[j].when) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// addTimer arms a wakeup; entries from superseded parks are left in
// the heap and discarded by their stale generation when they surface.
func (s *scheduler) addTimer(t *Task, when time.Time, gen uint64) {
	s.timerMu.Lock()
	heap.Push(&s.timers, timerEntry{when: when, gen: gen, task: t})
	kick := s.timers[0].task == t && s.timers[0].gen == gen
	s.timerMu.Unlock()
	if kick {
		select {
		case s.timerCh <- struct{}{}:
		default:
		}
	}
}

// timerLoop fires due deadlines from one goroutine — the shared stand-
// in for the per-datagram, per-sleep timer goroutines the seed spent.
func (s *scheduler) timerLoop() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		wait := time.Hour
		var due []*Task
		s.timerMu.Lock()
		for len(s.timers) > 0 && !s.timers[0].when.After(now) {
			e := heap.Pop(&s.timers).(timerEntry)
			if e.task.gen.Load() == e.gen {
				due = append(due, e.task)
			}
		}
		if len(s.timers) > 0 {
			wait = time.Until(s.timers[0].when)
		}
		s.timerMu.Unlock()
		for _, t := range due {
			t.wake()
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.timerCh:
		case <-s.stopCh:
			return
		}
	}
}
