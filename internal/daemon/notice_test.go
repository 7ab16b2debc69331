package daemon

import (
	"math"
	"runtime"
	"testing"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// TestStateChangeNoAllocBeyondDgramCopy gates one termination notice
// from a child's exit watcher to the controller's reader: the watcher
// writes the state change into an array from frameFree and injects it,
// the gateway reads the queued datagram, frames it onto the
// controller's notification connection and gives the frame back, and
// ReadNotices reads the state change in place into its callback, which
// matches the machine and the reason without copying them. The one
// allocation is the kernel's copy of the datagram, queued on the
// gateway socket (48 bytes). The same notice made six more when the
// watcher was a closure per child (one), wrote the message into a
// buffer grown from nil (four) and the reader cut the strings from a
// copy of the frame (one).
func TestStateChangeNoAllocBeyondDgramCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	p, m := machineProcess(t)
	d := newDaemonState(p)
	if err := d.openGateway(); err != nil {
		t.Fatal(err)
	}
	go func() { // Main's gateway half
		for {
			data, src, err := p.RecvFrom(d.gfd, 8192)
			if err != nil {
				return
			}
			d.handleGateway(data, src)
		}
	}()
	notify, err := m.SpawnDetached(testUID, "controller-notify")
	if err != nil {
		t.Fatal(err)
	}
	nfd, err := notify.Socket(meter.AFInet, kernel.SockStream)
	if err == nil {
		err = notify.BindPort(nfd, 0)
	}
	if err == nil {
		err = notify.Listen(nfd, 4)
	}
	name, err2 := notify.SocketName(nfd)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	_, port := name.Inet()
	done := make(chan int, 1)
	go func() {
		conn, _, err := notify.Accept(nfd)
		if err != nil {
			return
		}
		ReadNotices(notify, conn, func(sc StateChange) {
			if sc.Machine == m.Name() && sc.Reason == "normal" {
				done <- sc.PID
			}
		}, func(IOData) {})
	}()

	child := &childInfo{pid: p.PID(), uid: testUID, control: controlAddr{m.Name(), port}}
	notice := func() {
		d.mu.Lock()
		d.children[child.pid] = child
		d.mu.Unlock()
		d.exited(p, 0, "normal")
		if pid := <-done; pid != child.pid {
			t.Fatalf("notice of pid %d, want %d", pid, child.pid)
		}
	}
	for i := 0; i < 50; i++ {
		notice() // the connection up, the free lists warm
	}
	// The best of five windows: a collection inside one makes each
	// sync.Pool on the path (the kernel's waiters, the small frames)
	// allocate its per-P array again, a cost of the collection.
	const notices = 200
	allocs, bytes := math.Inf(1), math.Inf(1)
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < notices; i++ {
			notice()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/notices)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/notices)
	}
	t.Logf("one termination notice allocates %.0f bytes in %.2f allocations", bytes, allocs)
	if allocs > 1 || bytes > 48 {
		t.Errorf("one termination notice allocates %.0f bytes in %.2f allocations; want only the kernel's 48-byte datagram copy", bytes, allocs)
	}
}
