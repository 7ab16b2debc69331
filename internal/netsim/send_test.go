package netsim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seededDigest is what TestSeededNetworkUnchanged's fixed sequence
// produces: every datagram delivered or parked, in order, with its
// delay, and every send's result. It was written by the build before
// Send took its checks under a read lock, so a change to which rng
// draws a send makes, or in what order, shows here.
const seededDigest = "1bbdf8edce1285f970bb63f07cfd58f5a03f771ef67a5db609eaffdee515498c"

// TestSeededNetworkUnchanged feeds a network with loss, reordering and
// jitter a fixed sequence of sends to two hosts, an unknown host and
// across a cut that is later healed, and digests what came out. The
// test's fabric has no clock, so a parked datagram's due tick is its
// delay in ticks and nothing is released before it is read.
func TestSeededNetworkUnchanged(t *testing.T) {
	n := New("ether0", WithLoss(0.2), WithReorder(0.25), WithLatency(3*time.Millisecond, 40*time.Millisecond), WithSeed(34))
	f := &fabric{stopCh: make(chan struct{})}
	f.drained = sync.NewCond(&f.mu)
	n.fab = f
	for _, h := range []uint32{1, 2, 3} {
		if err := n.Attach(h, &sink{}); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	for i := 0; i < 600; i++ {
		switch i {
		case 200:
			n.Partition(1, 3)
		case 400:
			n.Heal()
		}
		d := dg(uint32(2+i%3), strconv.Itoa(i)) // hosts 2, 3 and the unknown 4
		if i%7 == 0 {
			d.Src.Host = 3
		}
		fmt.Fprintf(h, "send %d: %v\n", i, n.Send(d))
	}
	f.mu.Lock()
	var parked []flight
	for _, slot := range f.slots {
		parked = append(parked, slot...)
	}
	f.mu.Unlock()
	sortFlights(parked)
	for _, fl := range parked {
		fmt.Fprintf(h, "%d %d %d->%d %s\n", fl.due, fl.seq, fl.dg.Src.Host, fl.dg.Dst.Host, fl.dg.Data)
	}
	n.mu.Lock()
	n.fab = nil // no lanes to drain into
	n.mu.Unlock()
	n.Close()
	if len(parked) < 200 || len(parked) > 400 {
		t.Fatalf("%d of 600 datagrams parked; the sequence no longer exercises loss and cuts", len(parked))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != seededDigest {
		t.Fatalf("seeded network digest %s, want %s", got, seededDigest)
	}
}

// TestSendDuringFaults sends from several goroutines while the
// network's membership and faults change under them and it is finally
// closed. Sends may fail or be lost while that happens, but none that
// starts after Close has returned succeeds.
func TestSendDuringFaults(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithLoss(0.1), WithReorder(0.1), WithSeed(5)}} {
		n := New("ether0", opts...)
		for _, h := range []uint32{1, 2, 3} {
			if err := n.Attach(h, &sink{}); err != nil {
				t.Fatal(err)
			}
		}
		var closed atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					after := closed.Load()
					err := n.Send(dg(uint32(1+(g+i)%3), "x"))
					if after {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("send after Close returned: err = %v, want ErrClosed", err)
						}
						return
					}
				}
			}()
		}
		for i := 0; i < 300; i++ {
			switch i % 6 {
			case 0:
				n.Detach(3)
			case 1:
				_ = n.Attach(3, &sink{})
			case 2:
				n.Partition(1, 2)
			case 3:
				n.SetDown(true)
			case 4:
				n.SetDown(false)
			case 5:
				n.Heal()
			}
		}
		n.Close()
		closed.Store(true)
		wg.Wait()
	}
}
