package netsim

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// sink is a test endpoint that records delivered datagrams.
type sink struct {
	mu  sync.Mutex
	dgs []Datagram
}

func (s *sink) DeliverDatagram(dg Datagram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dgs = append(s.dgs, dg)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dgs)
}

func (s *sink) payloads() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.dgs))
	for i, d := range s.dgs {
		out[i] = string(d.Data)
	}
	return out
}

func dg(dstHost uint32, data string) Datagram {
	return Datagram{
		Src:  Addr{Net: "ether0", Host: 1, Port: 100},
		Dst:  Addr{Net: "ether0", Host: dstHost, Port: 200},
		Data: []byte(data),
	}
}

func TestReliableDelivery(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n.Send(dg(2, "m")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.count(); got != 10 {
		t.Fatalf("delivered %d, want 10", got)
	}
}

func TestOrderPreservedWithoutReordering(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	for _, m := range want {
		if err := n.Send(dg(2, m)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.payloads()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order broken: got %v", got)
		}
	}
}

func TestUnknownHost(t *testing.T) {
	n := New("ether0")
	if err := n.Send(dg(9, "x")); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
}

func TestOversizeDatagram(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	big := Datagram{Dst: Addr{Host: 2}, Data: make([]byte, MaxDatagram+1)}
	if err := n.Send(big); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
}

func TestDoubleAttach(t *testing.T) {
	n := New("ether0")
	if err := n.Attach(2, &sink{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(2, &sink{}); !errors.Is(err, ErrAttached) {
		t.Fatalf("err = %v, want ErrAttached", err)
	}
}

func TestDetach(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	n.Detach(2)
	if err := n.Send(dg(2, "x")); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
}

func TestLossDropsSome(t *testing.T) {
	n := New("ether0", WithLoss(0.5), WithSeed(42))
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	const total = 1000
	for i := 0; i < total; i++ {
		if err := n.Send(dg(2, "m")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.count()
	if got == 0 || got == total {
		t.Fatalf("delivered %d of %d; expected partial loss", got, total)
	}
	if got < total/4 || got > 3*total/4 {
		t.Fatalf("delivered %d of %d; far from configured 50%% loss", got, total)
	}
}

func TestLossDeterministicWithSeed(t *testing.T) {
	run := func() []string {
		n := New("ether0", WithLoss(0.3), WithSeed(7))
		s := &sink{}
		if err := n.Attach(2, s); err != nil {
			t.Fatal(err)
		}
		msgs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for _, m := range msgs {
			if err := n.Send(dg(2, m)); err != nil {
				t.Fatal(err)
			}
		}
		return s.payloads()
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("non-deterministic loss: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("non-deterministic loss: %v vs %v", r1, r2)
		}
	}
}

func TestReorderSwapsAdjacent(t *testing.T) {
	// With reorder probability 1, every datagram is held and released
	// behind its successor, so pairs arrive swapped.
	n := New("ether0", WithReorder(1), WithSeed(1))
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"a", "b", "c", "d"} {
		if err := n.Send(dg(2, m)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.payloads()
	want := []string{"b", "a", "d", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFlushReleasesHeldDatagram(t *testing.T) {
	n := New("ether0", WithReorder(1), WithSeed(1))
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(dg(2, "only")); err != nil {
		t.Fatal(err)
	}
	if s.count() != 0 {
		t.Fatal("datagram should be held for reordering")
	}
	n.Flush()
	if s.count() != 1 {
		t.Fatal("Flush did not release held datagram")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New("ether0", WithLatency(20*time.Millisecond, 0))
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(dg(2, "x")); err != nil {
		t.Fatal(err)
	}
	if s.count() != 0 {
		t.Fatal("delivered synchronously despite latency")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("datagram never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSenderMayReuseBuffer: a datagram that leaves after Send returns,
// delayed or held back for reordering, carries the bytes sent, not
// what the sender wrote into its buffer afterwards.
func TestSenderMayReuseBuffer(t *testing.T) {
	for name, opt := range map[string]Option{
		"latency": WithLatency(5*time.Millisecond, 0),
		"reorder": WithReorder(1),
	} {
		n := New("ether0", opt, WithSeed(1))
		s := &sink{}
		if err := n.Attach(2, s); err != nil {
			t.Fatal(err)
		}
		d := dg(2, "sent")
		if err := n.Send(d); err != nil {
			t.Fatal(err)
		}
		copy(d.Data, "over")
		n.Flush()
		n.Close()
		if got := s.payloads(); len(got) != 1 || got[0] != "sent" {
			t.Fatalf("%s: delivered %q, want [sent]", name, got)
		}
	}
}

func TestCloseWaitsForPendingAndRejectsSends(t *testing.T) {
	n := New("ether0", WithLatency(10*time.Millisecond, 0))
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(dg(2, "x")); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if s.count() != 1 {
		t.Fatal("Close returned before pending delivery completed")
	}
	if err := n.Send(dg(2, "y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := n.Attach(3, s); !errors.Is(err, ErrClosed) {
		t.Fatalf("Attach err = %v, want ErrClosed", err)
	}
	n.Close() // idempotent
}

func TestNoLossDeliversEverything(t *testing.T) {
	f := func(payloads [][]byte) bool {
		n := New("e")
		s := &sink{}
		if err := n.Attach(1, s); err != nil {
			return false
		}
		sent := 0
		for _, p := range payloads {
			if len(p) > MaxDatagram {
				continue
			}
			if err := n.Send(Datagram{Dst: Addr{Host: 1}, Data: p}); err != nil {
				return false
			}
			sent++
		}
		return s.count() == sent
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSrcNamePropagates(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	d := dg(2, "x")
	d.SrcName = [16]byte{2, 0, 0x04, 0xd2, 0, 0, 0, 7, 0xff} // opaque to the fabric: any sixteen bytes
	if err := n.Send(d); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dgs[0].SrcName != d.SrcName {
		t.Fatalf("SrcName = %x, sent %x", s.dgs[0].SrcName, d.SrcName)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Net: "ether0", Host: 5, Port: 99}
	if got := a.String(); got != "ether0/5:99" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPartitionDropsDatagrams(t *testing.T) {
	n := New("ether0")
	s2, s3 := &sink{}, &sink{}
	if err := n.Attach(1, &sink{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(2, s2); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(3, s3); err != nil {
		t.Fatal(err)
	}
	n.Partition(1, 2)
	if !n.Reachable(1, 3) {
		t.Fatal("1-3 should be unaffected by the 1-2 cut")
	}
	if n.Reachable(1, 2) || n.Reachable(2, 1) {
		t.Fatal("cut link still reachable")
	}
	// Across the cut: silently lost, no sender-visible error.
	if err := n.Send(dg(2, "cut")); err != nil {
		t.Fatalf("send across partition errored: %v", err)
	}
	// Around the cut: delivered.
	if err := n.Send(dg(3, "ok")); err != nil {
		t.Fatal(err)
	}
	if s2.count() != 0 || s3.count() != 1 {
		t.Fatalf("delivered %d/%d, want 0/1", s2.count(), s3.count())
	}
	n.Heal()
	if !n.Reachable(1, 2) {
		t.Fatal("heal did not restore the link")
	}
	if err := n.Send(dg(2, "healed")); err != nil {
		t.Fatal(err)
	}
	if s2.count() != 1 {
		t.Fatalf("post-heal delivery count = %d, want 1", s2.count())
	}
}

func TestPartitionNetsSplitsGroups(t *testing.T) {
	n := New("ether0")
	sinks := map[uint32]*sink{}
	for _, h := range []uint32{1, 2, 3, 4} {
		sinks[h] = &sink{}
		if err := n.Attach(h, sinks[h]); err != nil {
			t.Fatal(err)
		}
	}
	n.PartitionNets([]uint32{1, 2}, []uint32{3, 4})
	for _, pair := range [][2]uint32{{1, 3}, {1, 4}, {2, 3}, {2, 4}} {
		if n.Reachable(pair[0], pair[1]) {
			t.Fatalf("%v reachable across the split", pair)
		}
	}
	for _, pair := range [][2]uint32{{1, 2}, {3, 4}} {
		if !n.Reachable(pair[0], pair[1]) {
			t.Fatalf("%v cut within its own side", pair)
		}
	}
}

func TestSetLinkDownAndRestore(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	n.SetLinkDown(1, 2, true)
	if err := n.Send(dg(2, "x")); err != nil {
		t.Fatal(err)
	}
	if s.count() != 0 {
		t.Fatal("datagram crossed a downed link")
	}
	n.SetLinkDown(1, 2, false)
	if err := n.Send(dg(2, "y")); err != nil {
		t.Fatal(err)
	}
	if s.count() != 1 {
		t.Fatal("restored link does not deliver")
	}
}

func TestSetDownWholeNetwork(t *testing.T) {
	n := New("ether0")
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	n.SetDown(true)
	if err := n.Send(dg(2, "x")); !errors.Is(err, ErrNetDown) {
		t.Fatalf("send on downed network: %v, want ErrNetDown", err)
	}
	if n.Reachable(1, 2) {
		t.Fatal("downed network reports reachable")
	}
	n.Heal()
	if err := n.Send(dg(2, "y")); err != nil {
		t.Fatal(err)
	}
	if s.count() != 1 {
		t.Fatal("healed network does not deliver")
	}
}

func TestHeldDatagramDroppedIfLinkCutWhileHeld(t *testing.T) {
	// A datagram held back for reordering whose link is cut before the
	// next send must not leak across the partition.
	n := New("ether0", WithReorder(1.0), WithSeed(7))
	s := &sink{}
	if err := n.Attach(2, s); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(dg(2, "held")); err != nil { // held back
		t.Fatal(err)
	}
	n.Partition(1, 2)
	n.SetLinkDown(1, 2, false) // reopen so the trigger datagram flows
	if err := n.Send(dg(2, "trigger")); err != nil {
		t.Fatal(err)
	}
	// Re-cut, re-run with the cut active at release time.
	n.Heal()
	if err := n.Send(dg(2, "held2")); err != nil {
		t.Fatal(err)
	}
	n.Partition(1, 2)
	// The trigger itself is cut too: both lost.
	if err := n.Send(dg(2, "trigger2")); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.payloads() {
		if p == "held2" || p == "trigger2" {
			t.Fatalf("datagram %q crossed an active partition", p)
		}
	}
}
