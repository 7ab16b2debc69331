package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestWithOffset(t *testing.T) {
	c := New(WithOffset(5 * time.Second))
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(10 * time.Millisecond)
	c.Advance(15 * time.Millisecond)
	if got := c.Now(); got != 25*time.Millisecond {
		t.Fatalf("Now() = %v, want 25ms", got)
	}
}

func TestAdvanceReturnsNewReading(t *testing.T) {
	c := New()
	if got := c.Advance(time.Second); got != time.Second {
		t.Fatalf("Advance returned %v, want 1s", got)
	}
}

func TestAdvanceNonPositiveIsNoOp(t *testing.T) {
	c := New(WithOffset(time.Second))
	if got := c.Advance(0); got != time.Second {
		t.Fatalf("Advance(0) = %v, want 1s", got)
	}
	if got := c.Advance(-time.Second); got != time.Second {
		t.Fatalf("Advance(-1s) = %v, want 1s", got)
	}
}

func TestDriftFast(t *testing.T) {
	// +100000 ppm = 10% fast: advancing 1s should add 1.1s.
	c := New(WithDriftPPM(100_000))
	c.Advance(time.Second)
	if got := c.Now(); got != 1100*time.Millisecond {
		t.Fatalf("Now() = %v, want 1.1s", got)
	}
}

func TestDriftSlow(t *testing.T) {
	c := New(WithDriftPPM(-100_000))
	c.Advance(time.Second)
	if got := c.Now(); got != 900*time.Millisecond {
		t.Fatalf("Now() = %v, want 0.9s", got)
	}
}

func TestTwoClocksDiverge(t *testing.T) {
	// The paper's premise: separate machines' clocks only roughly
	// correspond. Two clocks with different drift fed the same true
	// time must diverge.
	a := New(WithDriftPPM(500))
	b := New(WithDriftPPM(-500))
	for i := 0; i < 100; i++ {
		a.Advance(10 * time.Millisecond)
		b.Advance(10 * time.Millisecond)
	}
	if a.Now() <= b.Now() {
		t.Fatalf("fast clock %v not ahead of slow clock %v", a.Now(), b.Now())
	}
}

func TestAdvanceToRaises(t *testing.T) {
	c := New()
	c.AdvanceTo(50 * time.Millisecond)
	if got := c.Now(); got != 50*time.Millisecond {
		t.Fatalf("Now() = %v, want 50ms", got)
	}
}

func TestAdvanceToNeverGoesBackward(t *testing.T) {
	c := New(WithOffset(100 * time.Millisecond))
	c.AdvanceTo(40 * time.Millisecond)
	if got := c.Now(); got != 100*time.Millisecond {
		t.Fatalf("AdvanceTo moved the clock backward: %v", got)
	}
}

func TestAdvanceToThenAdvance(t *testing.T) {
	// Gossip followed by local work: both accumulate.
	c := New()
	c.AdvanceTo(30 * time.Millisecond)
	c.Advance(10 * time.Millisecond)
	if got := c.Now(); got != 40*time.Millisecond {
		t.Fatalf("Now() = %v, want 40ms", got)
	}
}

func TestAdvanceToMonotonicProperty(t *testing.T) {
	f := func(ops []int16) bool {
		c := New()
		prev := c.Now()
		for _, op := range ops {
			if op >= 0 {
				c.Advance(time.Duration(op) * time.Microsecond)
			} else {
				c.AdvanceTo(time.Duration(-op) * time.Microsecond)
			}
			cur := c.Now()
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNowMillis(t *testing.T) {
	c := New()
	c.Advance(1234567 * time.Microsecond)
	if got := c.NowMillis(); got != 1234 {
		t.Fatalf("NowMillis() = %d, want 1234", got)
	}
}

func TestCPUCounterCharge(t *testing.T) {
	var cc CPUCounter
	cc.Charge(3 * time.Millisecond)
	cc.Charge(4 * time.Millisecond)
	if got := cc.Raw(); got != 7*time.Millisecond {
		t.Fatalf("Raw() = %v, want 7ms", got)
	}
}

func TestCPUCounterIgnoresNonPositive(t *testing.T) {
	var cc CPUCounter
	cc.Charge(-time.Second)
	cc.Charge(0)
	if got := cc.Raw(); got != 0 {
		t.Fatalf("Raw() = %v, want 0", got)
	}
}

func TestCPUCounterQuantized(t *testing.T) {
	var cc CPUCounter
	cc.Charge(34 * time.Millisecond)
	if got := cc.Quantized(); got != 30*time.Millisecond {
		t.Fatalf("Quantized() = %v, want 30ms", got)
	}
	if got := cc.QuantizedMillis(); got != 30 {
		t.Fatalf("QuantizedMillis() = %d, want 30", got)
	}
}

func TestCPUCounterUnderQuantumReportsZero(t *testing.T) {
	// Paper section 4.1: estimates based on procTime must recognize
	// the 10 ms granularity — sub-quantum work is invisible.
	var cc CPUCounter
	cc.Charge(9 * time.Millisecond)
	if got := cc.Quantized(); got != 0 {
		t.Fatalf("Quantized() = %v, want 0", got)
	}
}

func TestQuantizedNeverExceedsRaw(t *testing.T) {
	f := func(charges []uint16) bool {
		var cc CPUCounter
		for _, ch := range charges {
			cc.Charge(time.Duration(ch) * time.Microsecond)
		}
		q, r := cc.Quantized(), cc.Raw()
		return q <= r && r-q < Quantum && q%Quantum == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	f := func(steps []uint16, ppm int16) bool {
		c := New(WithDriftPPM(int64(ppm)))
		prev := c.Now()
		for _, s := range steps {
			cur := c.Advance(time.Duration(s) * time.Microsecond)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAdvanceSafe(t *testing.T) {
	c := New()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := c.Now(); got != 4000*time.Microsecond {
		t.Fatalf("Now() = %v, want 4ms", got)
	}
}

// TestClockConcurrent races Advance and AdvanceTo against readers. No
// reader may see the clock go back. The final reading is the offset
// plus the drift-scaled sum of every advance when that is above every
// AdvanceTo target; when the largest target is higher, the reading is
// at least that target and at most the target plus the advances.
func TestClockConcurrent(t *testing.T) {
	const (
		offset   = 7 * time.Millisecond
		ppm      = 250_000 // 25 % fast: an advance of 4 µs adds 5 µs
		step     = 4 * time.Microsecond
		writers  = 4
		advances = 2000
		advanced = writers * advances * (step + step*ppm/1_000_000)
	)
	for _, top := range []time.Duration{time.Millisecond, time.Second} {
		c := New(WithOffset(offset), WithDriftPPM(ppm))
		stop := make(chan struct{})
		var readers, writersWG sync.WaitGroup
		read := func() {
			defer readers.Done()
			for prev := c.Now(); ; {
				select {
				case <-stop:
					return
				default:
				}
				cur := c.Now()
				if cur < prev {
					t.Errorf("reading went back: %v after %v", cur, prev)
					return
				}
				prev = cur
			}
		}
		readers.Add(2)
		go read()
		go read()
		for w := 1; w <= writers; w++ {
			writersWG.Add(2)
			go func() {
				defer writersWG.Done()
				for i := 0; i < advances; i++ {
					c.Advance(step)
				}
			}()
			go func() {
				defer writersWG.Done()
				for i := 1; i <= advances; i++ {
					c.AdvanceTo(top * time.Duration(i*w) / (advances * writers))
				}
			}()
		}
		writersWG.Wait()
		close(stop)
		readers.Wait()
		got := c.Now()
		if want := offset + advanced; want >= top {
			if got != want {
				t.Fatalf("top %v: Now() = %v, want %v", top, got, want)
			}
		} else if got < top || got > top+advanced {
			t.Fatalf("top %v: Now() = %v, want in [%v, %v]", top, got, top, top+advanced)
		}
	}
}
