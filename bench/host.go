package main

import (
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose
// processor does not keep one speed: the same fixed loop takes 195 ms
// now and 260 ms a few seconds later, and whole minutes are slower than
// others. A time measured there says as much about the moment as about
// the monitor. A hostMeter therefore measures the host's speed beside
// the workload, all the way through it, and every time the benchmark
// gates is reported at the reference speed: the measured duration
// divided by how much slower than the reference the host was while it
// ran.
//
// Every hostEvery the meter's goroutine runs a burst: a fixed piece of
// work that takes hostReferenceNS on a host at the reference speed. It
// does that hostTries times in a row and keeps the faster, which an
// interrupt has not lengthened. That is 1-2 % of one processor, the
// same on every commit.
const (
	hostEvery = 8 * time.Millisecond
	hostTries = 2
	// A burst: hostLines records written and read, hostCounts of their
	// numbers counted under one of hostKeys keys each, and hostCopy bytes
	// copied.
	hostLines  = 200
	hostCounts = 200
	hostKeys   = 16384
	hostCopy   = 128 << 10
	// hostWindow is how far beyond a measured interval's ends bursts
	// still count towards its speed. The host keeps a speed for seconds,
	// so a short operation's speed is better known from the hundred
	// bursts around it than from the one or two beside it.
	hostWindow = 500 * time.Millisecond
	// hostTrim is the share of an interval's slowest bursts that is left
	// out of its mean: bursts that ran beside a garbage collection or were
	// interrupted twice in a row.
	hostTrim = 0.2
	// hostReferenceNS defines the reference speed: a burst takes this
	// long on the 2-core host the workloads were sized on when its
	// neighbours are quiet, so that there a time at the reference speed is
	// about the time the clock read.
	hostReferenceNS = 50_000
)

// interval is a stretch of wall time something was measured over.
type interval struct{ from, to time.Time }

type hostMeter struct {
	// What a burst works on. Nothing in it holds a pointer and nothing
	// is allocated after start, so a burst neither feeds the garbage
	// collector nor pays its write barrier: the monitor's own allocation
	// must not show in the speed its times are divided by.
	line   []byte
	counts map[uint64]uint64
	block  []byte // 16 MiB, copied hostCopy bytes at a time: never in the second-level cache
	at0    int
	carry  uint64

	// When each burst ended and how long it took; the meter's goroutine
	// writes them, and stop hands them to the reader.
	at []time.Time
	ns []float64

	quit, done chan struct{}
}

// startHostMeter begins measuring; stop ends it. Only a stopped meter
// answers slowness.
func startHostMeter() *hostMeter {
	h := &hostMeter{
		line:   make([]byte, 0, 128),
		counts: make(map[uint64]uint64, 2*hostKeys),
		block:  make([]byte, 16<<20),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for k := uint64(0); k < hostKeys; k++ {
		h.counts[k] = k
	}
	for i := range h.block {
		h.block[i] = byte(i)
	}
	h.burst() // the first touches everything it will ever touch
	go func() {
		defer close(h.done)
		tick := time.NewTicker(hostEvery)
		defer tick.Stop()
		for {
			best := h.burst()
			for i := 1; i < hostTries; i++ {
				best = min(best, h.burst())
			}
			h.at = append(h.at, time.Now())
			h.ns = append(h.ns, float64(best.Nanoseconds()))
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// burst is the fixed work, chosen to be slowed by what slows the
// monitor: it writes trace records as text and reads their numbers
// back, counts under keys in a map of about a megabyte, and copies a
// block of memory that the second-level cache does not hold. (A bare
// arithmetic loop follows the host's clock rate but not its caches and
// not a busy neighbour on the same core: measured beside point queries
// it explained a tenth of their variation from second to second, work
// of this kind three quarters.)
func (h *hostMeter) burst() time.Duration {
	x, sum := h.carry|1, uint64(0)
	start := time.Now()
	for i := 0; i < hostLines; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b := append(h.line[:0], "SEND machine="...)
		b = strconv.AppendUint(b, x>>60, 10)
		b = append(b, " cpuTime="...)
		b = strconv.AppendUint(b, x>>40&0xfffff, 10)
		b = append(b, " msgLength="...)
		b = strconv.AppendUint(b, x>>20&0x7ff, 10)
		var field uint64
		for _, c := range b {
			switch {
			case c >= '0' && c <= '9':
				field = field*10 + uint64(c-'0')
			case c == ' ':
				sum += field
				field = 0
			}
		}
		x += field + sum
	}
	for i := 0; i < hostCounts; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.counts[x>>50] += x
	}
	from := (h.at0 + len(h.block)/2) % (len(h.block) - hostCopy)
	copy(h.block[h.at0:h.at0+hostCopy], h.block[from:from+hostCopy])
	h.at0 = (h.at0 + hostCopy) % (len(h.block) - hostCopy)
	took := time.Since(start)
	h.carry = x ^ sum
	return took
}

func (h *hostMeter) stop() {
	close(h.quit)
	<-h.done
}

// slowness is how many times slower than the reference speed the host
// ran over the interval: the mean duration of the bursts there, the
// slowest hostTrim of them left out, over the reference's. A nil meter,
// or one that saw no burst, answers 1.
func (h *hostMeter) slowness(iv interval) float64 {
	if h == nil || len(h.ns) == 0 {
		return 1
	}
	lo := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(iv.from.Add(-hostWindow)) })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(iv.to.Add(hostWindow)) })
	if lo >= hi {
		// The meter's goroutine did not get to run that close to the
		// interval: take the burst nearest to it.
		lo = min(max(lo-1, 0), len(h.ns)-1)
		if lo+1 < len(h.ns) && h.at[lo+1].Sub(iv.to) < iv.from.Sub(h.at[lo]) {
			lo++
		}
		hi = lo + 1
	}
	near := append([]float64(nil), h.ns[lo:hi]...)
	sort.Float64s(near)
	near = near[:len(near)-int(hostTrim*float64(len(near)))]
	var sum float64
	for _, ns := range near {
		sum += ns
	}
	return sum / float64(len(near)) / hostReferenceNS
}

func (h *hostMeter) bursts() int {
	if h == nil {
		return 0
	}
	return len(h.ns)
}

// overall is the slowness over everything the meter saw.
func (h *hostMeter) overall() float64 {
	if h == nil || len(h.ns) == 0 {
		return 1
	}
	return median(h.ns) / hostReferenceNS
}
