// Package clock models per-machine time for the simulated 4.2BSD cluster.
//
// The paper (section 1.1) stresses that a distributed system has no
// universal time base: per-machine clocks can be kept only approximately
// synchronized (it cites Lamport 78 and the TEMPO work of Gusella &
// Zatti 83). Section 4.1 adds that the kernel charges CPU time to a
// process in increments of 10 ms, so estimates based on procTime must
// recognize that granularity.
//
// This package reproduces both properties:
//
//   - MachineClock is a virtual wall clock private to one machine. It
//     advances only when the simulation tells it to (syscalls and
//     explicit compute steps advance it), and it may be configured with
//     a fixed offset and a drift rate so that clocks on different
//     machines only roughly correspond, exactly as the paper assumes.
//   - CPUCounter accumulates the CPU time charged to one process and
//     reports it quantized to the 10 ms scheduling quantum.
package clock

import (
	"sync/atomic"
	"time"
)

// Quantum is the granularity at which 4.2BSD updated per-process CPU
// accounting (paper section 4.1: "CPU use is updated in increments of
// 10ms").
const Quantum = 10 * time.Millisecond

// MachineClock is the virtual local clock of one simulated machine.
//
// The clock is purely logical: it advances by explicit Advance calls,
// scaled by the configured drift and shifted by the configured offset.
// Readings from clocks on different machines therefore diverge over the
// course of a computation, which is what forces the analysis stage to
// deduce global orderings from message causality rather than from
// timestamps (paper section 4.1).
type MachineClock struct {
	// now is the current virtual reading, including offset and all
	// drift-scaled advances so far. It is an atomic because every system
	// call on the machine reads or advances it.
	now atomic.Int64
	// driftPPM expresses the clock's rate error in parts per million:
	// an advance of d adds d*(1e6+driftPPM)/1e6.
	driftPPM int64
}

// Option configures a MachineClock.
type Option func(*MachineClock)

// WithOffset starts the clock at the given reading instead of zero,
// modelling imperfect initial synchronization between machines.
func WithOffset(d time.Duration) Option {
	return func(c *MachineClock) { c.now.Store(int64(d)) }
}

// WithDriftPPM sets the clock's rate error in parts per million. A
// positive value makes the clock run fast relative to true simulated
// time; a negative value makes it run slow.
func WithDriftPPM(ppm int64) Option {
	return func(c *MachineClock) { c.driftPPM = ppm }
}

// New returns a machine clock reading zero (unless offset) with no
// drift (unless configured).
func New(opts ...Option) *MachineClock {
	c := &MachineClock{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Advance moves the clock forward by the drift-scaled equivalent of d
// units of true simulated time and returns the new reading. Advancing
// by a non-positive duration is a no-op that returns the current
// reading.
func (c *MachineClock) Advance(d time.Duration) time.Duration {
	if d <= 0 {
		return c.Now()
	}
	scaled := d + time.Duration(int64(d)*c.driftPPM/1_000_000)
	return time.Duration(c.now.Add(int64(scaled)))
}

// AdvanceTo raises the clock to at least the given reading; it never
// moves the clock backward. The kernel calls it when a message
// arrives from another machine, so a machine whose processes are all
// blocked still sees time pass — the loose synchronization that
// message traffic gives real clusters (and that tools like TEMPO
// formalized).
func (c *MachineClock) AdvanceTo(t time.Duration) {
	for {
		now := c.now.Load()
		if int64(t) <= now || c.now.CompareAndSwap(now, int64(t)) {
			return
		}
	}
}

// Now returns the clock's current virtual reading.
func (c *MachineClock) Now() time.Duration { return time.Duration(c.now.Load()) }

// NowMillis returns the current reading in integer milliseconds, the
// unit used in meter message headers (the cpuTime header field).
func (c *MachineClock) NowMillis() int64 {
	return int64(c.Now() / time.Millisecond)
}

// CPUCounter accumulates CPU time charged to a single process.
//
// The raw accumulation is exact; Quantized and QuantizedMillis report
// it rounded down to the 10 ms quantum, matching what the 4.2BSD kernel
// exposed (and therefore what meter messages carry in procTime).
type CPUCounter struct {
	raw atomic.Int64
}

// Charge adds d to the process's accumulated CPU time. Non-positive
// charges are ignored.
func (c *CPUCounter) Charge(d time.Duration) {
	if d > 0 {
		c.raw.Add(int64(d))
	}
}

// Raw returns the exact accumulated CPU time.
func (c *CPUCounter) Raw() time.Duration { return time.Duration(c.raw.Load()) }

// Quantized returns the accumulated CPU time rounded down to the 10 ms
// accounting quantum.
func (c *CPUCounter) Quantized() time.Duration {
	return c.Raw() / Quantum * Quantum
}

// QuantizedMillis returns Quantized in integer milliseconds, the unit
// carried in the procTime field of meter message headers.
func (c *CPUCounter) QuantizedMillis() int64 {
	return int64(c.Quantized() / time.Millisecond)
}
