package main

import (
	"math"
	"sort"
	"time"
)

// samples collects the latencies of one operation class in
// milliseconds. An operation that failed, was refused or timed out is
// not a sample: it is counted in the workload's failed total instead,
// so it misses every latency.
type samples struct {
	ms []float64
	// end is when each operation completed; with its duration that is
	// the interval the host's speed is looked up for.
	end []time.Time
	// parts says the samples are pieces of one total that is the same
	// work on every run, cut where chance cut it: the typical value of
	// such a class is its mean.
	parts bool
	// asRead says the class is reported as the clock read it: measured
	// against the host's speed, its times did not move with it.
	asRead bool
}

// typical is the one number a class of latencies is reported as.
func (s *samples) typical(values []float64) float64 {
	if s.parts {
		return mean(values)
	}
	return midmean(values)
}

func newSamples(capacity int) *samples {
	return &samples{ms: make([]float64, 0, capacity), end: make([]time.Time, 0, capacity)}
}

// add records an operation that took d and completed at end.
func (s *samples) add(d time.Duration, end time.Time) {
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.end = append(s.end, end)
}

// atReference is every latency as it would have been with the host at
// the reference speed.
func (s *samples) atReference(h *hostMeter) []float64 {
	if s.asRead {
		return s.ms
	}
	out := make([]float64, len(s.ms))
	for i, ms := range s.ms {
		from := s.end[i].Add(-time.Duration(ms * float64(time.Millisecond)))
		out[i] = ms / h.slowness(interval{from, s.end[i]})
	}
	return out
}

func (s *samples) n() int { return len(s.ms) }

// quantile returns the q-quantile (0..1) by linear interpolation
// between closest ranks, and 0 for an empty set.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// midmean is the mean of the middle half of the values. Where the
// values have one mode it is the median with less sampling noise; where
// they have two (a probe is found by the first poll or by the second) it
// moves with the share of each, while the median jumps from one to the
// other when that share crosses a half.
func midmean(values []float64) float64 {
	if len(values) < 4 {
		return mean(values)
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return mean(sorted[len(sorted)/4 : len(sorted)-len(sorted)/4])
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func (s *samples) p(q float64) float64 { return quantile(s.ms, q) }

// nsPerOp times n calls of fn and returns the mean cost of one.
func nsPerOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianOf runs fn reps times and returns the median of its results,
// the harness's defence against one slow repetition.
func medianOf(reps int, fn func() float64) float64 {
	vals := make([]float64, reps)
	for i := range vals {
		vals[i] = fn()
	}
	return median(vals)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
