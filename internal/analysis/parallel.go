package analysis

import (
	"slices"

	"dpm/internal/trace"
)

// Parallelism is the measurement-of-parallelism analysis of section
// 3.3: how much concurrent execution a computation achieved.
//
// Per-machine clocks only roughly correspond (section 4.1), so the
// measure treats them as comparable — the same approximation the
// paper's analyses accepted — and procTime carries the kernel's 10 ms
// accounting granularity.
type Parallelism struct {
	// Processes is the number of distinct processes observed.
	Processes int
	// TotalCPUMillis is the summed CPU time charged to all processes
	// (their final procTime readings).
	TotalCPUMillis int64
	// MakespanMillis spans the earliest and latest event timestamps.
	MakespanMillis int64
	// Speedup is TotalCPU/Makespan — the average parallelism, 1.0
	// meaning fully serial execution.
	Speedup float64
	// Histogram[k] is how many milliseconds of the makespan had
	// exactly k processes live (between their first and last events).
	Histogram map[int]int64
}

// MeasureParallelism computes the parallelism profile of a trace.
func MeasureParallelism(events []trace.Event) *Parallelism {
	_, procs := fold(events)
	times := make([]int64, 2*len(procs))
	starts, ends := times[:len(procs)], times[len(procs):]
	var cpu int64
	for i, p := range procs {
		starts[i], ends[i] = p.First, p.Last
		cpu += p.MaxCPU
	}
	return Sweep(starts, ends, cpu)
}

// Sweep derives the parallelism profile from process lifetimes given
// as their starts and their ends, which it sorts in place, and the
// processes' summed CPU time. It visits starts and ends in time order,
// starts before ends at equal times: the two kinds are sorted apart as
// plain integers and walked with two cursors, which visits them in
// exactly that order.
func Sweep(starts, ends []int64, totalCPU int64) *Parallelism {
	out := &Parallelism{Histogram: make(map[int]int64)}
	if len(starts) == 0 {
		return out
	}
	out.Processes = len(starts)
	out.TotalCPUMillis = totalCPU
	slices.Sort(starts)
	slices.Sort(ends)
	out.MakespanMillis = ends[len(ends)-1] - starts[0]
	if out.MakespanMillis > 0 {
		out.Speedup = float64(out.TotalCPUMillis) / float64(out.MakespanMillis)
	}
	level := 0
	prev := int64(-1)
	for i, j := 0, 0; j < len(ends); {
		t, delta := ends[j], -1
		if i < len(starts) && starts[i] <= t {
			t, delta = starts[i], +1
			i++
		} else {
			j++
		}
		if prev >= 0 && t > prev && level > 0 {
			out.Histogram[level] += t - prev
		}
		level += delta
		prev = t
	}
	return out
}
