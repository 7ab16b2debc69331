package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// runConfig is everything a workload run depends on.
type runConfig struct {
	seed int64
	// seconds is the run's budget. Closed-loop workloads do a fixed
	// amount of work per budget second (the same work on every commit,
	// sized to take about that long on the reference host); the
	// open-loop workload runs for exactly this long.
	seconds float64
	// setups is how many times the workload is set up; the run measures
	// the last one and reports the median set-up time.
	setups int
	// tr records harness-side spans; nil in the untraced run.
	tr *tracer
	// corruptReference flips one reference answer, which must make the
	// run report correct=false (the harness checks itself this way).
	corruptReference bool
}

func (c runConfig) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*7919 + stream))
}

// probeScale shrinks the layer probes' repetition counts when the
// budget is below what a traced invocation gets from BENCHMARK.json.
func (c runConfig) probeScale() float64 {
	return min(c.seconds/(defaultSeconds/2.0), 1)
}

// scaled converts a per-budget-second constant into this run's count.
func (c runConfig) scaled(perSecond int) int {
	return max(int(float64(perSecond)*c.seconds), 1)
}

// outcome is what a workload run measured, before it is named.
type outcome struct {
	// setups is when each set-up ran and the processor time it took, and
	// host what speed the host had at every moment of the run; reported
	// times are put at the reference speed with it (see host.go).
	setups []setupRun
	host   *hostMeter
	// openLoop says the measured phase's length was set by the workload's
	// schedule, not by the monitor: its throughput is what the schedule
	// offered and the host's speed does not enter it.
	openLoop bool

	// The measured phase: units of work done, and what they cost, in
	// total and cut into rounds of equal work. Throughput and cost are
	// reported as medians over the rounds, so that a stall moves one
	// round and not the result; wholePhase says the rounds are not alike
	// (a file doubles its memory in one round and not in the next, while
	// the whole phase does the same work on every run), and the figures
	// are those of the whole phase.
	units      float64
	phase      phase
	rounds     []round
	wholePhase bool

	// Bytes on the simulated file system and the kept records they
	// hold.
	diskBytes   int64
	diskRecords int64

	// ops holds each operation class's latencies; the workload's
	// definition says which three are reported as op_a, op_b and op_c.
	ops map[string]*samples

	attempted int
	failed    int
	// problems are the correctness checks that did not hold.
	problems []string

	// opHash identifies the generated operation sequence, and refHash
	// the reference answers, so two runs of one seed can be compared.
	opHash  uint64
	refHash uint64

	// layers are the per-layer metrics of a traced run. metered and
	// kept count the records that entered the write path and reached
	// its sinks inside the measured phase, and readSplit holds each read
	// class's boundary replay; the stage budget is built from them.
	layers    map[string]metric
	metered   float64
	kept      float64
	readSplit map[string]replay
	// extra are end-to-end figures specific to one workload, printed
	// and kept in the result file but outside the gated set.
	extra map[string]metric
}

// round is one piece of the measured phase.
type round struct {
	units float64
	// allocUnits is what the round's allocation is counted per, where
	// that is not units (0 means units).
	allocUnits float64
	phase
}

// addRound records a piece of the measured phase and extends the total.
func (o *outcome) addRound(units float64, ph phase) {
	if len(o.rounds) == 0 {
		o.phase.from = ph.from
	}
	o.rounds = append(o.rounds, round{units: units, phase: ph})
	o.units += units
	o.phase.to = ph.to
	o.phase.wall += ph.wall
	o.phase.cpu += ph.cpu
	o.phase.alloc += ph.alloc
}

// overRounds is a figure num/den of the measured phase: the median of
// the rounds' own figures or, with wholePhase, the rounds' sum of num
// over their sum of den.
func (o *outcome) overRounds(num, den func(round) float64) float64 {
	vals := make([]float64, len(o.rounds))
	var nums, dens float64
	for i, r := range o.rounds {
		vals[i] = ratio(num(r), den(r))
		nums += num(r)
		dens += den(r)
	}
	if o.wholePhase {
		return ratio(nums, dens)
	}
	return median(vals)
}

func newOutcome() *outcome {
	return &outcome{ops: make(map[string]*samples), layers: make(map[string]metric), extra: make(map[string]metric)}
}

func (o *outcome) class(name string) *samples {
	s, ok := o.ops[name]
	if !ok {
		s = newSamples(1024)
		o.ops[name] = s
	}
	return s
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts operations that did not succeed and says why once.
func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.problem(format, args...)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples stand behind the value; 1 for a total.
	N int `json:"n,omitempty"`
	// Alias is the workload's own name for a metric the contract knows
	// by a generic one (op_a_ms is query_point_ms_mid on query_mix).
	Alias string `json:"alias,omitempty"`
}

// setupRun is one set-up: when it ran and the processor time this
// process used meanwhile.
type setupRun struct {
	interval
	cpu time.Duration
}

// timeSetups sets a workload up n times, shutting all but the last
// down, and returns the last with when every set-up ran.
func timeSetups[T interface{ shutdown() }](n int, setup func() (T, error)) (T, []setupRun, error) {
	var last T
	var took []setupRun
	for i := 0; i < n; i++ {
		// A collection that an earlier set-up's garbage provokes is not
		// this set-up's cost.
		runtime.GC()
		start := readUsage()
		s, err := setup()
		if err != nil {
			return last, nil, err
		}
		ph := readUsage().since(start)
		took = append(took, setupRun{interval{ph.from, ph.to}, ph.cpu})
		if i < n-1 {
			s.shutdown()
		}
		last = s
	}
	return last, took, nil
}
