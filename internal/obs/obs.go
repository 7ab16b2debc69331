// Package obs is the monitor's self-observation layer: a metrics
// registry of atomic counters, gauges, and log-bucketed latency
// histograms, plus the snapshot machinery that carries them over the
// daemon wire and into forensic files. The monitor of the paper
// observes other programs; at production scale it must also expose its
// own queue depths, flush latencies, and drop rates on every machine,
// or the filter pipeline, store, and query engine cannot be tuned.
//
// The record paths — Counter.Add, Gauge.Set, Histogram.Observe — are
// single atomic operations performing zero heap allocations, so every
// hot path in the system (the filter's per-batch flush, the store's
// per-append framing, the kernel's per-message metering) can be
// instrumented without measurable cost; testing.AllocsPerRun gates in
// obs_test.go keep it that way. Metric handles are resolved once, at
// construction time, through the registry's get-or-create lookups;
// nothing resolves names on a hot path.
//
// Each simulated machine owns one Registry (kernel.Machine.Obs), so a
// cluster's metrics stay attributable per machine and the daemon's
// TStatsReq handler can answer for exactly its own node. Snapshots of
// different machines merge (histograms bucket-wise), which is how the
// controller's stats command renders a cluster-wide report.
package obs

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level — a queue depth, a high-water mark.
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set records the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by n and returns the new level, so callers can
// maintain a companion high-water gauge without a second load.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// SetMax raises the gauge to v if v exceeds the current level — the
// lock-free high-water update.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of a Histogram: bucket k holds
// observations v with bitlen(v) == k, i.e. v in [2^(k-1), 2^k), with
// bucket 0 holding v <= 0 and the last bucket absorbing everything
// wider. Power-of-two buckets keep Observe branch-free and make
// histograms from different machines merge by bucket-wise addition.
const NumBuckets = 64

// Histogram is a log-bucketed distribution, conventionally of
// latencies in nanoseconds (the rendering assumes so). The zero value
// is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// Observe folds one value into the distribution.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Since observes the nanoseconds elapsed from start — the usual way a
// latency lands in a histogram:
//
//	t0 := time.Now()
//	...
//	h.Since(t0)
func (h *Histogram) Since(start time.Time) { h.Observe(int64(time.Since(start))) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Span is an in-flight timed region. It is a value, so starting and
// ending a span allocates nothing.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing a region that will end in h.
func StartSpan(h *Histogram) Span { return Span{h: h, start: time.Now()} }

// End observes the span's elapsed time. A zero Span is a no-op, so a
// caller holding an optional histogram can time unconditionally.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(int64(time.Since(s.start)))
	}
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and return stable pointers: two callers asking for the same name
// share the metric, which is what lets several filters on one machine
// aggregate into one per-machine vocabulary. Lookups take a mutex —
// resolve handles at construction time, not on hot paths. Each kind is
// kept in name order as its metrics are created, the order a snapshot
// lists them in, so that a snapshot sorts nothing.
type Registry struct {
	mu       sync.Mutex
	counters []named[Counter]
	gauges   []named[Gauge]
	hists    []named[Histogram]
	sections []named[sectionSource]
}

// named is one entry of a registry's name-ordered list of a kind.
type named[T any] struct {
	name string
	m    *T
}

type sectionSource struct {
	version uint16
	capture func() []byte
}

// lookup returns the entry of list named name, creating it in its place
// on first use. The caller holds the registry's lock.
func lookup[T any](list *[]named[T], name string) *T {
	i, ok := slices.BinarySearchFunc(*list, name, func(e named[T], name string) int { return strings.Compare(e.name, name) })
	if !ok {
		*list = slices.Insert(*list, i, named[T]{name, new(T)})
	}
	return (*list)[i].m
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// defaultRegistry is the process-wide registry, for instrumentation
// with no better home. Simulated-cluster code should prefer the
// per-machine registries so stats stay attributable.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(&r.counters, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(&r.gauges, name)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(&r.hists, name)
}

// RegisterSection installs a section provider: capture is called at
// every Snapshot and its bytes become the section's payload (a nil
// return skips the section for that snapshot). Registering the same
// name again replaces the provider — a restarted filter re-registers
// its live-analysis sections without leaking the dead collector's.
func (r *Registry) RegisterSection(name string, version uint16, capture func() []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*lookup(&r.sections, name) = sectionSource{version: version, capture: capture}
}

// Snapshot captures every metric's current value, with names sorted,
// as the wire- and file-portable form of the registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{TakenUnixNano: time.Now().UnixNano()}
	// Sections capture first, and outside the lock: a section source
	// may flush buffered state into its registry metrics as part of
	// capturing (the live collector publishes its gauges then, and
	// registers a counter on first use), and the counter and gauge
	// passes below should see the result, not last flush's values.
	r.mu.Lock()
	capture := make([]func() []byte, 0, len(r.sections))
	for _, e := range r.sections {
		s.Sections = append(s.Sections, Section{Name: e.name, Version: e.m.version})
		capture = append(capture, e.m.capture)
	}
	r.mu.Unlock()
	kept := s.Sections[:0]
	for i, sec := range s.Sections {
		if sec.Data = capture[i](); sec.Data != nil {
			kept = append(kept, sec)
		}
	}
	s.Sections = kept
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = listOf[NamedValue](len(r.counters))
	for _, e := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: e.name, Value: e.m.Load()})
	}
	s.Gauges = listOf[NamedValue](len(r.gauges))
	for _, e := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: e.name, Value: e.m.Load()})
	}
	s.Hists = listOf[HistValue](len(r.hists))
	for _, e := range r.hists {
		var counts [NumBuckets]int64
		filled := 0
		for i := range counts {
			if counts[i] = e.m.buckets[i].Load(); counts[i] != 0 {
				filled++
			}
		}
		hv := HistValue{Name: e.name, Count: e.m.count.Load(), Sum: e.m.sum.Load(), Buckets: listOf[BucketCount](filled)}
		for i, n := range counts {
			if n != 0 {
				hv.Buckets = append(hv.Buckets, BucketCount{Bucket: uint8(i), Count: n})
			}
		}
		s.Hists = append(s.Hists, hv)
	}
	return s
}

// listOf returns an empty list with room for n entries, or nil for none:
// what appending n entries to nil leaves, without the regrowth.
func listOf[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	return make([]T, 0, n)
}
