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
// resolve handles at construction time, not on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sections map[string]sectionSource
}

type sectionSource struct {
	version uint16
	capture func() []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		sections: make(map[string]sectionSource),
	}
}

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
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// RegisterSection installs a section provider: capture is called at
// every Snapshot and its bytes become the section's payload (a nil
// return skips the section for that snapshot). Registering the same
// name again replaces the provider — a restarted filter re-registers
// its live-analysis sections without leaking the dead collector's.
func (r *Registry) RegisterSection(name string, version uint16, capture func() []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sections[name] = sectionSource{version: version, capture: capture}
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
	for name, src := range r.sections {
		s.Sections = append(s.Sections, Section{Name: name, Version: src.version})
		capture = append(capture, src.capture)
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
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, Value: c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, Value: g.Load()})
	}
	for name, h := range r.hists {
		hv := HistValue{Name: name, Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n != 0 {
				hv.Buckets = append(hv.Buckets, BucketCount{Bucket: uint8(i), Count: n})
			}
		}
		s.Hists = append(s.Hists, hv)
	}
	slices.SortFunc(s.Counters, cmpValueName)
	slices.SortFunc(s.Gauges, cmpValueName)
	slices.SortFunc(s.Hists, cmpHistName)
	slices.SortFunc(s.Sections, func(a, b Section) int { return strings.Compare(a.Name, b.Name) })
	return s
}
