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
	"encoding/binary"
	"fmt"
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
	lists    map[string]*FreeStats // each FreeList's counters, by its name
}

// named is one entry of a registry's name-ordered list of a kind.
type named[T any] struct {
	name string
	m    *T
}

type sectionSource struct {
	version uint16
	capture func(b []byte) []byte
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

// RegisterSection installs a section provider: at every snapshot,
// capture appends the section's payload to b, the snapshot being
// encoded, and returns the result, or returns nil to skip the section
// for that snapshot — so a payload is written once, where the
// snapshot's bytes go. Registering the same name again replaces the
// provider — a restarted filter re-registers its live-analysis
// sections without leaking the dead collector's.
func (r *Registry) RegisterSection(name string, version uint16, capture func(b []byte) []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*lookup(&r.sections, name) = sectionSource{version: version, capture: capture}
}

// Snapshot captures every metric's current value, with names sorted,
// as the wire- and file-portable form of the registry: AppendBinary,
// decoded.
func (r *Registry) Snapshot() *Snapshot {
	s, err := ParseSnapshot(r.AppendBinary(nil, ""))
	if err != nil {
		panic(fmt.Sprintf("obs: a registry's own snapshot: %v", err))
	}
	return s
}

// AppendBinary appends the registry's snapshot, labelled machine, to b
// in the binary form (Snapshot.AppendBinary) — what a daemon writes
// straight into a stats reply's frame. Sections capture first, and
// outside the lock: a section source may flush buffered state into its
// registry metrics as part of capturing (the live collector publishes
// its gauges then, and registers a counter on first use), and the
// metrics written after should show the result, not the last flush's
// values. So the sections go behind room left for the metrics as they
// are before the capture, which the metrics then fill, or, when they
// no longer fit it, take the place of.
func (r *Registry) AppendBinary(b []byte, machine string) []byte {
	taken := time.Now().UnixNano()
	start := len(b)
	r.mu.Lock()
	var buf [4]named[sectionSource]
	sources := append(buf[:0], r.sections...)
	b = r.appendHead(b, machine, taken)
	r.mu.Unlock()
	room := len(b) - start
	le := binary.LittleEndian
	b = le.AppendUint32(b, 0)
	n := 0
	for _, e := range sources {
		at := len(b)
		b = le.AppendUint32(le.AppendUint16(appendString(b, e.name), e.m.version), 0)
		out := e.m.capture(b)
		if out == nil {
			b = b[:at]
			continue
		}
		le.PutUint32(out[at+2+len(e.name)+2:], uint32(len(out)-at-2-len(e.name)-2-4))
		b, n = out, n+1
	}
	le.PutUint32(b[start+room:], uint32(n))
	r.mu.Lock()
	head := r.appendHead(b[start:start:start+room], machine, taken)
	r.mu.Unlock()
	if len(head) != room || &head[0] != &b[start] {
		// A capture registered a metric, or filled a histogram's bucket.
		b = slices.Insert(slices.Delete(b, start, start+room), start, head...)
	}
	return b
}

// appendHead appends the snapshot's binary form up to its sections:
// the magic, version, machine and time, then the counters, gauges and
// histograms, each list in name order. The caller holds the lock.
func (r *Registry) appendHead(b []byte, machine string, taken int64) []byte {
	le := binary.LittleEndian
	b = append(b, snapshotMagic[:]...)
	b = le.AppendUint16(b, SnapshotVersion)
	b = le.AppendUint64(appendString(b, machine), uint64(taken))
	b = le.AppendUint32(b, uint32(len(r.counters)))
	for _, e := range r.counters {
		b = le.AppendUint64(appendString(b, e.name), uint64(e.m.Load()))
	}
	b = le.AppendUint32(b, uint32(len(r.gauges)))
	for _, e := range r.gauges {
		b = le.AppendUint64(appendString(b, e.name), uint64(e.m.Load()))
	}
	b = le.AppendUint32(b, uint32(len(r.hists)))
	for _, e := range r.hists {
		var counts [NumBuckets]int64
		filled := 0
		for i := range counts {
			if counts[i] = e.m.buckets[i].Load(); counts[i] != 0 {
				filled++
			}
		}
		b = appendString(b, e.name)
		b = le.AppendUint64(b, uint64(e.m.count.Load()))
		b = le.AppendUint64(b, uint64(e.m.sum.Load()))
		b = le.AppendUint16(b, uint16(filled))
		for i, n := range counts {
			if n != 0 {
				b = le.AppendUint64(append(b, uint8(i)), uint64(n))
			}
		}
	}
	return b
}
