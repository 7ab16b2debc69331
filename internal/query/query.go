// Package query evaluates the paper's selection-rule syntax (Figures
// 3.3 and 3.4: the operators > < = != >= <=, the '*' wildcard, and the
// '#' discard prefix) against a segmented event store — the third
// stage of the measurement model applied to stored data instead of a
// live meter stream.
//
// A query is a templates file: each line is an alternative rule, each
// rule a conjunction of conditions. Each rule compiles to a conservative
// envelope — a cpuTime window plus machine/pid/type bitmap constraints —
// that any matching record must fall inside, and evaluation narrows by
// it before it pays for the full rule:
//
//   - Segment, block, record. A sealed segment whose footer index meets
//     no rule's envelope is skipped without a frame parsed; so is a
//     compressed block by its zone map, undecoded; so is a record by its
//     own Meta, its line unparsed.
//   - Record selection. What remains streams through the full rule
//     semantics, including '#' projection, and the per-shard streams
//     merge into one timestamp-ordered result, the same ordering
//     discipline as trace.Merge.
package query

import (
	"fmt"
	"runtime"

	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// Query is a compiled query: the parsed rules, the pruning envelope of
// each, and each rule's precomputed discard set (so matching allocates
// no map per record).
type Query struct {
	Rules filter.Rules
	// NoPrune disables footer pruning, scanning every segment — the
	// diagnostic baseline the benchmarks compare against.
	NoPrune bool
	// Obs, when set, receives the query.* counters and the query.run_ns
	// latency of each Run — on a daemon-executed query the filter
	// machine's registry.
	Obs *obs.Registry

	bounds   []bounds
	discards []map[string]bool
}

// Compile parses selection rules (one per line, Figure 3.3 syntax) and
// derives their pruning envelopes. Empty input compiles to the
// match-everything query, as with filter templates.
func Compile(text string) (*Query, error) {
	rules, err := filter.ParseRules([]byte(text))
	if err != nil {
		return nil, err
	}
	q := &Query{Rules: rules}
	for _, r := range rules {
		q.bounds = append(q.bounds, boundsOf(r))
		q.discards = append(q.discards, r.DiscardSet())
	}
	return q, nil
}

// bounds is the pruning envelope of one rule: every record the rule
// can match lies inside it, so a segment whose footer index misses it
// cannot satisfy the rule. Zero bitmap fields mean unconstrained.
type bounds struct {
	minTime, maxTime uint64
	machines         uint64
	pids             uint64
	types            uint32
	// empty marks a self-contradictory rule (machine=1,machine=2): no
	// record can match, so no segment needs scanning for it.
	empty bool
}

// openBounds is the envelope of a rule that constrains none of
// cpuTime, machine, pid and type: it admits every non-empty index.
var openBounds = bounds{maxTime: ^uint64(0)}

func boundsOf(r filter.Rule) bounds {
	b := openBounds
	narrowTime := func(lo, hi uint64) {
		if lo > b.minTime {
			b.minTime = lo
		}
		if hi < b.maxTime {
			b.maxTime = hi
		}
	}
	narrow64 := func(cur *uint64, bit uint64) {
		if *cur == 0 {
			*cur = bit
		} else if *cur&bit == 0 {
			b.empty = true
		} else {
			*cur &= bit
		}
	}
	narrow32 := func(cur *uint32, bit uint32) {
		if *cur == 0 {
			*cur = bit
		} else if *cur&bit == 0 {
			b.empty = true
		} else {
			*cur &= bit
		}
	}
	for _, c := range r {
		if c.Wildcard || c.FieldRef != "" {
			continue
		}
		switch c.Field {
		case "cpuTime":
			switch c.Op {
			case filter.OpEQ:
				narrowTime(c.Value, c.Value)
			case filter.OpGE:
				narrowTime(c.Value, ^uint64(0))
			case filter.OpGT:
				if c.Value == ^uint64(0) {
					b.empty = true
				} else {
					narrowTime(c.Value+1, ^uint64(0))
				}
			case filter.OpLE:
				narrowTime(0, c.Value)
			case filter.OpLT:
				if c.Value == 0 {
					b.empty = true
				} else {
					narrowTime(0, c.Value-1)
				}
			}
		case "machine":
			if c.Op == filter.OpEQ {
				narrow64(&b.machines, store.MachineBit(c.Value))
			}
		case "pid":
			if c.Op == filter.OpEQ {
				narrow64(&b.pids, store.PIDBit(c.Value))
			}
		case "type", "traceType":
			if c.Op == filter.OpEQ {
				narrow32(&b.types, store.TypeBit(c.Value))
			}
		}
	}
	if b.minTime > b.maxTime {
		b.empty = true
	}
	return b
}

func (b bounds) admits(x store.Index) bool {
	if b.empty || x.Count == 0 {
		return false
	}
	if x.MaxTime < b.minTime || x.MinTime > b.maxTime {
		return false
	}
	if b.machines != 0 && b.machines&x.Machines == 0 {
		return false
	}
	if b.pids != 0 && b.pids&x.PIDs == 0 {
		return false
	}
	if b.types != 0 && b.types&x.Types == 0 {
		return false
	}
	return true
}

// Admits reports whether a segment with the given footer index could
// contain a matching record: true when any rule's envelope intersects
// the index (or when pruning is off or there are no rules).
func (q *Query) Admits(x store.Index) bool {
	if q.NoPrune || len(q.Rules) == 0 {
		return true
	}
	for _, b := range q.bounds {
		if b.admits(x) {
			return true
		}
	}
	return false
}

// match evaluates the query against one record view. With no rules
// every record matches; otherwise the first matching rule's discards
// apply. The returned discard set is precomputed per rule and shared
// across calls: callers must not mutate it.
func (q *Query) match(v *trace.View) (bool, map[string]bool) {
	if len(q.Rules) == 0 {
		return true, nil
	}
	for i, r := range q.Rules {
		if r.MatchSource(v) {
			if i < len(q.discards) {
				return true, q.discards[i]
			}
			// Query built without Compile: fall back to a fresh set.
			return true, r.DiscardSet()
		}
	}
	return false, nil
}

// project applies a matched rule's '#' discards to the event. Header
// fields are never dropped, mirroring the filter's record formatting,
// which always prints them.
func project(e trace.Event, discards map[string]bool) trace.Event {
	drop := false
	for k := range discards {
		if _, ok := e.Fields[k]; ok {
			drop = true
		}
		if _, ok := e.Names[k]; ok {
			drop = true
		}
	}
	if !drop {
		return e
	}
	fields := make(map[string]uint64, len(e.Fields))
	for k, v := range e.Fields {
		if !discards[k] {
			fields[k] = v
		}
	}
	names := make(map[string]meter.Name, len(e.Names))
	for k, v := range e.Names {
		if !discards[k] {
			names[k] = v
		}
	}
	e.Fields, e.Names = fields, names
	return e
}

// Stats describes how a query executed.
type Stats struct {
	Segments     int // segments in the store snapshot
	Scanned      int // segments whose frames were parsed
	Pruned       int // segments skipped on footer evidence alone
	Blocks       int // blocks (or streams/frame runs) visited in scanned segments
	BlocksPruned int // compressed blocks skipped on zone-map evidence
	Records      int // records the decoder emitted in scanned segments
	Skipped      int // records rejected on their Meta, before the parse
	Parsed       int // records whose line was parsed: the ones not stored typed
	Matched      int // records selected
	BadLines     int // lines the trace parser rejected, among the records that were parsed
}

// add sums another Stats into s; every field is a count, so per-segment
// contributions commute.
func (s *Stats) add(o Stats) {
	s.Segments += o.Segments
	s.Scanned += o.Scanned
	s.Pruned += o.Pruned
	s.Blocks += o.Blocks
	s.BlocksPruned += o.BlocksPruned
	s.Records += o.Records
	s.Skipped += o.Skipped
	s.Parsed += o.Parsed
	s.Matched += o.Matched
	s.BadLines += o.BadLines
}

// String renders the stats in the form the controller prints.
func (s Stats) String() string {
	return fmt.Sprintf("segments=%d scanned=%d pruned=%d records=%d matched=%d",
		s.Segments, s.Scanned, s.Pruned, s.Records, s.Matched)
}

// Result is a fully-drained query.
type Result struct {
	Events []trace.Event
	Stats  Stats
}

// Admitted returns the segments the query must scan — every segment
// the footer-pruning envelope cannot rule out — and a Stats with the
// Segments/Pruned counts of that decision. Order is shard order, then
// rotation order within a shard. This is the only admission pass:
// ScanOrdered, and through it Run and agg.Eval, scan exactly these
// segments in exactly this order.
func Admitted(rd *store.Reader, q *Query) ([]*store.ReaderSegment, Stats) {
	var segs []*store.ReaderSegment
	var stats Stats
	for _, shard := range rd.Shards() {
		for _, rs := range shard {
			stats.Segments++
			if rs.Sealed && !q.Admits(rs.Index) {
				stats.Pruned++
				continue
			}
			segs = append(segs, rs)
		}
	}
	return segs, stats
}

// Run executes a query and returns all matching events, in cpuTime
// order across every shard and re-sequenced in that order as
// trace.Merge does, with the final statistics.
func Run(rd *store.Reader, q *Query) (*Result, error) {
	var span obs.Span
	if q.Obs != nil {
		span = obs.StartSpan(q.Obs.Histogram("query.run_ns"))
	}
	res, err := run(rd, q, runtime.GOMAXPROCS(0))
	if err != nil || q.Obs == nil {
		return res, err
	}
	span.End()
	q.Obs.Counter("query.runs").Inc()
	q.Obs.Counter("query.segments").Add(int64(res.Stats.Segments))
	q.Obs.Counter("query.scanned").Add(int64(res.Stats.Scanned))
	q.Obs.Counter("query.pruned").Add(int64(res.Stats.Pruned))
	q.Obs.Counter("query.records").Add(int64(res.Stats.Records))
	q.Obs.Counter("query.records_skipped").Add(int64(res.Stats.Skipped))
	q.Obs.Counter("query.records_parsed").Add(int64(res.Stats.Parsed))
	q.Obs.Counter("query.matched").Add(int64(res.Stats.Matched))
	q.Obs.Counter("query.bad_lines").Add(int64(res.Stats.BadLines))
	return res, nil
}
