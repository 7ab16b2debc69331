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
//   - Segment, record. A sealed segment whose tail's index meets no
//     rule's envelope is skipped without a byte of its stream inflated;
//     so is a record by its own Meta, its line unparsed.
//   - Record selection. What remains is matched by the rules compiled to
//     trace.FieldRefs, and each selected record's line is written from
//     its view with the rule's '#' discards left out; the per-shard
//     streams merge into one timestamp-ordered result, the same ordering
//     discipline as trace.Merge.
package query

import (
	"fmt"
	"runtime"

	"dpm/internal/filter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// Query is a compiled query: the parsed rules, the pruning envelope of
// each, each rule's conditions with their fields resolved, and each
// rule's precomputed discard set (so matching allocates no map per
// record).
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
	conds    [][]cond
	discards []map[string]bool
}

// cond is a condition with its field, and the field it compares with,
// resolved once.
type cond struct {
	filter.Condition
	field, ref trace.FieldRef
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
		conds := make([]cond, len(r))
		for i, c := range r {
			conds[i] = cond{c, trace.NewFieldRef(c.Field), trace.NewFieldRef(c.FieldRef)}
		}
		q.conds = append(q.conds, conds)
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

// admitsMeta is admits of the one-record Index of m, without the Index.
func (b bounds) admitsMeta(m store.Meta) bool {
	t := uint64(m.Time)
	return !b.empty && t >= b.minTime && t <= b.maxTime &&
		(b.machines == 0 || b.machines&store.MachineBit(uint64(m.Machine)) != 0) &&
		(b.pids == 0 || b.pids&store.PIDBit(uint64(m.PID)) != 0) &&
		(b.types == 0 || b.types&store.TypeBit(uint64(m.Type)) != 0)
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

// admitsMeta reports whether a record with this Meta lies inside some
// rule's envelope: what Admits says of the record's one-record Index.
func (q *Query) admitsMeta(m store.Meta) bool {
	for _, b := range q.bounds {
		if b.admitsMeta(m) {
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
	if len(q.conds) == 0 {
		return true, nil
	}
	for i, conds := range q.conds {
		if holds(conds, v) {
			return true, q.discards[i]
		}
	}
	return false, nil
}

// holds reports whether every condition of a rule holds of the record.
func holds(conds []cond, v *trace.View) bool {
	for i := range conds {
		c := &conds[i]
		switch {
		case c.Wildcard:
			// '*' matches any value, but the field must exist.
			if _, ok := v.FieldOf(&c.field); !ok {
				return false
			}
		case c.FieldRef != "":
			// Socket names compare all sixteen bytes (sockName=peerName),
			// and only = and != constrain them.
			if a, ok := v.NameOf(&c.field); ok {
				b, ok := v.NameOf(&c.ref)
				if !ok || c.Op == filter.OpEQ && a != b || c.Op == filter.OpNE && a == b {
					return false
				}
				continue
			}
			a, aok := v.FieldOf(&c.field)
			b, bok := v.FieldOf(&c.ref)
			if !aok || !bok || !c.Op.Eval(a, b) {
				return false
			}
		default:
			if a, ok := v.FieldOf(&c.field); !ok || !c.Op.Eval(a, c.Value) {
				return false
			}
		}
	}
	return true
}

// Stats describes how a query executed.
type Stats struct {
	Segments     int // segments in the store snapshot
	Scanned      int // segments whose frames were parsed
	Pruned       int // segments skipped on footer evidence alone
	Blocks       int // DEFLATE streams inflated in scanned segments: a segment is one stream
	BlocksPruned int // always 0: a segment has no blocks to prune; kept because bench/layers.go reads it
	Records      int // records the decoder emitted in scanned segments
	Skipped      int // records rejected on their Meta, before the parse
	Parsed       int // records whose line was parsed: the ones not stored typed
	Typed        int // records matched as stored typed, with no parse
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
	s.Typed += o.Typed
	s.Matched += o.Matched
	s.BadLines += o.BadLines
}

// String renders the stats in the form the controller prints.
func (s Stats) String() string {
	return fmt.Sprintf("segments=%d scanned=%d pruned=%d records=%d matched=%d",
		s.Segments, s.Scanned, s.Pruned, s.Records, s.Matched)
}

// Result is a fully-drained query: the line of every selected record,
// each ending in a newline, in the order Run gives, and the statistics.
type Result struct {
	Lines []byte
	Stats Stats
}

// Admitted returns the segments the query must scan — every segment
// the footer-pruning envelope cannot rule out — and a Stats with the
// Segments/Pruned counts of that decision. Order is shard order, then
// rotation order within a shard. This is the only admission pass:
// ScanOrdered, and through it Run and agg.Eval, scan exactly these
// segments in exactly this order.
func Admitted(rd *store.Reader, q *Query) ([]*store.ReaderSegment, Stats) {
	segs := make([]*store.ReaderSegment, 0, rd.NumSegments())
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

// Run executes a query and returns the lines of all matching records,
// in cpuTime order across every shard as trace.Merge orders events, with
// the final statistics. Each line is what Event.AppendFormat writes for
// the record's Event with the matching rule's '#' fields taken out.
func Run(rd *store.Reader, q *Query) (*Result, error) {
	a, err := Exec(rd, q)
	if err != nil {
		return nil, err
	}
	return a.result(), nil
}

// Exec executes a query as Run does and returns its answer in the
// run's pooled buffers, for a caller that writes the lines where it
// wants them — the daemon, straight into its reply frame.
func Exec(rd *store.Reader, q *Query) (*Answer, error) {
	var span obs.Span
	if q.Obs != nil {
		span = obs.StartSpan(q.Obs.Histogram("query.run_ns"))
	}
	a, err := exec(rd, q, runtime.GOMAXPROCS(0))
	if err != nil || q.Obs == nil {
		return a, err
	}
	span.End()
	q.Obs.Counter("query.runs").Inc()
	q.Obs.Counter("query.segments").Add(int64(a.Stats.Segments))
	q.Obs.Counter("query.scanned").Add(int64(a.Stats.Scanned))
	q.Obs.Counter("query.pruned").Add(int64(a.Stats.Pruned))
	q.Obs.Counter("query.records").Add(int64(a.Stats.Records))
	q.Obs.Counter("query.records_skipped").Add(int64(a.Stats.Skipped))
	q.Obs.Counter("query.records_parsed").Add(int64(a.Stats.Parsed))
	q.Obs.Counter("query.records_typed").Add(int64(a.Stats.Typed))
	q.Obs.Counter("query.matched").Add(int64(a.Stats.Matched))
	q.Obs.Counter("query.bad_lines").Add(int64(a.Stats.BadLines))
	return a, nil
}
