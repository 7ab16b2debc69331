package agg

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// Query is a compiled aggregate query: the selection rules choosing
// the records (compiled to the usual pruning envelopes) and the
// aggregate specification shaping the answer.
type Query struct {
	Sel   *query.Query
	Spec  *Spec
	key   string           // the selection rules' text and Spec.String(), the memo's name of the query
	by    []trace.FieldRef // Spec.By, resolved once for every event type
	field trace.FieldRef   // Spec.Field, likewise
}

// Compile parses a full aggregate query text: selection-rule lines in
// the Figure 3.3–3.4 syntax plus exactly one aggregate line ("agg ..."
// or "top ..."), in any order. Text with no aggregate line is an
// error here — plain selection queries belong to the query package.
func Compile(text string) (*Query, error) {
	var ruleLines, aggLines []string
	for _, line := range strings.Split(text, "\n") {
		if IsAggLine(line) {
			aggLines = append(aggLines, strings.TrimSpace(line))
		} else {
			ruleLines = append(ruleLines, line)
		}
	}
	if len(aggLines) == 0 {
		return nil, fmt.Errorf("%w: no aggregate line", ErrSpec)
	}
	if len(aggLines) > 1 {
		return nil, fmt.Errorf("%w: %d aggregate lines, want one", ErrSpec, len(aggLines))
	}
	spec, err := ParseSpec(aggLines[0])
	if err != nil {
		return nil, err
	}
	rules := strings.Join(ruleLines, "\n")
	sel, err := query.Compile(rules)
	if err != nil {
		return nil, err
	}
	aq := &Query{Sel: sel, Spec: spec, key: rules + "\x00" + spec.String(), field: trace.NewFieldRef(spec.Field)}
	for _, f := range spec.By {
		aq.by = append(aq.by, trace.NewFieldRef(f))
	}
	return aq, nil
}

// Options tunes one Eval.
type Options struct {
	// Obs, when set, receives agg.runs, agg.records and agg.fold_groups.
	Obs *obs.Registry
	// Memo, when set, serves sealed segments' tables across Evals; Store
	// names the store the reader reads, the part of their key it cannot
	// tell.
	Memo  *Memo
	Store string
}

// Eval runs an aggregate query against a store snapshot: admitted
// segments (footer pruning applied) are scanned where they live and
// folded into one bounded partial aggregate — the push-down half of a
// distributed aggregation. The caller ships the partial, not the
// records, and Releases it once shipped.
//
// Each segment is folded into its own group table on the query
// package's worker pool; this goroutine absorbs the tables in admission
// order, a table's groups in the order their keys first appeared, into
// one pooled table, sorted into canonical key order at the end. The
// MaxGroups cap admits keys first come, first served and never evicts,
// so a key's fate is settled by its first record. Absorbing in that
// order meets the first records as a record-by-record fold would, so
// the partial is that fold's at any worker count. A table a Memo serves
// is the scan's, taken before any worker starts and absorbed in its place.
func Eval(rd *store.Reader, aq *Query, opt Options) (*Partial, query.Stats, error) {
	records, foldGroups := new(obs.Counter), new(obs.Counter)
	if opt.Obs != nil {
		opt.Obs.Counter("agg.runs").Inc()
		records, foldGroups = opt.Obs.Counter("agg.records"), opt.Obs.Counter("agg.fold_groups")
	}
	p := partialPool.Get().(*Partial).Reset(aq.Spec)
	all := p.table
	all.reset()
	maxGroups, sketch := cmp.Or(aq.Spec.MaxGroups, DefaultMaxGroups), aq.Spec.Fn.NeedsSketch()
	var hit func(*store.ReaderSegment) (*segment, query.Stats, bool)
	scan := aq.scanSegment
	if opt.Memo != nil {
		hit, scan = opt.Memo.scanners(aq, opt.Store)
	}
	stats, err := query.ScanOrdered(rd, aq.Sel, hit, scan,
		func(_ *store.ReaderSegment, seg *segment) {
			p.Records += seg.records
			p.Skipped += seg.skipped
			p.widen(seg.minTime, seg.maxTime)
			for i := range seg.groups {
				g := &seg.groups[i]
				if _, ok := all.index[g.Key]; !ok && len(all.groups) >= maxGroups {
					p.Dropped += g.Count
					continue
				}
				all.group(g.Key, sketch).add(g)
			}
			records.Add(seg.records)
			foldGroups.Add(int64(len(seg.groups)))
			if seg.index != nil { // not a Memo's
				segmentPool.Put(seg)
			}
		})
	p.Groups = all.groups
	if err != nil {
		p.Release()
		return nil, stats, err
	}
	slices.SortFunc(p.Groups, func(a, b Group) int { return compareKeys(&a.Key, &b.Key) })
	return p, stats, nil
}

// segment is one scanned segment's contribution: the counters summed,
// and a group per key, in the order the keys first appeared.
type segment struct {
	records, skipped int64
	minTime, maxTime uint64
	groups           []Group
	index            map[GroupKey]int // key → its place in groups
	last             int              // the place of the last record's group
	window           uint64           // the start of the last record's window
}

// segmentPool recycles group tables across segments and queries.
var segmentPool = sync.Pool{New: func() any { return &segment{index: make(map[GroupKey]int)} }}

// partialPool recycles Eval's partials, each with the table it folds
// the segments' tables into, across queries.
var partialPool = sync.Pool{New: func() any { return &Partial{table: &segment{index: make(map[GroupKey]int)}} }}

// reset empties the table, keeping its storage.
func (seg *segment) reset() {
	clear(seg.index)
	*seg = segment{minTime: ^uint64(0), groups: seg.groups[:0], index: seg.index}
}

// group returns the segment's group for key, opening one for a new key;
// a run of records of one key, as a shard mostly is, skips the map.
func (seg *segment) group(key GroupKey, sketch bool) *Group {
	if len(seg.groups) > 0 && seg.groups[seg.last].Key == key {
		return &seg.groups[seg.last]
	}
	i, ok := seg.index[key]
	if !ok {
		i = len(seg.groups)
		seg.groups = slices.Grow(seg.groups, 1)[:i+1]
		g := &seg.groups[i]
		hist := g.hist[:0] // the sketch an earlier segment left in the place
		if *g = (Group{Key: key}); sketch {
			g.hist = append(hist, make([]int64, obs.NumBuckets)...)
		}
		seg.index[key] = i
	}
	seg.last = i
	return &seg.groups[i]
}

// scanSegment folds one segment's matching records into its group
// table. It runs on a pool worker and touches no shared state.
func (aq *Query) scanSegment(rs *store.ReaderSegment) (*segment, query.Stats, error) {
	seg := segmentPool.Get().(*segment)
	seg.reset()
	sketch, needsField := aq.Spec.Fn.NeedsSketch(), aq.Spec.Fn.NeedsField()
	st, err := aq.Sel.ScanSegment(rs, func(v *trace.View, _ uint8) {
		seg.records++
		seg.minTime = min(seg.minTime, uint64(v.CPUTime))
		seg.maxTime = max(seg.maxTime, uint64(v.CPUTime))
		var key GroupKey
		ok, val := aq.keyOf(v, &key, &seg.window), uint64(1)
		if ok && needsField {
			val, ok = v.FieldOf(&aq.field)
		}
		if !ok {
			seg.skipped++
			return
		}
		seg.group(key, sketch).observe(val, sketch)
	})
	return seg, st, err
}

// keyOf fills in the record's group key, false when a group-by field
// is absent from the record. *window is the start of the last record's
// window: a run of records in one window costs no division.
func (aq *Query) keyOf(v *trace.View, key *GroupKey, window *uint64) bool {
	if w := uint64(aq.Spec.WindowMS); w > 0 {
		if t := uint64(v.CPUTime); t-*window >= w {
			*window = t - t%w
		}
		key.Window = *window
	}
	for i := range aq.by {
		val, ok := v.FieldOf(&aq.by[i])
		if !ok {
			return false
		}
		key.Vals[i] = val
	}
	return true
}
