package agg

import (
	"fmt"
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
	Sel  *query.Query
	Spec *Spec
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
	sel, err := query.Compile(strings.Join(ruleLines, "\n"))
	if err != nil {
		return nil, err
	}
	return &Query{Sel: sel, Spec: spec}, nil
}

// Options tunes one Eval.
type Options struct {
	// Obs, when set, receives agg.runs.
	Obs *obs.Registry
}

// Eval runs an aggregate query against a store snapshot: admitted
// segments (footer pruning applied) are scanned where they live and
// folded into one bounded partial aggregate — the push-down half of a
// distributed aggregation. The caller ships the partial, not the
// records.
//
// Segments are scanned on the query package's worker pool, but only up
// to each matched record's group key and value; the fold into the
// partial runs on this goroutine, segment by segment in admission
// order. The MaxGroups cap admits groups first come, first served, so
// which groups survive a saturated cap is decided by that one order
// and not by how many workers ran or how they were scheduled.
func Eval(rd *store.Reader, aq *Query, opt Options) (*Partial, query.Stats, error) {
	if opt.Obs != nil {
		opt.Obs.Counter("agg.runs").Inc()
	}
	p := NewPartial(aq.Spec)
	sketch := aq.Spec.Fn.NeedsSketch()
	maxGroups := aq.Spec.maxGroups()
	stats, err := query.ScanOrdered(rd, aq.Sel, aq.scanSegment,
		func(_ *store.ReaderSegment, seg *segment) {
			p.Records += seg.records
			p.Skipped += seg.skipped
			if seg.records > 0 {
				p.noteTime(seg.minTime)
				p.noteTime(seg.maxTime)
			}
			for _, it := range seg.items {
				if !p.fold(it.key, it.v, sketch, maxGroups) {
					p.Dropped++
				}
			}
			segmentPool.Put(seg)
		})
	if err != nil {
		return nil, stats, err
	}
	return p, stats, nil
}

// segment is what one scanned segment contributes to the fold: the
// order-independent counters already summed, and the (key, value) of
// every matched record that reaches a group, in record order.
type segment struct {
	records, skipped int64
	minTime, maxTime uint64
	items            []item
}

type item struct {
	key GroupKey
	v   uint64
}

// segmentPool recycles item buffers across segments and queries.
var segmentPool = sync.Pool{New: func() any { return new(segment) }}

// scanSegment reduces one segment's matching records to a segment
// contribution. It runs on a pool worker and touches no shared state.
func (aq *Query) scanSegment(rs *store.ReaderSegment) (*segment, query.Stats, error) {
	seg := segmentPool.Get().(*segment)
	*seg = segment{minTime: ^uint64(0), items: seg.items[:0]}
	st, err := aq.Sel.ScanSegment(rs, func(v *trace.View, _ map[string]bool) {
		seg.records++
		seg.minTime = min(seg.minTime, uint64(v.CPUTime))
		seg.maxTime = max(seg.maxTime, uint64(v.CPUTime))
		key, ok := aq.Spec.keyOf(v)
		if !ok {
			seg.skipped++
			return
		}
		val := uint64(1)
		if aq.Spec.Fn.NeedsField() {
			if val, ok = v.Field(aq.Spec.Field); !ok {
				seg.skipped++
				return
			}
		}
		seg.items = append(seg.items, item{key, val})
	})
	return seg, st, err
}

// keyOf computes the record's group key, false when a group-by field
// is absent from the record.
func (s *Spec) keyOf(v *trace.View) (GroupKey, bool) {
	var key GroupKey
	if s.WindowMS > 0 {
		t := uint64(v.CPUTime)
		key.Window = t - t%uint64(s.WindowMS)
	}
	for i, f := range s.By {
		val, ok := v.Field(f)
		if !ok {
			return key, false
		}
		key.Vals[i] = val
	}
	return key, true
}
