package agg

import (
	"fmt"
	"slices"
	"sync"

	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
)

// MemoCost is the bound a daemon's Memo holds, in cost units: a kept
// table costs one, and each of its groups one more, or obs.NumBuckets
// more when the group carries a sketch.
const MemoCost = 1 << 15

// Memo keeps sealed segments' group tables across Evals. A segment
// sealed all the way down never changes, so neither does the table a
// query folds from it: a standing aggregate asked again scans only the
// segments sealed, compacted or archived since, and takes the rest —
// table and scan statistics — from here. A table is keyed by the store
// (Options.Store), the canonical query (compiled rules, Spec.String(),
// NoPrune), the segment's name and its store.ReaderSegment.Tail;
// segments without a tail and scans that fail are never kept. A memo
// whose next table would take it past its bound is emptied first, as the
// daemon's getfile checkpoint table is. Safe for concurrent Evals.
type Memo struct {
	limit int
	reg   *obs.Registry
	once  sync.Once // resolves the agg.memo_* handles at the first Eval
	// hits, misses and clears count lookups and emptyings; groups holds
	// the groups kept.
	hits, misses, clears *obs.Counter
	groups               *obs.Gauge

	mu     sync.Mutex
	tables map[memoKey]memoTable
	cost   int
}

type memoKey struct {
	scope string // the store and the canonical query
	name  string
	tail  [store.TailSize]byte
}

// memoTable is a kept table — read-only, without an index, never back
// in segmentPool — and the scan statistics it came with.
type memoTable struct {
	seg *segment
	st  query.Stats
}

// NewMemo returns an empty memo bounded at limit cost units, counting
// in reg.
func NewMemo(limit int, reg *obs.Registry) *Memo {
	return &Memo{limit: limit, reg: reg, tables: make(map[memoKey]memoTable)}
}

// scanner returns aq.scanSegment with the memo in front of it for the
// segments that have a tail.
func (m *Memo) scanner(aq *Query, storeID string) func(*store.ReaderSegment) (*segment, query.Stats, error) {
	m.once.Do(func() {
		m.hits, m.misses, m.clears = m.reg.Counter("agg.memo_hits"), m.reg.Counter("agg.memo_misses"), m.reg.Counter("agg.memo_clears")
		m.groups = m.reg.Gauge("agg.memo_groups")
	})
	scope := fmt.Sprintf("%s\x00%#v\x00%s\x00%t", storeID, aq.Sel.Rules, aq.Spec, aq.Sel.NoPrune)
	return func(rs *store.ReaderSegment) (*segment, query.Stats, error) {
		tail := rs.Tail()
		if tail == nil {
			return aq.scanSegment(rs)
		}
		k := memoKey{scope: scope, name: rs.Name, tail: [store.TailSize]byte(tail)}
		m.mu.Lock()
		t, ok := m.tables[k]
		m.mu.Unlock()
		if ok {
			m.hits.Inc()
			return t.seg, t.st, nil
		}
		m.misses.Inc()
		seg, st, err := aq.scanSegment(rs)
		if err != nil {
			return seg, st, err
		}
		return m.keep(k, seg, st, aq.Spec.Fn.NeedsSketch()), st, nil
	}
}

// keep stores a compact copy of a scanned table, puts the scanned one
// back in the pool and returns the copy.
func (m *Memo) keep(k memoKey, seg *segment, st query.Stats, sketch bool) *segment {
	kept := &segment{records: seg.records, skipped: seg.skipped, minTime: seg.minTime, maxTime: seg.maxTime,
		groups: slices.Clone(seg.groups)}
	for i := range kept.groups {
		kept.groups[i].hist = slices.Clone(kept.groups[i].hist)
	}
	segmentPool.Put(seg)
	cost := 1 + len(kept.groups)
	if sketch {
		cost = 1 + len(kept.groups)*obs.NumBuckets
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tables[k]; ok || cost > m.limit {
		return kept
	}
	if m.cost+cost > m.limit {
		clear(m.tables)
		m.cost = 0
		m.groups.Set(0)
		m.clears.Inc()
	}
	m.tables[k] = memoTable{kept, st}
	m.cost += cost
	m.groups.Add(int64(len(kept.groups)))
	return kept
}
