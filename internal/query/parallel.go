package query

import (
	"container/heap"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dpm/internal/store"
	"dpm/internal/trace"
)

// This file is the read executor: the one segment scan and the one
// worker pool that both record queries (Run) and aggregate push-down
// (agg.Eval) execute on. Admitted segments are numbered in shard-major
// rotation order; workers scan them concurrently — decode, parse,
// evaluate rules — and the caller's fold receives each segment's
// result strictly in that order, on the calling goroutine. Anything
// order-sensitive (the per-shard event order of Run, which groups an
// aggregate's MaxGroups cap admits) therefore sees records in the
// order a single-threaded walk would, at any worker count, while
// everything expensive runs on the pool.
//
// Results flow through one shared bounded channel: workers block when
// the fold falls behind, and the collector always drains, so no
// configuration of slow segments can deadlock the pool.

// ScanSegment runs the record-selection tier over one segment: stored
// lines are decoded through a pooled decoder (compressed segments
// decompress only the blocks the query's envelope admits), parsed in
// place into the worker's one trace.View, and matched against the full
// rule semantics on it. A record whose own Meta — compared with each
// rule's envelope as segment and block pruning compare an Index — falls
// outside every one cannot match and is skipped before the parse. fn sees
// the view of each matching record with its rule's shared discard set;
// the view is only valid during the call, and a caller that ships the
// record takes view.Event(). A torn unsealed tail is tolerated, as with
// trace logs; corruption of a sealed segment is an error. The returned
// Stats is this segment's contribution (Scanned is 1).
func (q *Query) ScanSegment(rs *store.ReaderSegment, fn func(v *trace.View, discards map[string]bool)) (Stats, error) {
	st := Stats{Scanned: 1}
	admit := q.Admits
	if q.NoPrune {
		admit = nil
	}
	// One rule with an open envelope admits every record: no check then.
	envelope := admit != nil && len(q.bounds) > 0 && !slices.Contains(q.bounds, openBounds)
	d := store.AcquireDecoder()
	v := viewPool.Get().(*trace.View)
	ss, err := rs.ScanViews(d, admit, func(m store.Meta, rec *trace.View, line []byte) {
		if envelope && !q.admitsMeta(m) {
			st.Skipped++
			return
		}
		if rec == nil { // not stored typed: parse its line
			st.Parsed++
			if v.Parse(line) != nil {
				st.BadLines++
				return
			}
			rec = v
		}
		ok, discards := q.match(rec)
		if !ok {
			return
		}
		st.Matched++
		fn(rec, discards)
	})
	// The view aliases a line the backend may have lent: pool it empty.
	v.Reset()
	viewPool.Put(v)
	store.ReleaseDecoder(d)
	st.Records, st.Blocks, st.BlocksPruned = ss.Records, ss.Blocks, ss.BlocksPruned
	if err != nil && !errors.Is(err, store.ErrTruncated) {
		return st, err
	}
	return st, nil
}

// viewPool holds the record views scans parse into, one per running
// ScanSegment: a view handed to rule evaluation as a FieldSource
// escapes, so a fresh one per segment would be a kilobyte allocation
// per segment.
var viewPool = sync.Pool{New: func() any { return new(trace.View) }}

// ScanOrdered scans every segment the query admits on a pool of
// min(GOMAXPROCS, admitted segments) workers. scan runs on a worker,
// once per segment (normally a q.ScanSegment call collecting into a
// T); fold runs on the calling goroutine and receives the results
// strictly in Admitted order. The first scan error in that order is
// returned and nothing after it is folded. The returned Stats are the
// admission counts plus the sum of every folded segment's.
func ScanOrdered[T any](rd *store.Reader, q *Query,
	scan func(*store.ReaderSegment) (T, Stats, error),
	fold func(*store.ReaderSegment, T)) (Stats, error) {
	return scanOrdered(rd, q, runtime.GOMAXPROCS(0), scan, fold)
}

// scanOrdered is ScanOrdered with the worker count explicit, for the
// tests that pin results identical across worker counts.
func scanOrdered[T any](rd *store.Reader, q *Query, workers int,
	scan func(*store.ReaderSegment) (T, Stats, error),
	fold func(*store.ReaderSegment, T)) (Stats, error) {
	segs, stats := Admitted(rd, q)
	if workers > len(segs) {
		workers = len(segs)
	}
	type result struct {
		idx   int
		val   T
		stats Stats
		err   error
	}
	// A shared atomic cursor hands out segments; the channel carries
	// results back. Two slots per worker let a worker start its next
	// segment while its last result waits for the collector.
	var (
		next    atomic.Int64
		results = make(chan result, 2*workers)
		wg      sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(segs) {
					return
				}
				r := result{idx: n}
				r.val, r.stats, r.err = scan(segs[n])
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// In-order fold: park out-of-order arrivals, consume strictly by
	// segment index. After an error the loop only drains, so the workers
	// can exit; the cursor jumps to the end so they stop taking segments.
	pending := make(map[int]result, 2*workers)
	var firstErr error
	want := 0
	for r := range results {
		if firstErr != nil {
			continue
		}
		pending[r.idx] = r
		for {
			nr, ok := pending[want]
			if !ok {
				break
			}
			if nr.err != nil {
				firstErr = nr.err
				next.Store(int64(len(segs)))
				break
			}
			delete(pending, want)
			stats.add(nr.stats)
			fold(segs[want], nr.val)
			want++
		}
	}
	return stats, firstErr
}

// matchedPool recycles per-segment match buffers across scans. Without
// it every segment grows a fresh matched slice that dies as soon as
// the fold copies it out — the allocation storm behind the old 2.4x
// bytes/op blow-up from one worker to two.
var matchedPool = sync.Pool{
	New: func() any { return make([]trace.Event, 0, 512) },
}

func getMatched() []trace.Event { return matchedPool.Get().([]trace.Event)[:0] }

func putMatched(s []trace.Event) {
	clear(s) // events hold maps; don't pin them from the pool
	matchedPool.Put(s[:0])
}

// run executes a record query on the given number of workers. The
// result is independent of that number, byte for byte:
//
//   - per-shard event order is each segment's matches appended in
//     rotation order (the fold is in Admitted order, which is
//     shard-major) and stable-sorted by cpuTime once;
//   - cross-shard order comes from the cursorHeap's shard-id tie-break;
//   - stats are sums of per-segment counters, which commute.
func run(rd *store.Reader, q *Query, workers int) (*Result, error) {
	bufs := make([][]trace.Event, len(rd.Shards()))
	stats, err := scanOrdered(rd, q, workers,
		func(rs *store.ReaderSegment) ([]trace.Event, Stats, error) {
			matched := getMatched()
			st, err := q.ScanSegment(rs, func(v *trace.View, discards map[string]bool) {
				matched = append(matched, project(v.Event(), discards))
			})
			return matched, st, err
		},
		func(rs *store.ReaderSegment, matched []trace.Event) {
			bufs[rs.Shard] = append(bufs[rs.Shard], matched...)
			putMatched(matched)
		})
	if err != nil {
		return nil, err
	}
	// Grow keeps an empty result's Events nil, as callers print it.
	res := &Result{Stats: stats, Events: slices.Grow([]trace.Event(nil), stats.Matched)}
	var h cursorHeap
	for shard, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].CPUTime < buf[j].CPUTime })
		h = append(h, &shardBuf{buf: buf, shard: shard})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		c := h[0]
		ev := c.buf[0]
		ev.Seq = len(res.Events)
		res.Events = append(res.Events, ev)
		if c.buf = c.buf[1:]; len(c.buf) > 0 {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return res, nil
}

// shardBuf is one shard's sorted matches, consumed from the front.
type shardBuf struct {
	buf   []trace.Event
	shard int
}

// cursorHeap orders cursors by their head event's timestamp (shard id
// breaking ties for determinism).
type cursorHeap []*shardBuf

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	a, b := h[i].buf[0].CPUTime, h[j].buf[0].CPUTime
	if a != b {
		return a < b
	}
	return h[i].shard < h[j].shard
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*shardBuf)) }
func (h *cursorHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
