package query

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dpm/internal/store"
	"dpm/internal/trace"
)

// This file is the read executor: the one segment scan and the one
// worker pool that both record queries (Run) and aggregate push-down
// (agg.Eval) execute on. Admitted segments are numbered in shard-major
// rotation order; workers scan them concurrently — decode, parse,
// evaluate rules, write lines — and the caller's fold receives each
// segment's result strictly in that order, on the calling goroutine. Anything
// order-sensitive (the per-shard record order of Run, which groups an
// aggregate's MaxGroups cap admits) therefore sees records in the
// order a single-threaded walk would, at any worker count, while
// everything expensive runs on the pool.
//
// Results flow through one shared bounded channel, and a worker takes a
// segment only while few enough results wait for the fold: workers block
// when the fold falls behind, and the collector always drains, so no
// configuration of slow segments can deadlock the pool or grow what
// waits.

// ScanSegment runs the record-selection tier over one segment: stored
// lines are decoded through a pooled decoder, parsed in place into the
// worker's one trace.View, and matched against the full rule semantics
// on it. A record whose own Meta — compared with each rule's envelope as
// segment pruning compares an Index — falls
// outside every one cannot match and is skipped before the parse. fn sees
// the view of each matching record with its rule's shared discard set;
// the view is only valid during the call, and a caller that ships the
// record writes view.AppendLine. A torn unsealed tail is tolerated, as
// with trace logs; corruption of a sealed segment is an error. The
// returned Stats is this segment's contribution (Scanned is 1).
func (q *Query) ScanSegment(rs *store.ReaderSegment, fn func(v *trace.View, discards map[string]bool)) (Stats, error) {
	st := Stats{Scanned: 1}
	// One rule with an open envelope admits every record: no check then.
	envelope := !q.NoPrune && len(q.bounds) > 0 && !slices.Contains(q.bounds, openBounds)
	d := store.AcquireDecoder()
	v := viewPool.Get().(*trace.View)
	ss, err := rs.ScanViews(d, func(m store.Meta, rec *trace.View, line []byte) {
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
		} else {
			st.Typed++
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
	st.Records, st.Blocks = ss.Records, ss.Streams
	if err != nil && !errors.Is(err, store.ErrTruncated) {
		return st, err
	}
	return st, nil
}

// viewPool holds the record views scans parse into, one per running
// ScanSegment: a view handed to the caller's fn escapes, so a fresh one
// per segment would be a kilobyte allocation per segment.
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
	// results back. A worker takes a segment only with one of window
	// slots, given back as the fold passes it: however long one segment
	// takes, no more than window results wait behind it, each holding its
	// segment's output. Segments are taken in order, so the one the fold
	// waits for always holds a slot, and sends never block.
	window := 4 * workers
	var (
		next    atomic.Int64
		slots   = make(chan struct{}, window)
		results = make(chan result, window)
		wg      sync.WaitGroup
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				slots <- struct{}{}
				n := int(next.Add(1)) - 1
				if n >= len(segs) {
					<-slots
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
	// segment index. After an error the loop only drains, giving slots
	// back, so the workers can exit; the cursor jumps to the end so they
	// stop taking segments. At most window results wait, so the parked
	// ones are a slice searched whole.
	parked := make([]result, 0, window)
	var firstErr error
	want := 0
	for r := range results {
		if firstErr != nil {
			<-slots
			continue
		}
		parked = append(parked, r)
		for i := 0; i < len(parked); {
			if parked[i].idx != want {
				i++
				continue
			}
			nr := parked[i]
			if nr.err != nil {
				firstErr = nr.err
				next.Store(int64(len(segs)))
				for range parked {
					<-slots
				}
				break
			}
			parked[i] = parked[len(parked)-1]
			parked = parked[:len(parked)-1]
			stats.add(nr.stats)
			fold(segs[want], nr.val)
			<-slots
			want, i = want+1, 0
		}
	}
	return stats, firstErr
}

// lines is what a record query ships, the line of each record it
// selected, each ending in a newline, and where each lies in data with
// its cpuTime; one segment's in scan order, or every segment's in
// Admitted order.
type lines struct {
	data []byte
	recs []lineRec
}

type lineRec struct {
	t        int64
	off, end int
}

// segLines and runLines recycle segments' lines and runs' folded ones
// — apart, as a run's hold every segment's — so that a warm query
// allocates for its result and not per record or segment.
var segLines, runLines = sync.Pool{New: newLines}, sync.Pool{New: newLines}

func newLines() any { return new(lines) }

func getLines(p *sync.Pool) *lines {
	l := p.Get().(*lines)
	l.data, l.recs = l.data[:0], l.recs[:0]
	return l
}

// Answer is a record query's result as its scan left it: the
// statistics, and the line of every selected record in the run's pooled
// buffers. AppendLines writes the lines, in the order Run gives, and
// gives the buffers back: an Answer is read once.
type Answer struct {
	Stats Stats
	all   *lines
}

// Len is the length of the lines AppendLines writes.
func (a *Answer) Len() int { return len(a.all.data) }

// AppendLines appends the selected lines to b and gives the answer's
// buffers back.
func (a *Answer) AppendLines(b []byte) []byte {
	for _, r := range a.all.recs {
		b = append(b, a.all.data[r.off:r.end]...)
	}
	runLines.Put(a.all)
	a.all = nil
	return b
}

// result is the answer as a Result whose lines fill their own buffer.
func (a *Answer) result() *Result {
	return &Result{Stats: a.Stats, Lines: a.AppendLines(make([]byte, 0, a.Len()))}
}

// exec executes a record query on the given number of workers. The
// result is independent of that number, byte for byte: segments fold in
// Admitted order, which is shard-major and rotation order within a
// shard, so a line's offset in the folded buffer orders it by shard and
// then as its shard scanned it; the lines are shipped sorted by cpuTime,
// then offset — each shard's matches stably sorted by cpuTime and the
// shards merged with ties going to the lower shard id. Stats are sums of
// per-segment counters, which commute.
func exec(rd *store.Reader, q *Query, workers int) (*Answer, error) {
	all := getLines(&runLines)
	stats, err := scanOrdered(rd, q, workers,
		func(rs *store.ReaderSegment) (*lines, Stats, error) {
			seg := getLines(&segLines)
			st, err := q.ScanSegment(rs, func(v *trace.View, discards map[string]bool) {
				off := len(seg.data)
				seg.data = append(v.AppendLine(seg.data, discards), '\n')
				seg.recs = append(seg.recs, lineRec{v.CPUTime, off, len(seg.data)})
			})
			return seg, st, err
		},
		func(_ *store.ReaderSegment, seg *lines) {
			base := len(all.data)
			all.data = append(all.data, seg.data...)
			for _, r := range seg.recs {
				all.recs = append(all.recs, lineRec{r.t, base + r.off, base + r.end})
			}
			segLines.Put(seg)
		})
	if err != nil {
		runLines.Put(all)
		return nil, err
	}
	slices.SortFunc(all.recs, func(a, b lineRec) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.off, b.off))
	})
	return &Answer{Stats: stats, all: all}, nil
}
