package query

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// This file is the read executor: the one segment scan and the one
// worker pool that both record queries (Run) and aggregate push-down
// (agg.Eval) execute on. Admitted segments are numbered in shard-major
// rotation order; workers scan them concurrently — decode, evaluate
// rules, write lines — and the caller's fold receives each
// segment's result strictly in that order, on the calling goroutine. Anything
// order-sensitive (the per-shard record order of Run, which groups an
// aggregate's MaxGroups cap admits) therefore sees records in the
// order a single-threaded walk would, at any worker count, while
// everything expensive runs on the pool.
//
// A worker takes a segment only while few enough results wait for the
// fold: workers block when the fold falls behind, and the fold always
// drains, so no configuration of slow segments can deadlock the pool
// or grow what waits.

// ScanSegment runs the record-selection tier over one segment: records
// are decoded through a pooled decoder into its trace.View and matched
// against the full rule semantics on it. A record whose own Meta —
// compared with each rule's envelope as segment pruning compares an
// Index — falls outside every one cannot match and is skipped before its
// body is read. fn sees the view of each matching record with its rule's
// discards, a mask of the record type's stored order; the view is only
// valid during the call, and a caller that ships the record writes
// view.AppendLine. A torn unsealed tail is tolerated, as with trace
// logs; corruption of a sealed segment is an error. The returned Stats
// is this segment's contribution (Scanned is 1).
func (q *Query) ScanSegment(rs *store.ReaderSegment, fn func(v *trace.View, drop uint8)) (Stats, error) {
	st := Stats{Scanned: 1}
	// One rule with an open envelope admits every record: no check then.
	envelope := !q.NoPrune && len(q.bounds) > 0 && !slices.Contains(q.bounds, openBounds)
	d := store.AcquireDecoder()
	ss, err := rs.ScanViews(d, func(m store.Meta, v *trace.View) {
		if envelope && !q.admitsMeta(m) {
			st.Skipped++
			return
		}
		st.Typed++
		ok, drop := q.match(v)
		if !ok {
			return
		}
		st.Matched++
		fn(v, drop)
	})
	store.ReleaseDecoder(d)
	st.Records, st.Blocks = ss.Records, ss.Streams
	if err != nil && !errors.Is(err, store.ErrTruncated) {
		return st, err
	}
	return st, nil
}

// ScanOrdered folds, on the calling goroutine and strictly in Admitted
// order, each admitted segment's result: hit's answer, when hit is not
// nil and answers it there before any worker starts, or else scan's
// (normally a q.ScanSegment call collecting into a T), run on
// min(GOMAXPROCS, segments left to scan) workers — on the calling
// goroutine when that is one. The first scan error in Admitted order is
// returned and nothing after it is folded. The returned Stats are the
// admission counts plus the sum of every folded segment's.
func ScanOrdered[T any](rd *store.Reader, q *Query,
	hit func(*store.ReaderSegment) (T, Stats, bool),
	scan func(*store.ReaderSegment) (T, Stats, error),
	fold func(*store.ReaderSegment, T)) (Stats, error) {
	return scanOrdered(rd, q, runtime.GOMAXPROCS(0), hit, scan, fold)
}

// call is one ScanOrdered call's state: the admitted segments, each
// one's outcome, the places in segs of those left to scan, and the
// workers' channels. A call takes it from calls and gives it back once
// every worker it started has returned.
type call struct {
	mem   *obs.FreeStats // the traffic of q.Obs with calls
	segs  []*store.ReaderSegment
	out   []outcome
	todo  []int
	next  atomic.Int64  // the next place in todo a worker takes
	slots chan struct{} // a worker takes a segment only with a slot
	// done carries the place in segs of each segment a worker scanned,
	// and -1 as a worker returns. A worker sends only while it holds a
	// slot, and it keeps the slot it returns with, so no send waits.
	done chan int
}

// outcome is one admitted segment's result. A segment a worker scanned
// holds a slot until it is folded.
type outcome struct {
	val         any
	stats       Stats
	err         error
	ready, slot bool
}

// calls holds the calls' state between uses, and loses none to a
// collection or a P. The benchmark's workloads hold at most two calls
// at once (a `query all` over two filters), of at most 11 kB; the list
// keeps 8 and 1 MiB, room for eight filters of a thousand segments. In
// a test binary a call given back has its outcomes overwritten with
// errReleased, so that a fold still reading them fails.
var calls = &obs.FreeList[*call]{Name: "query_calls", Count: 8, Bytes: 1 << 20,
	Size: func(c *call) int { return 8*cap(c.segs) + int(unsafe.Sizeof(outcome{}))*cap(c.out) + 8*cap(c.todo) },
	New:  func(int) *call { return new(call) },
	Poison: func(c *call) {
		for out, i := c.out[:cap(c.out)], 0; i < len(out); i++ {
			out[i] = outcome{err: errReleased, ready: true}
		}
	}}

var errReleased = errors.New("query: call used after release")

// scanOrdered is ScanOrdered with the worker count explicit, for the
// tests that pin results identical across worker counts.
func scanOrdered[T any](rd *store.Reader, q *Query, workers int,
	hit func(*store.ReaderSegment) (T, Stats, bool),
	scan func(*store.ReaderSegment) (T, Stats, error),
	fold func(*store.ReaderSegment, T)) (Stats, error) {
	mem := calls.Stats(q.Obs)
	c := calls.Take(0, mem)
	c.mem = mem
	var stats Stats
	c.segs, stats = Admitted(c.segs[:0], rd, q)
	c.out, c.todo = slices.Grow(c.out[:0], len(c.segs))[:len(c.segs)], c.todo[:0]
	for i, rs := range c.segs {
		if c.out[i] = (outcome{}); hit != nil {
			c.out[i].val, c.out[i].stats, c.out[i].ready = hit(rs)
		}
		if !c.out[i].ready {
			c.todo = append(c.todo, i)
		}
	}
	scanAt := func(i int) { c.out[i].val, c.out[i].stats, c.out[i].err = scan(c.segs[i]) }
	// A worker takes a segment only with one of window slots, given
	// back as the fold passes it: however long one segment takes, no
	// more than window results wait behind it. Segments are taken in
	// order, so the one the fold waits for always holds a slot.
	window, live := 4*workers, 0
	if workers = min(workers, len(c.todo)); workers > 1 {
		if cap(c.slots) != window {
			c.slots, c.done = make(chan struct{}, window), make(chan int, window)
		}
		c.next.Store(0)
		for ; live < workers; live++ {
			go c.work(scanAt)
		}
	}
	var err error
	for i, rs := range c.segs {
		o := &c.out[i]
		if !o.ready && workers <= 1 {
			scanAt(i)
		}
		for !o.ready && workers > 1 {
			if j := <-c.done; j < 0 {
				live--
			} else {
				c.out[j].ready, c.out[j].slot = true, true
			}
		}
		if err = o.err; err != nil {
			break
		}
		if o.slot {
			<-c.slots
		}
		stats.add(o.stats)
		fold(rs, o.val.(T))
	}
	c.finish(live)
	return stats, err
}

// work is one worker: it scans the segments of todo it takes, in
// order, until none is left.
func (c *call) work(scanAt func(int)) {
	for {
		c.slots <- struct{}{}
		k := int(c.next.Add(1)) - 1
		if k >= len(c.todo) {
			c.done <- -1
			return
		}
		scanAt(c.todo[k])
		c.done <- c.todo[k]
	}
}

// finish stops the workers taking segments, waits for the live ones to
// return, taking every slot back meanwhile, and gives the call back.
func (c *call) finish(live int) {
	c.next.Store(int64(len(c.todo)))
	for live > 0 {
		select {
		case j := <-c.done:
			if j < 0 {
				live--
			}
		case <-c.slots:
		}
	}
	for len(c.slots) > 0 {
		<-c.slots
	}
	clear(c.out) // the pool keeps no result or segment alive
	clear(c.segs)
	calls.Put(c, c.mem)
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
	stats, err := scanOrdered(rd, q, workers, nil,
		func(rs *store.ReaderSegment) (*lines, Stats, error) {
			seg := getLines(&segLines)
			st, err := q.ScanSegment(rs, func(v *trace.View, drop uint8) {
				off := len(seg.data)
				seg.data = append(v.AppendLine(seg.data, drop), '\n')
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
