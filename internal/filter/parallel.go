package filter

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"dpm/internal/obs"
	"dpm/internal/store"
)

// This file is the filter's multicore execution layer. The classic
// Main loop decoded, selected, formatted, and flushed every
// connection's frames on a single goroutine; a Pipeline spreads that
// work over a bounded set of workers while preserving the two ordering
// guarantees the rest of the system depends on:
//
//   - per-connection record order: each source (meter connection) is
//     pinned to exactly one worker, and a worker processes its
//     sources' chunks in arrival order;
//   - store-before-log: a batch's records reach the event store before
//     its lines are queued for the flat log, so the store never holds
//     fewer records than the log (the chaos soak's invariant).
//
// The store sink is written concurrently by the workers — the store's
// per-shard locks already make AppendBatch safe and mostly
// uncontended — while the flat log, which is one shared append-only
// file, is fed through a single writer goroutine behind a bounded
// queue. Every queue in the pipeline is bounded, so a slow sink
// degrades throughput (feeds block) instead of growing memory; the
// stalls and drops are counted in FaultStats-style counters.

// PipelineConfig tunes a Pipeline. The zero value selects the
// defaults.
type PipelineConfig struct {
	// Workers is the number of processing goroutines; each source is
	// pinned to one worker. Defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds each worker's input queue and the log writer's
	// queue, in chunks/batches. Defaults to 16.
	QueueDepth int
	// Obs is the registry the pipeline's counters live in — on a real
	// deployment the machine's registry, so a filter's metrics are
	// queryable over the daemon wire. Nil gets a fresh private registry,
	// which keeps Stats() per-pipeline in tests that run several
	// pipelines side by side.
	Obs *obs.Registry
	// Taps, when non-nil, supplies one RecordTap per worker; each
	// worker's engine calls its tap for every kept record and flushes
	// it after every processed chunk. This is how live streaming
	// analysis observes the record flow (internal/analysis/live).
	Taps TapSource
}

// DefaultQueueDepth is the bounded-queue depth used when
// PipelineConfig.QueueDepth is zero.
const DefaultQueueDepth = 16

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// Sinks is where a Pipeline delivers surviving records. Either sink
// may be nil. Store appends run concurrently from the workers (the
// store's per-shard locks serialize what must be serialized); Log is
// called from a single writer goroutine, one call per batch, with a
// buffer that is only valid for the duration of the call.
type Sinks struct {
	Store *store.Store
	Log   func(lines []byte) error
}

// pipeItem is one unit of worker input: a chunk of meter-stream bytes
// from one source. pooled marks a chunk from chunkFree, which goes back
// to it once processed.
type pipeItem struct {
	src    *Source
	data   []byte
	pooled bool
}

// chunkSize is the size of Drain's read buffers: a large read drains
// whole meter-buffer flushes in one call, giving the engine maximal
// contiguous frame runs.
const chunkSize = 64 << 10

// chunkFree holds Drain's read buffers, and batchFree whole batches
// with the arrays they grew, between chunks, for every pipeline of the
// process. A pipeline has at most QueueDepth × Workers chunks queued
// and Workers + QueueDepth + 1 batches in use: 32 and 19 at the default
// depth on two cores, which the caps hold.
var (
	chunkFree = obs.NewByteList("chunks", 64, 5<<20)
	batchFree = &obs.FreeList[*Batch]{Name: "batches", Count: 32, Bytes: 16 << 20, Size: (*Batch).size,
		New: func(int) *Batch { return new(Batch) }, Poison: func(b *Batch) { obs.PoisonBytes(b.Lines) }}
)

// pipeWorker is one processing goroutine's state. Its per-worker
// counters (filter.worker<i>.*) expose skew between workers — a hot
// source pins its records to one worker, and without the breakdown a
// balanced-looking total can hide one saturated queue.
type pipeWorker struct {
	eng *Engine
	in  chan pipeItem

	received  *obs.Counter
	kept      *obs.Counter
	discarded *obs.Counter
}

// Pipeline is the bounded-parallelism ingest engine. Construct with
// NewPipeline, attach sources with NewSource, feed each source its
// connection's bytes in order, and Close when done (Close drains the
// queues and flushes the sinks).
type Pipeline struct {
	cfg     PipelineConfig
	sinks   Sinks
	workers []*pipeWorker
	logQ    chan *Batch
	quit    chan struct{}

	wg    sync.WaitGroup // workers
	logWg sync.WaitGroup // log writer

	closeOnce sync.Once

	nextWorker atomic.Int64
	logDead    atomic.Bool

	// All counters live in an obs registry (cfg.Obs or a private one);
	// the handles are resolved once here, never on the hot path. The
	// former bespoke atomics are these counters now — Stats() is a view.
	obs          *obs.Registry
	sources      *obs.Counter
	chunks       *obs.Counter
	received     *obs.Counter
	kept         *obs.Counter
	discarded    *obs.Counter
	batches      *obs.Counter
	feedStalls   *obs.Counter
	logStalls    *obs.Counter
	drops        *obs.Counter
	streamErrors *obs.Counter
	sinkErrors   *obs.Counter
	queueDepth   *obs.Gauge
	highWater    *obs.Gauge
	flushNS      *obs.Histogram
	chunkMem     *obs.FreeStats
	batchMem     *obs.FreeStats
}

// NewPipeline builds a pipeline around an engine prototype: each
// worker gets a Clone sharing the compiled program. spawn launches the
// pipeline's goroutines (workers plus, when Sinks.Log is set, the log
// writer); nil means plain `go`. A filter running inside the simulated
// kernel passes kernel.Process.Go so the goroutines unwind cleanly
// when the process is killed.
func NewPipeline(proto *Engine, cfg PipelineConfig, sinks Sinks, spawn func(func())) *Pipeline {
	cfg = cfg.withDefaults()
	if spawn == nil {
		spawn = func(fn func()) { go fn() }
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	pl := &Pipeline{
		cfg:   cfg,
		sinks: sinks,
		logQ:  make(chan *Batch, cfg.QueueDepth),
		quit:  make(chan struct{}),

		obs:          reg,
		sources:      reg.Counter("filter.sources"),
		chunks:       reg.Counter("filter.chunks"),
		received:     reg.Counter("filter.received"),
		kept:         reg.Counter("filter.kept"),
		discarded:    reg.Counter("filter.discarded"),
		batches:      reg.Counter("filter.batches"),
		feedStalls:   reg.Counter("filter.feed_stalls"),
		logStalls:    reg.Counter("filter.log_stalls"),
		drops:        reg.Counter("filter.drops"),
		streamErrors: reg.Counter("filter.stream_errors"),
		sinkErrors:   reg.Counter("filter.sink_errors"),
		queueDepth:   reg.Gauge("filter.queue_depth"),
		highWater:    reg.Gauge("filter.queue_high_water"),
		flushNS:      reg.Histogram("filter.flush_ns"),
		chunkMem:     chunkFree.Stats(reg),
		batchMem:     batchFree.Stats(reg),
	}
	for i := 0; i < cfg.Workers; i++ {
		prefix := "filter.worker" + strconv.Itoa(i)
		w := &pipeWorker{
			eng:       proto.Clone(),
			in:        make(chan pipeItem, cfg.QueueDepth),
			received:  reg.Counter(prefix + ".received"),
			kept:      reg.Counter(prefix + ".kept"),
			discarded: reg.Counter(prefix + ".discarded"),
		}
		if cfg.Taps != nil {
			w.eng.SetTap(cfg.Taps.NewTap())
		}
		pl.workers = append(pl.workers, w)
		pl.wg.Add(1)
		spawn(func() { pl.runWorker(w) })
	}
	if sinks.Log != nil {
		pl.logWg.Add(1)
		spawn(pl.runLogWriter)
	}
	return pl
}

// Source is one ordered stream of meter bytes — a meter connection.
// All of a source's chunks are processed by one worker in feed order,
// so its records keep their wire order in both sinks. A Source's
// methods must be called from a single goroutine (the connection's
// drainer).
type Source struct {
	pl *Pipeline
	w  *pipeWorker
	// carry holds the partial trailing frame between chunks; only the
	// owning worker touches it.
	carry []byte
	// dead marks a source cut off by a corrupt stream; set and read by
	// the owning worker only.
	dead bool
}

// NewSource attaches a new source, assigning it to a worker
// round-robin.
func (pl *Pipeline) NewSource() *Source {
	pl.sources.Inc()
	n := pl.nextWorker.Add(1) - 1
	return &Source{pl: pl, w: pl.workers[int(n)%len(pl.workers)]}
}

// Feed hands the source's next chunk of meter-stream bytes to its
// worker, blocking when the worker's queue is full — backpressure
// that ultimately parks the meter connection's bytes in the kernel
// socket buffer. The pipeline owns data from this point until the
// chunk is processed; callers must not modify it afterwards. Feed
// returns false when the pipeline is shutting down and the chunk was
// not accepted.
func (s *Source) Feed(data []byte) bool {
	return s.feed(pipeItem{src: s, data: data})
}

// Drain feeds the source its connection's bytes until the connection
// ends. recv is a receive that asks for its buffer, of at least max
// bytes, only once there is something to receive, and returns the
// buffer it asked for, if any, also when it fails
// (kernel.Process.RecvLazy): the chunk is taken from the free list
// then, so a source whose connection is quiet holds none.
func (s *Source) Drain(recv func(max int, get func() []byte) ([]byte, int, error)) {
	get := s.pl.takeChunk
	for {
		c, n, err := recv(chunkSize, get)
		if err != nil || !s.feed(pipeItem{src: s, data: c[:n], pooled: true}) {
			if c != nil {
				s.pl.putChunk(c)
			}
			return
		}
	}
}

// takeChunk and putChunk take a read buffer from chunkFree and give it
// back.
func (pl *Pipeline) takeChunk() []byte { return chunkFree.Take(chunkSize, pl.chunkMem)[:chunkSize] }

func (pl *Pipeline) putChunk(c []byte) { chunkFree.Put(c, pl.chunkMem) }

func (s *Source) feed(it pipeItem) bool {
	pl := s.pl
	select {
	case <-pl.quit:
		pl.drops.Inc()
		return false
	default:
	}
	select {
	case s.w.in <- it:
	default:
		pl.feedStalls.Inc()
		select {
		case s.w.in <- it:
		case <-pl.quit:
			pl.drops.Inc()
			return false
		}
	}
	pl.chunks.Inc()
	pl.noteDepth(int64(len(s.w.in)))
	return true
}

// noteDepth records an observed queue depth: the instantaneous gauge
// and the high-water mark.
func (pl *Pipeline) noteDepth(d int64) {
	pl.queueDepth.Set(d)
	pl.highWater.SetMax(d)
}

// runWorker drains the worker's queue. After quit, remaining queued
// chunks are processed (no silent loss on a graceful Close) and the
// worker exits.
func (pl *Pipeline) runWorker(w *pipeWorker) {
	defer pl.wg.Done()
	for {
		select {
		case it := <-w.in:
			pl.process(w, it)
		case <-pl.quit:
			for {
				select {
				case it := <-w.in:
					pl.process(w, it)
				default:
					return
				}
			}
		}
	}
}

// process runs one chunk end-to-end: carry splice, decode, select,
// format, store append, log enqueue. Nothing keeps the chunk: the carry
// and the batch copy what they need of it.
func (pl *Pipeline) process(w *pipeWorker, it pipeItem) {
	if it.pooled {
		defer pl.putChunk(it.data)
	}
	s := it.src
	if s.dead {
		return
	}
	buf := it.data
	if len(s.carry) > 0 {
		s.carry = append(s.carry, it.data...)
		buf = s.carry
	}
	b := batchFree.Take(0, pl.batchMem)
	recvBefore, keptBefore, discBefore := w.eng.Received, w.eng.Kept, w.eng.Discarded
	rest, err := w.eng.ProcessBatch(buf, b)
	recv := int64(w.eng.Received - recvBefore)
	kept := int64(w.eng.Kept - keptBefore)
	disc := int64(w.eng.Discarded - discBefore)
	pl.received.Add(recv)
	pl.kept.Add(kept)
	pl.discarded.Add(disc)
	w.received.Add(recv)
	w.kept.Add(kept)
	w.discarded.Add(disc)
	// Chunk boundary: publish whatever the worker's tap buffered, even
	// when the stream just turned out to be corrupt — records tapped
	// before the bad frame are real.
	w.eng.TapFlush()
	if err != nil {
		// A corrupt stream kills the source, exactly as the sequential
		// loop closed the connection; later chunks from it are ignored.
		s.dead = true
		s.carry = nil
		pl.streamErrors.Inc()
		pl.putBatch(b)
		return
	}
	// Keep only the partial tail; copy-down so nothing retains the fed
	// chunk.
	s.carry = append(s.carry[:0], rest...)
	if b.Len() == 0 {
		pl.putBatch(b)
		return
	}
	pl.batches.Inc()
	// Store first, then log: the store must never hold fewer records
	// than the flat log. The flush span covers the store append and the
	// log handoff — the full time a worker is occupied delivering one
	// batch downstream.
	flush := obs.StartSpan(pl.flushNS)
	if pl.sinks.Store != nil {
		if err := pl.sinks.Store.AppendBatch(b.StoreRecs()); err != nil {
			pl.sinkErrors.Inc()
		}
	}
	if pl.sinks.Log != nil {
		select {
		case pl.logQ <- b:
		default:
			pl.logStalls.Inc()
			pl.logQ <- b
		}
		pl.noteDepth(int64(len(pl.logQ)))
		flush.End()
		return
	}
	flush.End()
	pl.putBatch(b)
}

// runLogWriter is the single goroutine serializing flat-log appends.
// It exits when Close closes the queue, after the workers have
// drained.
func (pl *Pipeline) runLogWriter() {
	defer pl.logWg.Done()
	for b := range pl.logQ {
		pl.writeLog(b)
	}
}

// writeLog appends one batch's lines to the flat log. The Log callback
// runs inside the simulated kernel and unwinds with a panic when the
// filter process is killed mid-write; that only disables the sink —
// the writer keeps draining so no worker blocks forever on the queue.
func (pl *Pipeline) writeLog(b *Batch) {
	defer pl.putBatch(b)
	if pl.logDead.Load() {
		pl.drops.Inc()
		return
	}
	defer func() {
		if recover() != nil {
			pl.logDead.Store(true)
		}
	}()
	if err := pl.sinks.Log(b.Lines); err != nil {
		pl.sinkErrors.Inc()
	}
}

func (pl *Pipeline) putBatch(b *Batch) {
	b.Reset()
	batchFree.Put(b, pl.batchMem)
}

// Close shuts the pipeline down: new feeds are refused, queued chunks
// are processed, the log queue is flushed, and the goroutines exit.
// Sources still feeding concurrently race the shutdown — their chunks
// are either processed or counted as drops. Close does not flush the
// store's active segments; callers that want footers call
// Store.Flush themselves.
func (pl *Pipeline) Close() {
	pl.closeOnce.Do(func() {
		close(pl.quit)
		pl.wg.Wait()
		close(pl.logQ)
		pl.logWg.Wait()
		// Workers are done, so every tap has issued its final flush;
		// a closable tap source may now stop its background work.
		if tc, ok := pl.cfg.Taps.(TapCloser); ok {
			tc.Close()
		}
	})
}

// Obs returns the registry the pipeline's filter.* counters and gauges
// live in — cfg.Obs, or the private registry created when cfg.Obs was
// nil. It is the only view of them.
func (pl *Pipeline) Obs() *obs.Registry { return pl.obs }
