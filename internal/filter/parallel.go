package filter

import (
	"runtime"
	"sync"

	"dpm/internal/obs"
	"dpm/internal/store"
)

// This file is the filter's execution layer. Main runs one goroutine
// per meter connection, and a Pipeline runs each chunk that goroutine
// reads to the end on the same goroutine: carry splice, decode, select,
// format, tap flush, store append, log append. Each connection is thus
// its own ordered pipeline, and the two ordering guarantees the rest of
// the system depends on hold by construction:
//
//   - per-connection record order: a source's chunks are processed one
//     at a time, in feed order;
//   - store-before-log: a batch's records reach the event store before
//     its lines reach the flat log, so the store never holds fewer
//     records than the log (the chaos soak's invariant).
//
// What the connections share is bounded. At most Workers engines exist,
// and a chunk is processed with one taken from the pipeline's set, so at
// most Workers chunks are decoded at once. The store's per-shard locks
// make concurrent appends safe; the flat log, one shared append-only
// file, is appended under a mutex. A slow sink stalls the connection
// feeding it, whose bytes then wait in the kernel socket buffer:
// throughput degrades, memory does not grow.

// PipelineConfig tunes a Pipeline. The zero value selects the
// defaults.
type PipelineConfig struct {
	// Workers is the number of engines, each a Clone of the prototype
	// with its own tap: at most that many chunks are processed at once,
	// however many sources feed. Defaults to GOMAXPROCS.
	Workers int
	// Obs is the registry the pipeline's counters live in — on a real
	// deployment the machine's registry, so a filter's metrics are
	// queryable over the daemon wire. Nil gets a fresh private registry,
	// which keeps Stats() per-pipeline in tests that run several
	// pipelines side by side.
	Obs *obs.Registry
	// Taps, when non-nil, supplies one RecordTap per engine; each
	// engine calls its tap for every kept record and flushes it after
	// every processed chunk. This is how live streaming analysis
	// observes the record flow (internal/analysis/live).
	Taps TapSource
}

// Sinks is where a Pipeline delivers surviving records. Either sink
// may be nil. Store appends run concurrently from the feeding
// goroutines (the store's per-shard locks serialize what must be
// serialized). Log calls never overlap: the pipeline makes them under a
// mutex, one call per batch, with a buffer that is only valid for the
// duration of the call.
type Sinks struct {
	Store *store.Store
	Log   func(lines []byte) error
}

// chunkSize is the size of Drain's read buffers: a large read drains
// whole meter-buffer flushes in one call, giving the engine maximal
// contiguous frame runs.
const chunkSize = 64 << 10

// chunkFree holds Drain's read buffers, and batchFree whole batches
// with the arrays they grew, between chunks, for every pipeline of the
// process. A source holds a chunk from its read until its feed returns,
// and a feed holds a batch from its decode until its log append: one
// of each per connection with bytes in hand, which the caps hold for a
// few dozen busy connections.
var (
	chunkFree = obs.NewByteList("chunks", 64, 5<<20)
	batchFree = &obs.FreeList[*Batch]{Name: "batches", Count: 32, Bytes: 16 << 20, Size: (*Batch).size,
		New: func(int) *Batch { return new(Batch) }, Poison: func(b *Batch) { obs.PoisonBytes(b.Lines) }}
)

// Pipeline is the filter's ingest engine. Construct with NewPipeline,
// attach sources with NewSource, feed each source its connection's
// bytes in order, and Close when done.
type Pipeline struct {
	sinks   Sinks
	taps    TapSource
	engines chan *Engine // the Workers engines not in use
	logMu   sync.Mutex   // serializes Sinks.Log

	// closing is a shutdown gate: every feed holds it shared from start
	// to end, across its wait for an engine and its sink calls, so
	// Close, which takes it exclusively, returns only once the feeds in
	// progress are done; closed refuses the rest.
	closing sync.RWMutex
	closed  bool

	// All counters live in an obs registry (cfg.Obs or a private one);
	// the handles are resolved once here, never on the hot path.
	obs          *obs.Registry
	sources      *obs.Counter
	chunks       *obs.Counter
	received     *obs.Counter
	kept         *obs.Counter
	discarded    *obs.Counter
	batches      *obs.Counter
	drops        *obs.Counter
	streamErrors *obs.Counter
	sinkErrors   *obs.Counter
	flushNS      *obs.Histogram
	chunkMem     *obs.FreeStats
	batchMem     *obs.FreeStats
}

// NewPipeline builds a pipeline around an engine prototype: each of
// its Workers engines is a Clone sharing the compiled program. It
// starts no goroutine: every chunk is processed on the goroutine that
// feeds it. spawn is read by nothing.
func NewPipeline(proto *Engine, cfg PipelineConfig, sinks Sinks, spawn func(func())) *Pipeline {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	pl := &Pipeline{
		sinks:   sinks,
		taps:    cfg.Taps,
		engines: make(chan *Engine, workers),

		obs:          reg,
		sources:      reg.Counter("filter.sources"),
		chunks:       reg.Counter("filter.chunks"),
		received:     reg.Counter("filter.received"),
		kept:         reg.Counter("filter.kept"),
		discarded:    reg.Counter("filter.discarded"),
		batches:      reg.Counter("filter.batches"),
		drops:        reg.Counter("filter.drops"),
		streamErrors: reg.Counter("filter.stream_errors"),
		sinkErrors:   reg.Counter("filter.sink_errors"),
		flushNS:      reg.Histogram("filter.flush_ns"),
		chunkMem:     chunkFree.Stats(reg),
		batchMem:     batchFree.Stats(reg),
	}
	for range workers {
		e := proto.Clone()
		if cfg.Taps != nil {
			e.SetTap(cfg.Taps.NewTap())
		}
		pl.engines <- e
	}
	return pl
}

// Source is one ordered stream of meter bytes — a meter connection.
// Its chunks are processed in feed order, so its records keep their
// wire order in both sinks. A Source's methods must be called from a
// single goroutine (the connection's drainer).
type Source struct {
	pl *Pipeline
	// carry holds the partial trailing frame between chunks.
	carry []byte
	// dead marks a source cut off by a corrupt stream.
	dead bool
}

// NewSource attaches a new source.
func (pl *Pipeline) NewSource() *Source {
	pl.sources.Inc()
	return &Source{pl: pl}
}

// Feed processes the source's next chunk of meter-stream bytes on the
// calling goroutine and returns once its records are in both sinks;
// nothing keeps data past the call. It waits for a free engine, and a
// slow sink makes it slower — backpressure that parks the meter
// connection's bytes in the kernel socket buffer. Feed returns false,
// counting a drop, once Close has begun.
//
// Feed runs, in order: carry splice, decode, select and format, tap
// flush and store append with an engine, then, the engine given back,
// the log append. A corrupt stream kills the source, exactly as the
// sequential loop closed the connection; its later chunks are ignored.
func (s *Source) Feed(data []byte) bool {
	pl := s.pl
	pl.closing.RLock()
	defer pl.closing.RUnlock()
	if pl.closed {
		pl.drops.Inc()
		return false
	}
	pl.chunks.Inc()
	if s.dead {
		return true
	}
	buf := data
	if len(s.carry) > 0 {
		s.carry = append(s.carry, data...)
		buf = s.carry
	}
	e := <-pl.engines
	b := batchFree.Take(0, pl.batchMem)
	defer pl.putBatch(b)
	recv, kept, disc := e.Received, e.Kept, e.Discarded
	rest, err := e.ProcessBatch(buf, b)
	pl.received.Add(int64(e.Received - recv))
	pl.kept.Add(int64(e.Kept - kept))
	pl.discarded.Add(int64(e.Discarded - disc))
	// Chunk boundary: publish whatever the engine's tap buffered, even
	// when the stream just turned out to be corrupt — records tapped
	// before the bad frame are real.
	e.TapFlush()
	if err != nil {
		pl.engines <- e
		s.dead, s.carry = true, nil
		pl.streamErrors.Inc()
		return true
	}
	// Keep only the partial tail; copy-down so nothing retains data.
	s.carry = append(s.carry[:0], rest...)
	if b.Len() == 0 {
		pl.engines <- e
		return true
	}
	pl.batches.Inc()
	// The flush span covers the store append and the log append: the
	// full time a feed spends delivering one batch downstream. The
	// store's records hold the engine's slots, so the engine goes back
	// only after it.
	flush := obs.StartSpan(pl.flushNS)
	if pl.sinks.Store != nil {
		if err := pl.sinks.Store.AppendBatch(b.StoreRecs()); err != nil {
			pl.sinkErrors.Inc()
		}
	}
	pl.engines <- e
	if pl.sinks.Log != nil {
		pl.writeLog(b.Lines)
	}
	flush.End()
	return true
}

// Drain feeds the source its connection's bytes until the connection
// ends. recv is a receive that asks for its buffer, of at least max
// bytes, only once there is something to receive, and returns the
// buffer it asked for, if any, also when it fails
// (kernel.Process.RecvLazy): the chunk is taken from the free list
// then, so a source whose connection is quiet holds none, and goes back
// once fed.
func (s *Source) Drain(recv func(max int, get func() []byte) ([]byte, int, error)) {
	for {
		c, n, err := recv(chunkSize, s.pl.takeChunk)
		fed := err == nil && s.Feed(c[:n])
		if c != nil {
			s.pl.putChunk(c)
		}
		if !fed {
			return
		}
	}
}

// takeChunk and putChunk take a read buffer from chunkFree and give it
// back.
func (pl *Pipeline) takeChunk() []byte { return chunkFree.Take(chunkSize, pl.chunkMem)[:chunkSize] }

func (pl *Pipeline) putChunk(c []byte) { chunkFree.Put(c, pl.chunkMem) }

// writeLog appends one batch's lines to the flat log. The Log callback
// runs inside the simulated kernel and unwinds with a panic when the
// filter process is killed mid-write; the deferred unlock lets the
// other connections' appends go on and unwind the same way.
func (pl *Pipeline) writeLog(lines []byte) {
	pl.logMu.Lock()
	defer pl.logMu.Unlock()
	if err := pl.sinks.Log(lines); err != nil {
		pl.sinkErrors.Inc()
	}
}

func (pl *Pipeline) putBatch(b *Batch) {
	b.Reset()
	batchFree.Put(b, pl.batchMem)
}

// Close shuts the pipeline down: it waits for the feeds in progress,
// and later feeds are refused and counted as drops. Close does not
// flush the store's active segments; callers that want footers call
// Store.Flush themselves.
func (pl *Pipeline) Close() {
	pl.closing.Lock()
	defer pl.closing.Unlock()
	if pl.closed {
		return
	}
	pl.closed = true
	// Every feed is done, so every tap has issued its final flush; a
	// closable tap source may now stop its background work.
	if tc, ok := pl.taps.(TapCloser); ok {
		tc.Close()
	}
}

// Obs returns the registry the pipeline's filter.* counters and
// histogram live in — cfg.Obs, or the private registry created when
// cfg.Obs was nil. It is the only view of them.
func (pl *Pipeline) Obs() *obs.Registry { return pl.obs }
