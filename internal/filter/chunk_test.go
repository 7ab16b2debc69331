package filter

import (
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dpm/internal/meter"
)

// chunkReader returns a read function in the shape of read(2) that
// hands out stream in pieces of at most size(i) bytes, then io.EOF.
func chunkReader(stream []byte, size func(i int) int) func([]byte) (int, error) {
	off, i := 0, 0
	return func(b []byte) (int, error) {
		if off == len(stream) {
			return 0, io.EOF
		}
		n := copy(b[:min(len(b), size(i))], stream[off:])
		off, i = off+n, i+1
		return n, nil
	}
}

// TestFeedFromSteadyStateNoAlloc feeds a source through FeedFrom and
// waits for each chunk to be processed: once warm, the cycle of read,
// feed, process and hand-back allocates nothing, no chunk included.
func TestFeedFromSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts (the pipeline's batches); allocation gate runs in the non-race pass")
	}
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(proto, PipelineConfig{Workers: 1}, Sinks{}, nil)
	defer pipe.Close()
	src := pipe.NewSource()
	chunk := allocStream(8)
	read := func(b []byte) (int, error) { return copy(b, chunk), nil }
	received := pipe.Obs().Counter("filter.received")
	feed := func() {
		want := received.Load() + 8
		if !src.FeedFrom(read) {
			t.Fatal("FeedFrom refused")
		}
		for received.Load() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		feed()
	}
	if got := testing.AllocsPerRun(200, feed); got != 0 {
		t.Fatalf("FeedFrom and processing: %v allocs per chunk, want 0", got)
	}
}

// TestFeedFromShortSourcesReuseChunks runs 1 000 sources of one
// TERMPROC each, then EOF, as the filter's drainers do for short jobs:
// the chunk each EOF read took goes back to the free list with the
// processed ones, so the sources draw on a handful of chunks, not one
// each.
func TestFeedFromShortSourcesReuseChunks(t *testing.T) {
	const sources = 1000
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(proto, PipelineConfig{Workers: 2}, Sinks{}, nil)
	chunks := map[*byte]bool{}
	for i := 0; i < sources; i++ {
		msg := meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.TermProc{PID: uint32(i)}}
		read := chunkReader(msg.Encode(), func(int) int { return chunkSize })
		src := pipe.NewSource()
		for src.FeedFrom(func(b []byte) (int, error) {
			chunks[unsafe.SliceData(b)] = true
			return read(b)
		}) {
		}
	}
	pipe.Close()
	if got := pipe.Obs().Counter("filter.received").Load(); got != sources {
		t.Fatalf("filter.received = %d, want %d", got, sources)
	}
	if len(chunks) >= sources/8 {
		t.Fatalf("%d sources read into %d distinct chunks, want fewer than %d", sources, len(chunks), sources/8)
	}
}

// TestFeedFromRecycledChunksRace drives many sources, each from its own
// goroutine, through FeedFrom, in pieces that split frames, and checks
// the flat log against the same streams fed as fresh slices through
// Feed. Under the race detector a chunk reused while a feed still reads
// it is a reported race; without it, it is a mangled line.
func TestFeedFromRecycledChunksRace(t *testing.T) {
	const (
		nsources = 24
		nmsgs    = 300
	)
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]byte, nsources)
	for s := range streams {
		streams[s] = sourceStream(s, nmsgs)
	}
	run := func(recycle bool) []string {
		var mu sync.Mutex
		var log []byte
		pipe := NewPipeline(proto, PipelineConfig{Workers: 4}, Sinks{
			Log: func(b []byte) error { mu.Lock(); log = append(log, b...); mu.Unlock(); return nil },
		}, nil)
		var wg sync.WaitGroup
		for s, stream := range streams {
			src := pipe.NewSource()
			rng := rand.New(rand.NewSource(int64(s)))
			read := chunkReader(stream, func(int) int { return 1 + rng.Intn(400) })
			wg.Add(1)
			go func() {
				defer wg.Done()
				if recycle {
					for src.FeedFrom(read) {
					}
					return
				}
				for {
					b := make([]byte, chunkSize)
					n, err := read(b)
					if err != nil {
						return
					}
					if !src.Feed(b[:n]) {
						t.Error("Feed refused")
						return
					}
				}
			}()
		}
		wg.Wait()
		pipe.Close()
		lines := strings.Split(strings.TrimSuffix(string(log), "\n"), "\n")
		slices.Sort(lines)
		return lines
	}
	want, got := run(false), run(true)
	if len(want) != nsources*nmsgs {
		t.Fatalf("reference run logged %d lines, want %d", len(want), nsources*nmsgs)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recycled chunks logged %d lines that differ from the %d of fresh slices", len(got), len(want))
	}
}

// TestFeedFromBlockedSourcesNoAlloc runs 64 sources through Drain, each
// blocked in a receive with nothing to read: they take no chunk, so the
// blocked sources allocate none. Each then delivers one record and ends,
// its chunk back on the list before the next delivers: the 64 records
// are read into at most Workers distinct chunks, not one a source.
func TestFeedFromBlockedSourcesNoAlloc(t *testing.T) {
	const (
		sources = 64
		workers = 2
	)
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(proto, PipelineConfig{Workers: workers}, Sinks{}, nil)
	defer pipe.Close()
	reg := pipe.Obs()
	takes := func() int64 { return reg.Counter("mem.chunks.hits").Load() + reg.Counter("mem.chunks.misses").Load() }
	var mu sync.Mutex
	chunks := map[*byte]bool{}
	ready := make([]chan bool, sources)
	ended := make([]chan struct{}, sources)
	// The goroutines, their channels and records are made before the
	// measured window, which holds only the sources' Drains up to their
	// blocked receives.
	start := make(chan struct{})
	var blocked sync.WaitGroup
	for i := range ready {
		ready[i], ended[i] = make(chan bool), make(chan struct{})
		msg := meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.TermProc{PID: uint32(i)}}
		record := msg.Encode()
		src := pipe.NewSource()
		blocked.Add(1)
		go func() {
			defer close(ended[i])
			recvs := 0
			<-start
			// A receive in the shape of kernel.Process.RecvLazy: it
			// blocks until its connection has a record, or has ended.
			src.Drain(func(max int, get func() []byte) ([]byte, int, error) {
				if recvs++; recvs == 1 {
					blocked.Done()
				}
				if !<-ready[i] {
					return nil, 0, io.EOF
				}
				b := get()
				mu.Lock()
				chunks[unsafe.SliceData(b)] = true
				mu.Unlock()
				return b, copy(b[:max], record), nil
			})
		}()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	took := takes()
	close(start)
	blocked.Wait()
	took = takes() - took
	runtime.ReadMemStats(&after)
	if took != 0 {
		t.Errorf("%d sources blocked with nothing to read took %d chunks", sources, took)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= chunkSize {
		t.Errorf("%d sources blocked with nothing to read allocated %d bytes, a chunk is %d; they took %d chunks", sources, grew, chunkSize, took)
	}
	for i := range ready {
		ready[i] <- true
		close(ready[i])
		<-ended[i]
	}
	if got := pipe.Obs().Counter("filter.received").Load(); got != sources {
		t.Fatalf("filter.received = %d, want %d", got, sources)
	}
	if len(chunks) > workers {
		t.Fatalf("%d sources of one record each read into %d distinct chunks, want at most %d", sources, len(chunks), workers)
	}
}

// TestDrainReturnsChunkOfFailedRecv: a receive that took its chunk and
// then failed, its connection ending in between, hands the chunk back,
// and Drain puts it on the free list rather than drop it.
func TestDrainReturnsChunkOfFailedRecv(t *testing.T) {
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(proto, PipelineConfig{Workers: 1}, Sinks{}, nil)
	defer pipe.Close()
	var taken []byte
	pipe.NewSource().Drain(func(max int, get func() []byte) ([]byte, int, error) {
		taken = get()
		return taken, 0, io.EOF
	})
	if c := pipe.takeChunk(); unsafe.SliceData(c) != unsafe.SliceData(taken) {
		t.Fatal("the chunk of a receive that failed is not back on the free list")
	}
}

// TestChunkAndBatchFreeKeptAcrossGCNoAlloc: a read chunk and a batch
// given back survive two collections, and the next take of each is a
// hit that allocates nothing.
func TestChunkAndBatchFreeKeptAcrossGCNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(proto, PipelineConfig{Workers: 1}, Sinks{}, nil)
	defer pipe.Close()
	cycle := func() {
		pipe.putChunk(pipe.takeChunk())
		pipe.putBatch(batchFree.Take(0, pipe.batchMem))
	}
	cycle()
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("a chunk's and a batch's take and give back allocate %v times", n)
	}
	for _, name := range []string{"mem.chunks.hits", "mem.batches.hits"} {
		if hits := pipe.Obs().Counter(name).Load(); hits < 11 {
			t.Fatalf("%s = %d, want the 11 takes after the collections", name, hits)
		}
	}
}

// FeedFrom reads the source's next chunk with read, in the shape of
// read(2), into a buffer from the pipeline's free list, and feeds what
// it read; the buffer returns to the list once fed. It returns false
// once read fails (EOF included) or the pipeline refuses the chunk. It
// drives a source the way Drain does, taking the chunk before the read.
func (s *Source) FeedFrom(read func([]byte) (int, error)) bool {
	c := s.pl.takeChunk()
	defer s.pl.putChunk(c)
	n, err := read(c)
	if err == nil && n > 0 {
		return s.Feed(c[:n])
	}
	// Not fed: a failed read (EOF included) or an empty one.
	return err == nil && n == 0
}
