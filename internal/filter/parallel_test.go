package filter

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
)

// sourceStream builds one connection's meter stream: n messages tagged
// with the source's machine id and a per-source pid space, so every
// formatted line is globally unique and attributable.
func sourceStream(src, n int) []byte {
	var stream []byte
	dest := meter.InetName(228320140, 512)
	for i := 0; i < n; i++ {
		m := meter.Msg{
			Header: meter.Header{Machine: uint16(src + 1), CPUTime: uint32(i*10 + src), ProcTime: uint32(i)},
			Body:   &meter.Send{PID: uint32(src*1000 + i), PC: 0x400, Sock: 3, MsgLength: uint32(64 + i), DestNameLen: 16, DestName: dest},
		}
		stream = m.AppendEncode(stream)
	}
	return stream
}

// expectLines runs a fresh sequential engine over a whole stream and
// returns the formatted lines — the reference the pipeline must match.
func expectLines(t *testing.T, rules string, stream []byte) []string {
	t.Helper()
	eng, err := NewEngine([]byte(StandardDescriptions), []byte(rules))
	if err != nil {
		t.Fatal(err)
	}
	lines, rest, err := processLines(eng, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatal("reference stream not fully consumed")
	}
	return lines
}

// feedChunks feeds a stream to a source in fixed-size chunks that do
// not align with frame boundaries, exercising the per-source carry.
func feedChunks(s *Source, stream []byte, chunk int) bool {
	for off := 0; off < len(stream); off += chunk {
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		// Feed owns its chunk from the call on; hand it a copy the way
		// the kernel's Recv hands the drainer a fresh slice.
		c := append([]byte(nil), stream[off:end]...)
		if !s.Feed(c) {
			return false
		}
	}
	return true
}

// checkConservation holds the counters a pipeline and its store keep on
// reg — the pipeline closed, the store flushed — to the laws of the
// filter-to-store hand-off: every record the filter kept was appended or
// lost to a sink error (lost of them), and every appended record was
// stored in exactly one shape.
func checkConservation(t *testing.T, reg *obs.Registry, lost int64) {
	t.Helper()
	kept, appends := reg.Counter("filter.kept").Load(), reg.Counter("store.appends").Load()
	typed, text := reg.Counter("store.records_typed").Load(), reg.Counter("store.records_text").Load()
	if kept != appends+lost || typed+text != appends {
		t.Fatalf("filter.kept %d, store.appends %d, %d lost to sink errors; store.records_typed %d + records_text %d",
			kept, appends, lost, typed, text)
	}
}

// TestPipelineEquivalence drives several sources through a multi-worker
// pipeline with deliberately misaligned chunking and asserts both sinks
// hold exactly the sequential result: the flat log's per-source line
// subsequence equals the sequential engine's output for that source,
// and the store holds every kept record in per-source time order.
func TestPipelineEquivalence(t *testing.T) {
	const (
		nsources = 7
		nmsgs    = 50
		rules    = "machine>=0, msgLength=#*\n"
	)
	proto, err := NewEngine([]byte(StandardDescriptions), []byte(rules))
	if err != nil {
		t.Fatal(err)
	}
	be, reg := store.NewMemBackend(), obs.NewRegistry()
	st, err := store.Open(be, store.Config{SegmentCap: 1024, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf []byte
	pipe := NewPipeline(proto, PipelineConfig{Workers: 4, QueueDepth: 4, Obs: reg}, Sinks{
		Store: st,
		Log:   func(b []byte) error { logBuf = append(logBuf, b...); return nil },
	}, nil)

	// Reference lines per source, and a reverse map line -> source.
	expected := make([][]string, nsources)
	owner := map[string]int{}
	streams := make([][]byte, nsources)
	for s := 0; s < nsources; s++ {
		streams[s] = sourceStream(s, nmsgs)
		expected[s] = expectLines(t, rules, streams[s])
		if len(expected[s]) != nmsgs {
			t.Fatalf("source %d reference kept %d of %d", s, len(expected[s]), nmsgs)
		}
		for _, ln := range expected[s] {
			if _, dup := owner[ln]; dup {
				t.Fatalf("line not globally unique: %q", ln)
			}
			owner[ln] = s
		}
	}

	// Each source feeds from its own goroutine (as each connection's
	// drainer does), with a chunk size that splits frames.
	var wg sync.WaitGroup
	for s := 0; s < nsources; s++ {
		src := pipe.NewSource()
		wg.Add(1)
		go func(s int, src *Source) {
			defer wg.Done()
			if !feedChunks(src, streams[s], 37+s) {
				t.Errorf("source %d: pipeline refused feed", s)
			}
		}(s, src)
	}
	wg.Wait()
	pipe.Close()

	// Flat log: per-source subsequences must equal the reference.
	got := make([][]string, nsources)
	for _, ln := range strings.Split(strings.TrimSuffix(string(logBuf), "\n"), "\n") {
		s, ok := owner[ln]
		if !ok {
			t.Fatalf("log line not produced by any sequential reference: %q", ln)
		}
		got[s] = append(got[s], ln)
	}
	for s := 0; s < nsources; s++ {
		if len(got[s]) != len(expected[s]) {
			t.Fatalf("source %d: %d log lines, want %d", s, len(got[s]), len(expected[s]))
		}
		for i := range got[s] {
			if got[s][i] != expected[s][i] {
				t.Fatalf("source %d line %d out of order or mangled:\n got %q\nwant %q", s, i, got[s][i], expected[s][i])
			}
		}
	}

	// Store: every record present, in per-source (machine) time order.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	lastTime := map[uint16]uint32{}
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			seg, err := rs.Load()
			if err != nil {
				t.Fatalf("segment %s: %v", rs.Name, err)
			}
			for _, r := range seg.Recs {
				if last, ok := lastTime[r.Meta.Machine]; ok && r.Meta.Time <= last {
					t.Fatalf("machine %d: time %d after %d", r.Meta.Machine, r.Meta.Time, last)
				}
				lastTime[r.Meta.Machine] = r.Meta.Time
				count++
			}
		}
	}
	if want := nsources * nmsgs; count != want {
		t.Fatalf("store holds %d records, want %d", count, want)
	}

	counter := func(name string) int64 { return pipe.Obs().Counter("filter." + name).Load() }
	if got := counter("sources"); got != nsources {
		t.Fatalf("filter.sources = %d, want %d", got, nsources)
	}
	if received, kept := counter("received"), counter("kept"); received != int64(nsources*nmsgs) || kept != received {
		t.Fatalf("received=%d kept=%d, want %d each", received, kept, nsources*nmsgs)
	}
	if se, ke, d := counter("stream_errors"), counter("sink_errors"), counter("drops"); se != 0 || ke != 0 || d != 0 {
		t.Fatalf("unexpected error counters: stream_errors=%d sink_errors=%d drops=%d", se, ke, d)
	}
	checkConservation(t, reg, 0)
}

// TestPipelineStreamError cuts one source off mid-stream with corrupt
// bytes and asserts the damage is contained: the poisoned source stops
// at the corruption, the healthy source is untouched, and the error is
// counted.
func TestPipelineStreamError(t *testing.T) {
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logBuf []byte
	pipe := NewPipeline(proto, PipelineConfig{Workers: 2}, Sinks{
		Log: func(b []byte) error { mu.Lock(); logBuf = append(logBuf, b...); mu.Unlock(); return nil },
	}, nil)

	good, bad := pipe.NewSource(), pipe.NewSource()
	goodStream := sourceStream(0, 30)
	badPrefix := sourceStream(1, 5)

	if !bad.Feed(append([]byte(nil), badPrefix...)) {
		t.Fatal("feed refused")
	}
	// A size field below the header minimum is unambiguous corruption.
	if !bad.Feed([]byte{1, 0, 0, 0, 9, 9, 9, 9}) {
		t.Fatal("feed refused")
	}
	// Later bytes from the dead source must be ignored, not parsed.
	bad.Feed(append([]byte(nil), badPrefix...))
	if !feedChunks(good, goodStream, 41) {
		t.Fatal("good source refused")
	}
	pipe.Close()

	goodLines := expectLines(t, "", goodStream)
	gotLog := string(logBuf)
	for _, ln := range goodLines {
		if !strings.Contains(gotLog, ln+"\n") {
			t.Fatalf("healthy source lost line %q", ln)
		}
	}
	if got := pipe.Obs().Counter("filter.stream_errors").Load(); got != 1 {
		t.Fatalf("filter.stream_errors = %d, want 1", got)
	}
	// 30 good + 5 bad-prefix records got through; the post-corruption
	// replay of the prefix must not have been decoded.
	if got := pipe.Obs().Counter("filter.received").Load(); got != 35 {
		t.Fatalf("filter.received = %d, want 35", got)
	}
}

// TestPipelineBackpressure wedges the log sink and asserts the bounded
// queues push back — feeds stall rather than buffering without limit —
// and that every record still lands once the sink recovers.
func TestPipelineBackpressure(t *testing.T) {
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var blocked sync.Once
	var logBuf []byte
	pipe := NewPipeline(proto, PipelineConfig{Workers: 1, QueueDepth: 1}, Sinks{
		Log: func(b []byte) error {
			blocked.Do(func() { <-release })
			logBuf = append(logBuf, b...)
			return nil
		},
	}, nil)

	const nmsgs = 40
	stream := sourceStream(0, nmsgs)
	src := pipe.NewSource()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// One frame per feed: each chunk becomes its own batch, so the
		// single-slot queues fill as soon as the writer wedges.
		off := 0
		for off < len(stream) {
			size, err := meter.PeekSize(stream[off:])
			if err != nil || size == 0 {
				t.Errorf("bad frame at %d: %v", off, err)
				return
			}
			if !src.Feed(append([]byte(nil), stream[off:off+size]...)) {
				t.Error("pipeline refused feed")
				return
			}
			off += size
		}
	}()

	stalls := func() int64 {
		reg := pipe.Obs()
		return reg.Counter("filter.feed_stalls").Load() + reg.Counter("filter.log_stalls").Load()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if stalls() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no stalls recorded while the log sink was wedged")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	pipe.Close()

	if got, want := strings.Count(string(logBuf), "\n"), nmsgs; got != want {
		t.Fatalf("log holds %d lines after recovery, want %d", got, want)
	}
	if stalls() == 0 {
		t.Fatal("stall counters empty after wedged sink")
	}
	if pipe.Obs().Gauge("filter.queue_high_water").Load() == 0 {
		t.Fatal("queue high-water mark never observed")
	}
}

// TestPipelineCloseRefusesFeeds verifies shutdown semantics: after
// Close, Feed reports refusal and counts a drop instead of blocking.
func TestPipelineCloseRefusesFeeds(t *testing.T) {
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(proto, PipelineConfig{Workers: 2}, Sinks{}, nil)
	src := pipe.NewSource()
	pipe.Close()
	if src.Feed(sourceStream(0, 1)) {
		t.Fatal("Feed accepted a chunk after Close")
	}
	if pipe.Obs().Counter("filter.drops").Load() == 0 {
		t.Fatal("refused feed not counted as a drop")
	}
}
