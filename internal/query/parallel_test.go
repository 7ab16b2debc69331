package query

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// buildRandomStore fills a store with a pseudo-random (but seeded,
// hence reproducible) event population: clustered machines, heavily
// duplicated timestamps (to stress the merge's tie-breaking), varied
// types and pids. With unsealedTail, extra records land after the last
// Flush so the snapshot ends in an unsealed segment per written shard.
func buildRandomStore(t *testing.T, rng *rand.Rand, n int, cfg store.Config, unsealedTail bool) store.Backend {
	t.Helper()
	be := store.NewMemBackend()
	st, err := store.Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	add := func(i int) {
		typ := []meter.Type{meter.EvSend, meter.EvRecv, meter.EvFork, meter.EvConnect}[i%4]
		e := trace.Event{
			Seq: i, Type: typ, Event: typ.String(),
			Machine: rng.Intn(6) + 1,
			// Few distinct timestamps: ties across shards are the norm,
			// so any tie-break drift between the paths shows up.
			CPUTime: int64(rng.Intn(40) * 100),
			Fields:  map[string]uint64{"pid": uint64(100 + rng.Intn(5))},
			Names:   map[string]meter.Name{},
		}
		switch typ {
		case meter.EvSend, meter.EvRecv:
			e.Fields["sock"] = 3
			e.Fields["msgLength"] = uint64(64 + rng.Intn(512))
		case meter.EvFork:
			e.Fields["newPid"] = e.Fields["pid"] + 1
		case meter.EvConnect:
			// Socket names: two Internet names that agree about half the
			// time, and now and then a name with no numeric value.
			setName(&e, "sockName", meter.InetName(uint32(rng.Intn(2)), 80))
			setName(&e, "peerName", meter.InetName(uint32(rng.Intn(2)), 80))
			if rng.Intn(5) == 0 {
				setName(&e, "peerName", meter.UnixName("/tmp/s"))
			}
		}
		m := store.Meta{
			Machine: uint16(e.Machine), Time: uint32(e.CPUTime),
			Type: uint32(e.Type), PID: uint32(e.Fields["pid"]),
		}
		if err := st.Append(m, e.Format()); err != nil {
			t.Fatal(err)
		}
	}
	tail := 0
	if unsealedTail {
		tail = n / 10
	}
	for i := 0; i < n-tail; i++ {
		add(i)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := n - tail; i < n; i++ {
		add(i)
	}
	return be
}

// setName stores a socket name in an event the way the trace parser
// does: the name, plus an Internet name's host as the numeric value.
func setName(e *trace.Event, key string, n meter.Name) {
	e.Names[key] = n
	delete(e.Fields, key)
	if n.Family() == meter.AFInet {
		host, _ := n.Inet()
		e.Fields[key] = uint64(host)
	}
}

// format renders a result the way the daemon ships it: the stats line
// then every record, order included — the byte-identical unit of
// comparison.
func format(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Stats.String())
	fmt.Fprintf(&b, " badLines=%d\n", res.Stats.BadLines)
	for i := range res.Events {
		fmt.Fprintf(&b, "seq=%d %s\n", res.Events[i].Seq, res.Events[i].Format())
	}
	return b.String()
}

// eventSource resolves rule fields on a ParseOne event, header fields
// by name and then the maps: the record model the executor evaluated
// rules on before it had the in-place view, kept as the oracle's.
type eventSource trace.Event

func (e *eventSource) Field(name string) (uint64, bool) {
	switch name {
	case "machine":
		return uint64(e.Machine), true
	case "cpuTime":
		return uint64(e.CPUTime), true
	case "procTime":
		return uint64(e.ProcTime), true
	case "type", "traceType":
		return uint64(e.Type), true
	}
	v, ok := e.Fields[name]
	return v, ok
}

func (e *eventSource) NameField(name string) (meter.Name, bool) {
	n, ok := e.Names[name]
	return n, ok
}

// oracle answers a query by brute force, sharing nothing with the
// executor but the rule evaluator: every segment is loaded whole (no
// pruning, no pooled decoder, no workers, no record view), its lines
// parsed by trace.ParseOne and matched as events, and the matches —
// collected in shard-major rotation order — stable-sorted by cpuTime
// once and re-sequenced.
func oracle(t *testing.T, rd *store.Reader, q *Query) []trace.Event {
	t.Helper()
	var out []trace.Event
	for _, shard := range rd.Shards() {
		for _, rs := range shard {
			seg, err := rs.Load()
			if err != nil && !errors.Is(err, store.ErrTruncated) {
				t.Fatal(err)
			}
			for _, rec := range seg.Recs {
				ev, err := trace.ParseOne([]byte(rec.Line))
				if err != nil {
					continue
				}
				if keep, rule := q.Rules.SelectSource((*eventSource)(&ev)); keep {
					var discards map[string]bool
					if rule >= 0 {
						discards = q.Rules[rule].DiscardSet()
					}
					out = append(out, project(ev, discards))
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CPUTime < out[j].CPUTime })
	for i := range out {
		out[i].Seq = i
	}
	return out
}

// workerCounts are the pool sizes the equivalence suites drive through
// the unexported run entry: inline-equivalent, the 2-core CI shape, and
// more workers than most layouts have segments.
var workerCounts = []int{1, 2, 8}

// TestParallelRunEquivalence sweeps randomized rule sets against
// randomized shard layouts and asserts that the executor's events —
// order and sequence numbers included — equal the brute-force oracle's,
// and that the whole result, statistics too, is byte-identical at every
// worker count.
func TestParallelRunEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rules := []string{
		"",
		"machine=2",
		"cpuTime>=500,cpuTime<2000",
		"type=4\ntype=8",
		"pid=101,machine=#*",
		"msgLength>=300,cpuTime=#*",
		"machine=1,machine=2", // self-contradictory: prunes everything
		"machine=*,pid>=0",
		"cpuTime>=1000\nmachine=3,cpuTime<3000",
		"msgLength=#*,pid=#*",                // '#' drops body fields
		"sockName=#*,peerName=#*\nnewPid=#*", // ... names, and per-rule sets
		"newPid=*",                           // wildcard on a field most records lack
		"absent=*",                           // ... and one every record lacks
		"sockName=peerName",                  // name-to-name, 16 bytes compared
		"sockName!=peerName,sock=#*",
		"peerName=*,peerName=1", // a name's numeric value; none for unix:
	}
	layouts := []struct {
		name     string
		cfg      store.Config
		n        int
		unsealed bool
	}{
		{"1shard", store.Config{Shards: 1, SegmentCap: 512}, 300, false},
		{"3shards", store.Config{Shards: 3, SegmentCap: 256}, 400, false},
		{"8shards", store.Config{Shards: 8, SegmentCap: 512}, 500, false},
		{"unsealed-tail", store.Config{Shards: 4, SegmentCap: 384}, 400, true},
		{"one-big-segment", store.Config{Shards: 2, SegmentCap: 1 << 20}, 200, false},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			be := buildRandomStore(t, rng, lay.n, lay.cfg, lay.unsealed)
			rd, err := store.OpenReader(be)
			if err != nil {
				t.Fatal(err)
			}
			for ri, text := range rules {
				for _, noPrune := range []bool{false, true} {
					q, err := Compile(text)
					if err != nil {
						t.Fatal(err)
					}
					q.NoPrune = noPrune
					wantEvents := formatEvents(&Result{Events: oracle(t, rd, q)})
					var want string
					for _, workers := range workerCounts {
						res, err := run(rd, q, workers)
						if err != nil {
							t.Fatalf("rule %d workers=%d: %v", ri, workers, err)
						}
						if got := formatEvents(res); got != wantEvents {
							t.Fatalf("rule %d noPrune=%v workers=%d diverges from the oracle:\n--- oracle\n%s\n--- run\n%s",
								ri, noPrune, workers, wantEvents, got)
						}
						if res.Stats.Matched != len(res.Events) {
							t.Fatalf("rule %d workers=%d: matched=%d but %d events", ri, workers, res.Stats.Matched, len(res.Events))
						}
						got := format(res)
						if want == "" {
							want = got
						}
						if got != want {
							t.Fatalf("rule %d noPrune=%v workers=%d differs from workers=%d:\n%s\n---\n%s",
								ri, noPrune, workers, workerCounts[0], want, got)
						}
					}
				}
			}
		})
	}
}

// TestParallelRunDeterminism runs the same query repeatedly and across
// worker counts: scheduling must never leak into results.
func TestParallelRunDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	be := buildRandomStore(t, rng, 400, store.Config{Shards: 4, SegmentCap: 256}, false)
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("cpuTime>=200\nmachine=5")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range workerCounts {
		for rep := 0; rep < 5; rep++ {
			res, err := run(rd, q, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := format(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("workers=%d rep=%d: nondeterministic result", workers, rep)
			}
		}
	}
	if want == "" || !strings.Contains(want, "matched=") {
		t.Fatal("determinism run produced no output")
	}
}

// corruptBlock flips a byte inside one block of a sealed v2 segment, so
// the footer still verifies and the damage surfaces only when the block
// is decoded.
func corruptBlock(t *testing.T, be store.Backend, rs *store.ReaderSegment, block int) {
	t.Helper()
	data, err := be.Read(rs.Name)
	if err != nil {
		t.Fatal(err)
	}
	const headerV2Size = 8 // docs/formats.md: magic + version + flags
	// Read lends the file's bytes: copy before writing.
	data = append([]byte(nil), data...)
	data[headerV2Size+rs.Blocks()[block].Off+1] ^= 0xff
	if err := be.Create(rs.Name, data); err != nil {
		t.Fatal(err)
	}
}

// TestRunCorruptSealedSegment pins the failure contract: damage inside
// a sealed segment fails the whole query (no silently short answer),
// and with several damaged segments the error reported is the one a
// single-threaded walk in admission order would hit first, whatever the
// worker count and however the pool is scheduled.
func TestRunCorruptSealedSegment(t *testing.T) {
	be := buildRandomStore(t, rand.New(rand.NewSource(3)), 600, store.Config{
		Shards: 2, SegmentCap: 4096, BlockTarget: 512}, false)
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("")
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := Admitted(rd, q)
	first, last := segs[0], segs[len(segs)-1]
	if len(segs) < 4 || len(first.Blocks()) < 2 {
		t.Fatalf("fixture too small: %d segments, %d blocks in the first", len(segs), len(first.Blocks()))
	}
	// The later segment breaks in block 0, the earlier one in block 1:
	// the block number in the error says which segment was reported.
	corruptBlock(t, be, last, 0)
	corruptBlock(t, be, first, 1)
	if rd, err = store.OpenReader(be); err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		for rep := 0; rep < 5; rep++ {
			res, err := run(rd, q, workers)
			if !errors.Is(err, store.ErrCorrupt) || res != nil {
				t.Fatalf("workers=%d: res=%v err=%v, want nil result and ErrCorrupt", workers, res, err)
			}
			if !strings.Contains(err.Error(), "block 1") {
				t.Fatalf("workers=%d rep=%d: reported %q, want the earliest segment's error (block 1)", workers, rep, err)
			}
		}
	}
	if _, err := Run(rd, q); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Run err = %v, want ErrCorrupt", err)
	}
}

// TestRunTornUnsealedTail: a torn append at the end of an unsealed
// segment costs the torn record only — the valid prefix is answered
// and the query succeeds.
func TestRunTornUnsealedTail(t *testing.T) {
	be := buildRandomStore(t, rand.New(rand.NewSource(11)), 200, store.Config{Shards: 1, SegmentCap: 1 << 20}, true)
	names, err := be.List()
	if err != nil {
		t.Fatal(err)
	}
	tail := names[len(names)-1]
	data, err := be.Read(tail)
	if err != nil {
		t.Fatal(err)
	}
	// The last append's sync marker (5 bytes) and the end of its record.
	if err := be.Create(tail, data[:len(data)-8]); err != nil {
		t.Fatal(err)
	}
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile("")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		res, err := run(rd, q, workers)
		if err != nil {
			t.Fatalf("workers=%d: torn unsealed tail failed the query: %v", workers, err)
		}
		if len(res.Events) != 199 {
			t.Fatalf("workers=%d: %d events, want 199 (200 less the torn record)", workers, len(res.Events))
		}
	}
}
