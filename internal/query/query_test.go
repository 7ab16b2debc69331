package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// buildStore writes n synthetic SEND/RECV events into a fresh store
// with small segments, flushed so every segment is sealed and indexed.
func buildStore(t *testing.T, n int, cfg store.Config) (store.Backend, []trace.Event) {
	t.Helper()
	be := store.NewMemBackend()
	st, err := store.Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for i := 0; i < n; i++ {
		typ := meter.EvSend
		if i%2 == 1 {
			typ = meter.EvRecv
		}
		e := trace.Event{
			Seq: i, Type: typ, Event: typ.String(),
			Machine: i%4 + 1, CPUTime: int64(i * 10),
			Fields: map[string]uint64{
				"pid": uint64(100 + i%4), "sock": 3, "msgLength": uint64(64 + i),
			},
			Names: map[string]meter.Name{},
		}
		events = append(events, e)
		m := store.Meta{
			Machine: uint16(e.Machine), Time: uint32(e.CPUTime),
			Type: uint32(e.Type), PID: uint32(e.Fields["pid"]),
		}
		if err := AppendLine(st, m, e.Format()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return be, events
}

func mustRun(t *testing.T, be store.Backend, rules string, noPrune bool) *Result {
	t.Helper()
	q, err := Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	q.NoPrune = noPrune
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(rd, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQueryMatchAll(t *testing.T) {
	be, events := buildStore(t, 100, store.Config{SegmentCap: 512})
	res := mustRun(t, be, "", false)
	got := eventsOf(t, res)
	if len(got) != len(events) {
		t.Fatalf("match-all returned %d events, want %d", len(got), len(events))
	}
	// The merged stream must be cpuTime-ordered.
	for i, e := range got {
		if i > 0 && e.CPUTime < got[i-1].CPUTime {
			t.Fatalf("events out of order at %d: %d < %d", i, e.CPUTime, got[i-1].CPUTime)
		}
	}
	if res.Stats.Pruned != 0 {
		t.Fatalf("match-all pruned %d segments", res.Stats.Pruned)
	}
}

func TestQueryTimeRangePrunes(t *testing.T) {
	be, _ := buildStore(t, 400, store.Config{SegmentCap: 512})
	rules := "cpuTime>=1000,cpuTime<1200"
	res := mustRun(t, be, rules, false)
	if res.Stats.Pruned == 0 {
		t.Fatalf("selective time range pruned nothing: %+v", res.Stats)
	}
	if res.Stats.Scanned+res.Stats.Pruned != res.Stats.Segments {
		t.Fatalf("scanned+pruned != segments: %+v", res.Stats)
	}
	full := mustRun(t, be, rules, true)
	if full.Stats.Pruned != 0 || full.Stats.Scanned != full.Stats.Segments {
		t.Fatalf("NoPrune still pruned: %+v", full.Stats)
	}
	// Pruning must not change the answer.
	if len(eventsOf(t, res)) != len(eventsOf(t, full)) {
		t.Fatalf("pruned answer %d events, full scan %d", len(eventsOf(t, res)), len(eventsOf(t, full)))
	}
	if len(eventsOf(t, res)) == 0 {
		t.Fatal("selective query matched nothing")
	}
	for _, e := range eventsOf(t, res) {
		if e.CPUTime < 1000 || e.CPUTime >= 1200 {
			t.Fatalf("event outside time range: %d", e.CPUTime)
		}
	}
}

func TestQueryMachinePredicate(t *testing.T) {
	be, events := buildStore(t, 200, store.Config{SegmentCap: 512})
	res := mustRun(t, be, "machine=2", false)
	want := 0
	for _, e := range events {
		if e.Machine == 2 {
			want++
		}
	}
	if len(eventsOf(t, res)) != want {
		t.Fatalf("machine=2 matched %d, want %d", len(eventsOf(t, res)), want)
	}
	for _, e := range eventsOf(t, res) {
		if e.Machine != 2 {
			t.Fatalf("machine=%d leaked through", e.Machine)
		}
	}
	// With 4 machines and 4 shards, machine=2's records live in one
	// shard; the other shards' segments never intersect its bitmap.
	if res.Stats.Pruned == 0 {
		t.Fatalf("machine predicate pruned nothing: %+v", res.Stats)
	}
}

func TestQueryContradictionPrunesEverything(t *testing.T) {
	be, _ := buildStore(t, 100, store.Config{SegmentCap: 512})
	res := mustRun(t, be, "machine=1,machine=2", false)
	if len(eventsOf(t, res)) != 0 {
		t.Fatalf("contradictory rule matched %d events", len(eventsOf(t, res)))
	}
	if res.Stats.Scanned != 0 {
		t.Fatalf("contradictory rule scanned %d segments", res.Stats.Scanned)
	}
}

func TestQueryRulesAreAlternatives(t *testing.T) {
	be, events := buildStore(t, 100, store.Config{})
	res := mustRun(t, be, "machine=1\nmachine=3", false)
	want := 0
	for _, e := range events {
		if e.Machine == 1 || e.Machine == 3 {
			want++
		}
	}
	if len(eventsOf(t, res)) != want {
		t.Fatalf("OR rules matched %d, want %d", len(eventsOf(t, res)), want)
	}
}

func TestQueryDiscardProjection(t *testing.T) {
	be, _ := buildStore(t, 40, store.Config{})
	// '#' keeps the record but drops the marked body field; header
	// fields are never dropped.
	res := mustRun(t, be, "type=1, pid=#*, machine=#*", false)
	if len(eventsOf(t, res)) == 0 {
		t.Fatal("discard query matched nothing")
	}
	for _, e := range eventsOf(t, res) {
		if _, ok := e.Fields["pid"]; ok {
			t.Fatalf("pid survived '#' projection: %v", e.Fields)
		}
		if _, ok := e.Fields["sock"]; !ok {
			t.Fatal("unmarked field dropped")
		}
		if e.Machine == 0 {
			t.Fatal("header machine field zeroed by projection")
		}
		if e.Type != meter.EvSend {
			t.Fatalf("type!=SEND leaked: %v", e.Type)
		}
	}
}

func TestQueryFieldComparison(t *testing.T) {
	be, _ := buildStore(t, 40, store.Config{})
	// Field-to-field: msgLength >= sock holds for every synthetic event
	// (64+i vs 3); the reverse never does.
	if res := mustRun(t, be, "msgLength>=sock", false); len(eventsOf(t, res)) != 40 {
		t.Fatalf("msgLength>=sock matched %d, want 40", len(eventsOf(t, res)))
	}
	if res := mustRun(t, be, "sock>msgLength", false); len(eventsOf(t, res)) != 0 {
		t.Fatalf("sock>msgLength matched %d, want 0", len(eventsOf(t, res)))
	}
}

func TestQueryUnsealedSegmentScanned(t *testing.T) {
	// An active (unsealed) segment has no footer index; it must always
	// be scanned, never pruned, and still contribute matches.
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e := trace.Event{
			Type: meter.EvSend, Event: meter.EvSend.String(),
			Machine: 1, CPUTime: int64(i),
			Fields: map[string]uint64{"pid": 7},
			Names:  map[string]meter.Name{},
		}
		m := store.Meta{Machine: 1, Time: uint32(i), Type: uint32(meter.EvSend), PID: 7}
		if err := AppendLine(st, m, e.Format()); err != nil {
			t.Fatal(err)
		}
	}
	// No Flush: the single segment stays unsealed.
	res := mustRun(t, be, "cpuTime>=1000000", false)
	if res.Stats.Pruned != 0 {
		t.Fatal("unsealed segment was pruned")
	}
	if res.Stats.Scanned != 1 || res.Stats.Records != 10 {
		t.Fatalf("unsealed segment not scanned: %+v", res.Stats)
	}
	if len(eventsOf(t, res)) != 0 {
		t.Fatal("time filter failed on unsealed segment")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Segments: 5, Scanned: 2, Pruned: 3, Records: 40, Matched: 7}
	want := "segments=5 scanned=2 pruned=3 records=40 matched=7"
	if s.String() != want {
		t.Fatalf("Stats.String() = %q, want %q", s.String(), want)
	}
}

func TestCompileRejectsBadRules(t *testing.T) {
	if _, err := Compile("machine~5"); err == nil {
		t.Fatal("bad operator accepted")
	}
	if _, err := Compile(fmt.Sprintf("machine=%s", "nonsense+")); err == nil {
		t.Fatal("bad right-hand side accepted")
	}
}

// TestScanSkipsOnMeta: a record whose own Meta lies outside every
// rule's envelope is rejected before its body is read, and the answer is
// the unpruned one. Sealed and unsealed segments alike, of the format a
// store writes; a rule set the envelope cannot help reads every body.
func TestScanSkipsOnMeta(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    store.Config
		sealed bool
	}{
		{"v2", store.Config{Shards: 1, SegmentCap: 1 << 20}, true},
		{"v2-unsealed", store.Config{Shards: 1, SegmentCap: 1 << 20}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			be := store.NewMemBackend()
			st, err := store.Open(be, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n, garbage = 60, 40 // i%3 != 0 is machine 2
			for i := 0; i < n; i++ {
				e := trace.Event{
					Type: meter.EvSend, Event: meter.EvSend.String(), Machine: 1, CPUTime: int64(i),
					Fields: map[string]uint64{"pid": 7, "msgLength": uint64(i)}, Names: map[string]meter.Name{},
				}
				m, line := store.Meta{Machine: 1, Time: uint32(i), Type: 1, PID: 7}, e.Format()
				if i%3 != 0 {
					m.Machine, line = 2, strings.Replace(line, "machine=1", "machine=2", 1)
				}
				if err := AppendLine(st, m, line); err != nil {
					t.Fatal(err)
				}
			}
			if c.sealed {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for _, rules := range []string{"machine=1", "machine=1,msgLength>=30\nmachine=1,cpuTime<9", "machine=3\npid=7,machine=1"} {
				got, want := mustRun(t, be, rules, false), mustRun(t, be, rules, true)
				if got.Stats.Skipped != garbage || got.Stats.Typed != n-garbage || got.Stats.Records != n {
					t.Errorf("rules %q: stats %+v, want %d of %d records skipped and the rest read", rules, got.Stats, garbage, n)
				}
				if want.Stats.Skipped != 0 || want.Stats.Typed != n {
					t.Errorf("rules %q unpruned: stats %+v, want nothing skipped and %d read", rules, want.Stats, n)
				}
				if formatEvents(got) != formatEvents(want) || got.Stats.Matched != want.Stats.Matched || got.Stats.Matched == 0 {
					t.Errorf("rules %q: %d events pruned, %d unpruned:\n%s---\n%s", rules, got.Stats.Matched, want.Stats.Matched, formatEvents(got), formatEvents(want))
				}
			}
			// One rule with an open envelope admits every Meta: no check.
			for _, rules := range []string{"", "msgLength>=30", "machine=1\nmsgLength>=30", "machine>=1"} {
				if got := mustRun(t, be, rules, false); got.Stats.Skipped != 0 || got.Stats.Typed != n {
					t.Errorf("rules %q: stats %+v, want nothing skipped and %d read", rules, got.Stats, n)
				}
			}
		})
	}
	// And over the checked-in stores.
	for name, layout := range map[string]string{"v1": "cap1k", "v1-unsealed": "cap1k+tail"} {
		t.Run(name, func(t *testing.T) {
			be := LoadFixture(t, Fixtures, layout)
			for _, rules := range []string{"machine=2", "machine=1,msgLength>=100\npid=101,machine=3"} {
				got, want := mustRun(t, be, rules, false), mustRun(t, be, rules, true)
				if got.Stats.Skipped == 0 {
					t.Errorf("rules %q: stats %+v against %+v unpruned, want records skipped", rules, got.Stats, want.Stats)
				}
				if want.Stats.Skipped != 0 || want.Stats.Records != 400 {
					t.Errorf("rules %q unpruned: stats %+v, want all 400 records parsed", rules, want.Stats)
				}
				if formatEvents(got) != formatEvents(want) || got.Stats.Matched == 0 {
					t.Errorf("rules %q: %d events pruned, %d unpruned", rules, got.Stats.Matched, want.Stats.Matched)
				}
			}
		})
	}
}

// TestAdmitsMetaIsOneRecordIndex: the per-record check ScanSegment
// makes is what Admits says of the record's one-record Index, over random
// Metas and random rule sets — time bounds of every operator, bitmap
// fields that collide (machine 1 and 65 share a bit), contradictions,
// and conditions the envelope cannot use.
func TestAdmitsMetaIsOneRecordIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conds := []func() string{
		func() string {
			return fmt.Sprintf("cpuTime%s%d", []string{"=", ">=", ">", "<=", "<", "!="}[rng.Intn(6)], rng.Intn(40))
		},
		func() string { return fmt.Sprintf("machine=%d", rng.Intn(4)+64*rng.Intn(2)) },
		func() string { return fmt.Sprintf("pid=%d", rng.Intn(4)) },
		func() string {
			return fmt.Sprintf("%s=%d", []string{"type", "traceType"}[rng.Intn(2)], rng.Intn(4)+32*rng.Intn(2))
		},
		func() string { return fmt.Sprintf("msgLength>=%d", rng.Intn(9)) },
		func() string { return "pid=*" },
		func() string { return "sock=peerName" },
		func() string { return "cpuTime>18446744073709551615" },
		func() string { return "cpuTime<0" },
	}
	checked, admitted := 0, 0
	for i := 0; i < 2000; i++ {
		var rules []string
		for r := rng.Intn(3) + 1; r > 0; r-- {
			var rule []string
			for c := rng.Intn(4) + 1; c > 0; c-- {
				rule = append(rule, conds[rng.Intn(len(conds))]())
			}
			rules = append(rules, strings.Join(rule, ","))
		}
		q, err := Compile(strings.Join(rules, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			m := store.Meta{Machine: uint16(rng.Intn(4) + 64*rng.Intn(2)), Time: uint32(rng.Intn(40)),
				Type: uint32(rng.Intn(4) + 32*rng.Intn(2)), PID: uint32(rng.Intn(4) + 64*rng.Intn(2))}
			var x store.Index
			x.Add(m)
			if got, want := q.admitsMeta(m), q.Admits(x); got != want {
				t.Fatalf("rules %q, meta %+v: admitsMeta %v, Admits of its index %v", rules, m, got, want)
			}
			if q.Admits(x) {
				admitted++
			}
			checked++
		}
	}
	if admitted == 0 || admitted == checked {
		t.Fatalf("%d of %d metas admitted: the cases do not tell the checks apart", admitted, checked)
	}
}
