package store_test

import (
	"bytes"
	"strings"
	"testing"

	"dpm/internal/agg"
	"dpm/internal/meter"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// The tests here drive a Reader the way its real callers do — through
// query.Run and agg.Eval — which package store's own tests cannot
// import.

// timeOrderedStore fills a compressed store with n SEND records whose
// cpuTime rises by 10 per record, sealing a segment every perSegment
// records, so segments cover disjoint time ranges and a time-window
// rule prunes most of them.
func timeOrderedStore(t *testing.T, n, perSegment int) *store.MemBackend {
	t.Helper()
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{Shards: 2, SegmentCap: 1 << 30, CompactMin: 1 << 30,
		BlockTarget: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := trace.Event{
			Type: meter.EvSend, Event: meter.EvSend.String(), Machine: 1 + i%2, CPUTime: int64(i * 10),
			Fields: map[string]uint64{"pid": uint64(100 + i%3), "sock": 3, "msgLength": uint64(64 + i%200)},
			Names:  map[string]meter.Name{},
		}
		m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: uint32(e.Type), PID: uint32(e.Fields["pid"])}
		if err := st.Append(m, e.Format()); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perSegment == 0 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return be
}

// TestPrunedSegmentNeverDecodesBody: a query and an aggregate that
// prune segments on their footer index leave those segments' footer
// bodies — dictionary and block table — undecoded; only the segments
// they scan pay for theirs.
func TestPrunedSegmentNeverDecodesBody(t *testing.T) {
	be := timeOrderedStore(t, 1200, 100)
	const window = "cpuTime>=3000,cpuTime<4000"
	for _, run := range []struct {
		name string
		eval func(*store.Reader) (query.Stats, error)
	}{
		{"query", func(rd *store.Reader) (query.Stats, error) {
			q, err := query.Compile(window)
			if err != nil {
				return query.Stats{}, err
			}
			res, err := query.Run(rd, q)
			if err != nil {
				return query.Stats{}, err
			}
			if n := bytes.Count(res.Lines, []byte("\n")); n != 100 {
				t.Errorf("query matched %d records, want 100", n)
			}
			return res.Stats, nil
		}},
		{"agg", func(rd *store.Reader) (query.Stats, error) {
			aq, err := agg.Compile(window + "\nagg count by machine")
			if err != nil {
				return query.Stats{}, err
			}
			p, st, err := agg.Eval(rd, aq, agg.Options{})
			if err == nil && p.Records != 100 {
				t.Errorf("aggregate folded %d records, want 100", p.Records)
			}
			return st, err
		}},
	} {
		rd, err := store.OpenReader(be)
		if err != nil {
			t.Fatal(err)
		}
		st, err := run.eval(rd)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if st.Pruned == 0 || st.Scanned == 0 || st.Pruned+st.Scanned != rd.NumSegments() {
			t.Fatalf("%s: stats %+v over %d segments: fixture must prune some and scan some", run.name, st, rd.NumSegments())
		}
		q, _ := query.Compile(window)
		decoded := 0
		for _, segs := range rd.Shards() {
			for _, rs := range segs {
				if !q.Admits(rs.Index) && rs.BodyDecoded() {
					t.Errorf("%s: pruned segment %s had its footer body decoded", run.name, rs.Name)
				}
				if rs.BodyDecoded() {
					decoded++
				}
			}
		}
		if decoded != st.Scanned {
			t.Errorf("%s: %d footer bodies decoded for %d segments scanned", run.name, decoded, st.Scanned)
		}
	}
}

// TestUndecodableBodyAnswers: one sealed v2 segment of a store carries
// a verifying tail over a footer body that does not decode. Queries and
// aggregates answer from its salvaged block streams — the same events,
// the same partial and, wherever the segment is scanned at all, the
// same Stats as over a store where that file's footer is mangled
// outright (what it was taken for when footers were parsed whole at
// open). Never a panic, never ErrCorrupt.
func TestUndecodableBodyAnswers(t *testing.T) {
	crafted, mangled := timeOrderedStore(t, 600, 100), store.NewMemBackend()
	listed, err := crafted.List()
	if err != nil {
		t.Fatal(err)
	}
	victim := listed[len(listed)/2].Name
	for _, e := range listed {
		name := e.Name
		data, err := crafted.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == victim {
			bad := store.UndecodableBody(t, data)
			if err := crafted.Create(name, bad); err != nil {
				t.Fatal(err)
			}
			data = bytes.Clone(bad)
			data[len(data)-1] ^= 0xff // the tail's own CRC
		}
		if err := mangled.Create(name, data); err != nil {
			t.Fatal(err)
		}
	}
	victimOf := func(rd *store.Reader) *store.ReaderSegment {
		for _, segs := range rd.Shards() {
			for _, rs := range segs {
				if rs.Name == victim {
					return rs
				}
			}
		}
		t.Fatalf("no segment %s", victim)
		return nil
	}
	for _, rules := range []string{"", "machine=1", "msgLength>=200", "cpuTime>=2000,cpuTime<4500", "cpuTime<1000", "pid=101,machine=2\nmsgLength<70"} {
		for _, noPrune := range []bool{false, true} {
			var events, partials [2]string
			var stats, aggStats [2]query.Stats
			var admitted bool
			for i, be := range []store.Backend{crafted, mangled} {
				rd, err := store.OpenReader(be)
				if err != nil {
					t.Fatal(err)
				}
				q, err := query.Compile(rules)
				if err != nil {
					t.Fatal(err)
				}
				q.NoPrune = noPrune
				v := victimOf(rd)
				if v.Sealed != (i == 0) {
					t.Fatalf("victim sealed=%v in store %d", v.Sealed, i)
				}
				if v.Sealed {
					admitted = q.Admits(v.Index)
				}
				res, err := query.Run(rd, q)
				if err != nil {
					t.Fatalf("rules %q store %d: %v", rules, i, err)
				}
				events[i], stats[i] = string(res.Lines), res.Stats

				aq, err := agg.Compile(rules + "\nagg sum(msgLength) by pid window 1s")
				if err != nil {
					t.Fatal(err)
				}
				aq.Sel.NoPrune = noPrune
				p, st, err := agg.Eval(rd, aq, agg.Options{})
				if err != nil {
					t.Fatalf("rules %q store %d: agg: %v", rules, i, err)
				}
				partials[i], aggStats[i] = string(p.MarshalBinary()), st
			}
			if events[0] != events[1] || partials[0] != partials[1] {
				t.Errorf("rules %q noPrune=%v: answers differ between the crafted and the mangled footer (%d vs %d event lines)",
					rules, noPrune, strings.Count(events[0], "\n"), strings.Count(events[1], "\n"))
			}
			// A sealed segment can be pruned on its index and an unsealed
			// one cannot: only then may the two stores' Stats differ.
			if admitted && (stats[0] != stats[1] || aggStats[0] != aggStats[1]) {
				t.Errorf("rules %q noPrune=%v: stats differ: query %+v vs %+v, agg %+v vs %+v",
					rules, noPrune, stats[0], stats[1], aggStats[0], aggStats[1])
			}
		}
	}
}
