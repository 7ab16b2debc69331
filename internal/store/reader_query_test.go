package store_test

import (
	"bytes"
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
	st, err := store.Open(be, store.Config{Shards: 2, SegmentCap: 1 << 30, CompactMin: 1 << 30})
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
		if err := st.AppendLine(m, e.Format()); err != nil {
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
// prune segments on their tail's index leave those segments' bodies —
// the stream between header and tail — uninflated; only the segments
// they scan pay for theirs, one stream each.
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
		if st.Blocks != st.Scanned || st.BlocksPruned != 0 {
			t.Errorf("%s: %d streams inflated, %d pruned, for %d segments scanned", run.name, st.Blocks, st.BlocksPruned, st.Scanned)
		}
	}
}
