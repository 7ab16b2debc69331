package query_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestLinesMatchEvents holds what a record query ships to what it
// shipped when it built an Event per record: each matching record's line
// is Event.AppendFormat of the record's Event — what the trace parser
// reads on its whole line — with the rule's '#' fields projected out,
// and the result is those lines stably sorted by cpuTime in Admitted
// order. It runs over every identity layout — the
// checked-in fixture and this build's store — every identity rule set,
// '#' discards included, pruned and not, at GOMAXPROCS 1, 2 and 8.
func TestLinesMatchEvents(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type layout struct {
		name string
		be   store.Backend
	}
	var layouts []layout
	for li, lay := range identityLayouts {
		layouts = append(layouts,
			layout{lay.name + " fixture", query.LoadFixture(t, query.Fixtures, lay.dir)},
			layout{lay.name, identityStore(t, int64(1000+li), lay.cfg, lay.tail)})
	}
	for _, lay := range layouts {
		rd, err := store.OpenReader(lay.be)
		if err != nil {
			t.Fatal(err)
		}
		for ri, rules := range identityRules {
			for _, noPrune := range []bool{false, true} {
				q, err := query.Compile(rules)
				if err != nil {
					t.Fatal(err)
				}
				q.NoPrune = noPrune
				type rec struct {
					t    int64
					line []byte
				}
				var recs []rec
				segs, _ := query.Admitted(nil, rd, q)
				for _, rs := range segs {
					_, err := q.ScanSegment(rs, func(v *trace.View, drop uint8) {
						whole, err := trace.ParseOne(v.AppendLine(nil, 0))
						if err != nil {
							t.Fatal(err)
						}
						discards := map[string]bool{}
						keys, _ := trace.SlotKeys(v.Type, v.Type.String())
						for k, key := range keys {
							discards[key] = drop>>k&1 != 0
						}
						ev := query.Project(whole, discards)
						want := ev.AppendFormat(nil)
						if got := v.AppendLine(nil, drop); !bytes.Equal(got, want) {
							t.Fatalf("%s rules=%d: the view writes %q, its Event %q", lay.name, ri, got, want)
						}
						recs = append(recs, rec{v.CPUTime, append(want, '\n')})
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				slices.SortStableFunc(recs, func(a, b rec) int { return int(a.t - b.t) })
				var want []byte
				for _, r := range recs {
					want = append(want, r.line...)
				}
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					res, err := query.Run(rd, q)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(res.Lines, want) {
						t.Fatalf("%s rules=%d noPrune=%v GOMAXPROCS=%d: lines differ from the events':\n%s\n---\n%s",
							lay.name, ri, noPrune, procs, res.Lines, want)
					}
				}
			}
		}
	}
}
