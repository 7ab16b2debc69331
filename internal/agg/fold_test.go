package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// recordEval is the Eval before per-segment group tables: every matched record's group key — each
// field asked for by name — and value collected per segment on the
// pool, then folded one record at a time in admission order on this
// goroutine.
func recordEval(rd *store.Reader, aq *Query) (*Partial, query.Stats, error) {
	type item struct {
		key GroupKey
		v   uint64
	}
	type segItems struct {
		records, skipped int64
		minTime, maxTime uint64
		items            []item
	}
	s := aq.Spec
	p := newRefPartial(s)
	stats, err := query.ScanOrdered(rd, aq.Sel, nil,
		func(rs *store.ReaderSegment) (*segItems, query.Stats, error) {
			seg := &segItems{minTime: ^uint64(0)}
			st, err := aq.Sel.ScanSegment(rs, func(v *trace.View, _ uint8) {
				seg.records++
				seg.minTime = min(seg.minTime, uint64(v.CPUTime))
				seg.maxTime = max(seg.maxTime, uint64(v.CPUTime))
				var key GroupKey
				if s.WindowMS > 0 {
					t := uint64(v.CPUTime)
					key.Window = t - t%uint64(s.WindowMS)
				}
				for i, f := range s.By {
					val, ok := v.Field(f)
					if !ok {
						seg.skipped++
						return
					}
					key.Vals[i] = val
				}
				val, ok := uint64(1), true
				if s.Fn.NeedsField() {
					if val, ok = v.Field(s.Field); !ok {
						seg.skipped++
						return
					}
				}
				seg.items = append(seg.items, item{key, val})
			})
			return seg, st, err
		},
		func(_ *store.ReaderSegment, seg *segItems) {
			p.Records += seg.records
			p.Skipped += seg.skipped
			if seg.records > 0 {
				p.widen(seg.minTime, seg.minTime)
				p.widen(seg.maxTime, seg.maxTime)
			}
			for _, it := range seg.items {
				if !p.recordFold(it.key, it.v, s.Fn.NeedsSketch(), s.maxGroups()) {
					p.Dropped++
				}
			}
		})
	if err != nil {
		return nil, stats, err
	}
	return partialOf(p), stats, nil
}

// foldStore writes n seeded records over six machines into a
// three-shard store of small segments — most lines standard (stored
// typed), some cut short by a discard, some text only (hex, a foreign
// key, unreadable) — and leaves the last tenth in unsealed tails.
func foldStore(t *testing.T, seed int64, n int) store.Backend {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{Shards: 3, SegmentCap: 1536})
	if err != nil {
		t.Fatal(err)
	}
	add := func(i int) {
		typ := []meter.Type{meter.EvSend, meter.EvRecv, meter.EvFork, meter.EvConnect}[rng.Intn(4)]
		machine, cpu, pid := rng.Intn(6)+1, int64(i/4*30+rng.Intn(2)*10), uint64(100+rng.Intn(5))
		e := trace.Event{
			Type: typ, Event: typ.String(), Machine: machine, CPUTime: cpu, ProcTime: int64(rng.Intn(4) * 10),
			Fields: map[string]uint64{"pid": pid, "pc": uint64(0x4000 + rng.Intn(64))},
			Names:  map[string]meter.Name{},
		}
		switch typ {
		case meter.EvSend:
			e.Fields["sock"], e.Fields["destNameLen"] = 3, 16
			if rng.Intn(6) > 0 { // else a discard took it
				e.Fields["msgLength"] = uint64(rng.Intn(1 << uint(rng.Intn(20))))
			}
			host := uint32(rng.Intn(3))
			e.Names["destName"], e.Fields["destName"] = meter.InetName(host, 80), uint64(host)
		case meter.EvRecv:
			e.Fields["sock"], e.Fields["msgLength"], e.Fields["sourceNameLen"] = 3, uint64(64+rng.Intn(512)), 0
			e.Names["sourceName"] = meter.UnixName("/tmp/s")
		case meter.EvFork:
			e.Fields["newPid"] = pid + 1
		case meter.EvConnect:
			e.Fields["sock"] = 4
			e.Names["peerName"], e.Fields["peerName"] = meter.InetName(2, 80), 2
		}
		line := e.Format()
		switch rng.Intn(20) {
		case 0:
			line = strings.Replace(line, fmt.Sprintf("pid=%d", pid), fmt.Sprintf("pid=%#x", pid), 1)
		case 1:
			line += " extra=7"
		case 2:
			line = "NOT A TRACE LINE"
		}
		m := store.Meta{Machine: uint16(machine), Time: uint32(cpu), Type: uint32(typ), PID: uint32(pid)}
		if err := appendLine(st, m, line); err != nil {
			t.Fatal(err)
		}
	}
	sealed := n - n/10
	for i := 0; i < sealed; i++ {
		add(i)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := sealed; i < n; i++ {
		add(i)
	}
	return be
}

// loadFixture copies one checked-in layout under internal/store/testdata
// (internal/query's fixture tests hold it to its MANIFEST) into a memory
// backend.
func loadFixture(t *testing.T, dir string) store.Backend {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	be := store.NewMemBackend()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Create(f.Name(), data); err != nil {
			t.Fatal(err)
		}
	}
	return be
}

// TestSegmentFoldMatchesRecordFold: merging per-segment group tables in
// admission order under the MaxGroups cap gives the partial the
// record-by-record fold gives — the same bytes, the same counters and
// the same scan statistics — for every operator with and without a
// window, caps that fill in the middle of a segment, and any worker
// count, over randomized stores with unsealed tails and the checked-in
// stores.
func TestSegmentFoldMatchesRecordFold(t *testing.T) {
	stores := map[string]store.Backend{}
	for seed := int64(1); seed <= 3; seed++ {
		stores[fmt.Sprintf("random-%d", seed)] = foldStore(t, seed, 1200)
	}
	for _, layout := range []string{"v3/cap1k", "v3/cap1k+tail", "v3/cap2k", "v3/cap2k+tail", "v3/cap2k+archives"} {
		stores[layout] = loadFixture(t, "../store/testdata/"+layout)
	}
	var specs []string
	for _, spec := range []string{
		"agg count by machine,pid",
		"agg rate by pid",
		"agg sum(msgLength) by machine",
		"agg min(msgLength) by destName",
		"agg max(pc) by type,machine",
		"agg p95(msgLength) by cpuTime",
		"top 3 pid by sum(msgLength)",
	} {
		specs = append(specs, spec, spec+" window 100ms")
	}
	capped := 0
	for name, be := range stores {
		rd, err := store.OpenReader(be)
		if err != nil {
			t.Fatal(err)
		}
		for _, rules := range []string{"", "machine=2\nmachine=3,pid=101"} {
			for _, spec := range specs {
				aq, err := Compile(rules + "\n" + spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, maxGroups := range []int{1, 3, 7, 0} {
					aq.Spec.MaxGroups = maxGroups
					want, wantStats, err := recordEval(rd, aq)
					if err != nil {
						t.Fatal(err)
					}
					if want.Dropped > 0 && len(want.Groups) == aq.Spec.maxGroups() {
						capped++
					}
					for _, workers := range []int{1, 2, 8} {
						atWorkers(workers, func() {
							got, gotStats, err := Eval(rd, aq, Options{})
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got.MarshalBinary(), want.MarshalBinary()) || gotStats != wantStats ||
								got.Records != want.Records || got.Skipped != want.Skipped || got.Dropped != want.Dropped {
								t.Errorf("%s %q %q cap %d, %d workers: records/skipped/dropped %d/%d/%d, the record fold %d/%d/%d",
									name, rules, spec, maxGroups, workers, got.Records, got.Skipped, got.Dropped,
									want.Records, want.Skipped, want.Dropped)
							}
						})
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Fatal("no case filled the group cap")
	}
}

// TestEvalFoldGroups: agg.records counts the matched records and
// agg.fold_groups the groups handed to the ordered merge — fewer, since
// records share a key within a segment.
func TestEvalFoldGroups(t *testing.T) {
	be := buildStore(t, 400, store.Config{SegmentCap: 512})
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	aq, err := Compile("agg count by machine")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p, stats, err := Eval(rd, aq, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	records, groups := reg.Counter("agg.records").Load(), reg.Counter("agg.fold_groups").Load()
	if records != int64(stats.Matched) || groups < int64(len(p.Groups)) || groups >= records {
		t.Fatalf("agg.records = %d, agg.fold_groups = %d for %d groups and %d matched records", records, groups, len(p.Groups), stats.Matched)
	}
}
