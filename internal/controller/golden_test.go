package controller

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"

	"dpm/internal/analysis/live"
	"dpm/internal/daemon"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

var updateStatsGolden = flag.Bool("update-stats-golden", false, "rewrite testdata/stats.golden from this build's reports")

const statsGoldenFile = "testdata/stats.golden"

// goldenSnapshot is machine i's snapshot in its wire form: metrics that
// every machine shares and some that only a few hold, histograms whose
// buckets overlap across machines, and, with withLive, the sections of
// a live collector fed a stream that depends on i alone. Its time is
// fixed, so the report it renders is too.
func goldenSnapshot(t *testing.T, i int, name string, withLive bool) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("daemon.req.list").Add(int64(3 + i))
	reg.Counter(fmt.Sprintf("only.m%d", i%3)).Add(int64(i * i))
	reg.Gauge("filter.queue_high_water").Set(int64(i % 4))
	h := reg.Histogram("daemon.rtt.list")
	for j := 0; j < 5+i; j++ {
		h.Observe(int64((j + 1) * (i + 1) * 37000))
	}
	reg.Histogram(fmt.Sprintf("lat.m%d", i%2)).Observe(int64(i) * 1e6)
	if withLive {
		coll := live.NewCollector(live.Config{Obs: reg})
		defer coll.Close()
		tap := coll.NewTap()
		// SEND and RECEIVE share the places of pid, sock, msgLength
		// and their name in the stored order: 0, 2, 3 and 5.
		var (
			m   store.Meta
			rec trace.Slots
		)
		for p := 0; p < 4+i; p++ {
			m.Machine, m.PID = uint16(i%5), uint32(10+7*p)
			for k := 0; k < 1+p%3; k++ {
				m.Time = uint32(100 + 40*i + 10*p + 3*k)
				rec.Reset(int64(k * 5))
				rec.SetVal(0, uint64(m.PID))
				rec.SetVal(2, 3)
				rec.SetVal(3, uint64(16<<(p%4)))
				rec.SetName(5, meter.Name{2, 0, byte(p), byte(i)})
				m.Type = uint32(meter.EvSend)
				tap.TapRecord(&m, &rec)
				m.Time++
				m.Type = uint32(meter.EvRecv)
				tap.TapRecord(&m, &rec)
			}
			if p%2 == 0 {
				m.Time += 20
				m.Type = uint32(meter.EvTermProc)
				rec.Reset(rec.ProcTime())
				tap.TapRecord(&m, &rec)
			}
		}
		tap.TapFlush()
	}
	s := reg.Snapshot()
	s.Machine = name
	s.TakenUnixNano = 1_700_000_000_000_000_000 + int64(i)*1e9
	return s.MarshalBinary()
}

func okReply(data []byte) *daemon.Reply {
	return &daemon.Reply{Type: daemon.TStatsRep, Status: "ok", Data: string(data)}
}

// statsGoldenCases are the reports the golden pins: one, two and
// twelve machines with live sections, a degraded report, and one whose
// merged counters break both conservation laws.
func statsGoldenCases(t *testing.T) []struct {
	name    string
	targets []string
	res     []hostResult
} {
	type tc = struct {
		name    string
		targets []string
		res     []hostResult
	}
	machines := func(n int) ([]string, []hostResult) {
		var targets []string
		var res []hostResult
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("m%d", i)
			targets = append(targets, name)
			res = append(res, hostResult{Host: name, Rep: okReply(goldenSnapshot(t, i, name, true))})
		}
		return targets, res
	}
	var cases []tc
	for _, n := range []int{1, 2, 12} {
		targets, res := machines(n)
		cases = append(cases, tc{fmt.Sprintf("%d machines, live sections", n), targets, res})
	}
	targets, res := machines(4)
	res[1] = hostResult{Host: "m1", Err: errors.New("timed out")}
	res[2].Rep = okReply([]byte("DPOB garbage"))
	res[3].Rep = &daemon.Reply{Type: daemon.TStatsRep, Status: "permission denied"}
	cases = append(cases, tc{"degraded: one machine times out, one sends garbage, one refuses", targets, res})
	var cons []hostResult
	for i, name := range []string{"red", "green"} {
		reg := obs.NewRegistry()
		reg.Counter("query.records").Add(int64(100 + i))
		reg.Counter("query.records_skipped").Add(40)
		reg.Counter("store.appends").Add(7)
		reg.Counter("store.records_typed").Add(int64(5 + i))
		s := reg.Snapshot()
		s.Machine, s.TakenUnixNano = name, 1_700_000_000_000_000_000
		cons = append(cons, hostResult{Host: name, Rep: okReply(s.MarshalBinary())})
	}
	cases = append(cases, tc{"conservation broken", []string{"red", "green"}, cons})
	return cases
}

// TestStatsReportGolden pins every byte of the stats report for the
// cases above against testdata/stats.golden, which was generated before
// the report was rendered from the replies' bytes and is regenerated
// only by a change that means to alter the report:
//
//	go test ./internal/controller/ -run TestStatsReportGolden -update-stats-golden
func TestStatsReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range statsGoldenCases(t) {
		fmt.Fprintf(&got, "=== %s\n", c.name)
		statsReport(&got, c.targets, c.res)
	}
	if *updateStatsGolden {
		if err := os.WriteFile(statsGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(statsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stats reports differ from %s:\n%s", statsGoldenFile, got.String())
	}
}
