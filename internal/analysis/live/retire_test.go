package live

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dpm/internal/analysis"
	"dpm/internal/meter"
	"dpm/internal/obs"
)

// agingMsgs builds a seeded meter stream that spans more than ten
// reordering windows: a few long-lived processes that never terminate
// and keep sending to the end — one of them silent for three windows in
// the middle, which holds the horizon back — and a stream of short
// ones, each living under a second, that terminate. Records go out in the order of their
// processes' schedules, but each record's cpuTime is jittered by up to
// 400 ms either way, so the stream reorders — within the window.
func agingMsgs(seed int64) []meter.Msg {
	const span, jitter = 25000, 400
	rng := rand.New(rand.NewSource(seed))
	type rec struct {
		at   int64
		msg  meter.Msg
		last bool
	}
	var recs []rec
	add := func(at int64, machine uint16, body meter.Body) {
		cpu := 1000 + at + rng.Int63n(2*jitter+1) - jitter
		recs = append(recs, rec{at: at, msg: meter.Msg{Header: meter.Header{Machine: machine, CPUTime: uint32(cpu),
			ProcTime: uint32(at / 50)}, Body: body}})
	}
	body := func(pid uint32) meter.Body {
		sock := uint32(3 + rng.Intn(3))
		switch rng.Intn(6) {
		case 0:
			return &meter.Send{PID: pid, Sock: sock, MsgLength: uint32(rng.Intn(5000)), DestNameLen: 16,
				DestName: meter.InetName(uint32(rng.Intn(4)), 7000)}
		case 1:
			return &meter.Recv{PID: pid, Sock: sock, MsgLength: uint32(rng.Intn(5000)), SourceNameLen: 16,
				SourceName: meter.InetName(uint32(rng.Intn(4)), 7000)}
		case 2:
			return &meter.RecvCall{PID: pid, Sock: sock}
		case 3:
			return &meter.SocketCrt{PID: pid, Sock: sock, Domain: 2, SockType: 2}
		case 4:
			return &meter.Fork{PID: pid, NewPID: pid + 1}
		}
		return &meter.Dup{PID: pid, Sock: sock, NewSock: sock + 1}
	}
	for d := uint32(0); d < 4; d++ {
		for at := int64(rng.Intn(300)); at < span; at += int64(100 + rng.Intn(700)) {
			if d != 3 || at < 8000 || at >= 14000 {
				add(at, uint16(d), body(10+d))
			}
		}
	}
	pid := uint32(100)
	for start := int64(0); start < span; start += int64(rng.Intn(60)) {
		pid++
		machine := uint16(rng.Intn(4))
		at := start
		for n := rng.Intn(8); n > 0; n-- {
			add(at, machine, body(pid))
			at += int64(rng.Intn(150))
		}
		add(at, machine, &meter.TermProc{PID: pid})
		recs[len(recs)-1].last = true
	}
	slices.SortStableFunc(recs, func(a, b rec) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.last != b.last { // a process's termination follows its own records
			if a.last {
				return 1
			}
			return -1
		}
		return 0
	})
	out := make([]meter.Msg, len(recs))
	for i := range recs {
		out[i] = recs[i].msg
	}
	return out
}

// TestRetiredEquivalence replays seeded streams that span more than ten
// windows through the tapped pipeline at 1, 2 and 8 workers. Most
// processes retire on the way, and the sections stay exact: live.comm
// grouped by machine equals analysis.Comm grouped by machine, the curve
// equals analysis.MeasureParallelism, and no record was late.
func TestRetiredEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		msgs := agingMsgs(seed)
		for _, workers := range []int{1, 2, 8} {
			snap, events := runLive(t, workers, [][]byte{encodeMsgs(msgs)})
			comm, par, _ := decodeSections(t, snap)
			off := analysis.Comm(events)
			if comm.Totals != off.Totals {
				t.Fatalf("seed %d, workers %d: totals live %+v, offline %+v", seed, workers, comm.Totals, off.Totals)
			}
			live, want := comm.ByMachine(), (&CommState{CommStats: *off}).ByMachine()
			if !slices.Equal(live, want) {
				t.Fatalf("seed %d, workers %d: by machine live %+v, offline %+v", seed, workers, live, want)
			}
			assertCurveMatchesOffline(t, par, events)
			if late, _ := snap.Get("live.par.late"); late != 0 {
				t.Fatalf("seed %d, workers %d: %d late records", seed, workers, late)
			}
			if seen, _ := snap.Get("live.procs_seen"); seen != int64(len(off.Procs)) {
				t.Fatalf("seed %d, workers %d: procs_seen %d, want %d", seed, workers, seen, len(off.Procs))
			}
			if running, _ := snap.Get("live.procs_live"); running != int64(par.Running()) {
				t.Fatalf("seed %d, workers %d: procs_live %d, %d rows running", seed, workers, running, par.Running())
			}
			if len(comm.Procs) != len(par.Procs) || 4*len(par.Procs) > len(off.Procs) {
				t.Fatalf("seed %d, workers %d: %d and %d open rows of %d processes", seed, workers,
					len(comm.Procs), len(par.Procs), len(off.Procs))
			}
		}
	}
}

// TestLateRecordClamped sends one record two windows behind the
// watermark: it folds at the horizon, live.par.late counts it, and
// every reader and merger of the sections still works.
func TestLateRecordClamped(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(Config{Obs: reg})
	defer c.Close()
	var batch []tapEntry
	for i := 0; i < 600; i++ {
		cpu := int64(10 * i)
		batch = append(batch, entry(meter.EvRecvCall, uint16(i%3), uint32(100+i), 3, 0, cpu),
			entry(meter.EvTermProc, uint16(i%3), uint32(100+i), 0, 0, cpu+5))
	}
	c.apply(batch)
	c.apply([]tapEntry{entry(meter.EvRecvCall, 0, 100, 3, 0, 6000-2*2000)})
	snap := reg.Snapshot()
	if late, ok := snap.Get("live.par.late"); !ok || late != 1 {
		t.Fatalf("live.par.late %d (%v), want 1", late, ok)
	}
	comm, par, _ := decodeSections(t, snap)
	if par.Swept == nil || len(par.Machines) == 0 || len(comm.Machines) == 0 {
		t.Fatalf("nothing retired: %+v", par)
	}
	if n := countProcs(comm.ByMachine()); n != 601 {
		t.Fatalf("%d processes, want 601: the late record's process retired, so it counts again", n)
	}
	if curve := par.Curve(); curve.Processes != 601 || curve.MakespanMillis != 5995 {
		t.Fatalf("curve %+v", curve)
	}
	var text strings.Builder
	snap.Render(&text)
	if !strings.Contains(text.String(), "live parallelism: 601 procs (1 running)") {
		t.Fatalf("render:\n%s", text.String())
	}
	for name, merge := range map[string]obs.SectionMerger{SectionComm: mergeCommPayload, SectionPar: mergeParPayload} {
		data := snap.Section(name).Data
		if _, err := merge(data, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestOverflowGaugeMatchesRunning: past MaxProcs the surplus folds into
// the overflow row, which the gauge counts as one row, as Running does —
// running until the first TERMPROC folds into it.
func TestOverflowGaugeMatchesRunning(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(Config{Obs: reg, MaxProcs: 2})
	defer c.Close()
	check := func(want int) {
		t.Helper()
		snap := reg.Snapshot()
		_, par, _ := decodeSections(t, snap)
		gauge, _ := snap.Get("live.procs_live")
		if gauge != int64(par.Running()) || gauge != int64(want) {
			t.Fatalf("procs_live %d, Running %d, want %d", gauge, par.Running(), want)
		}
	}
	for pid := uint32(1); pid <= 4; pid++ {
		c.apply([]tapEntry{entry(meter.EvRecvCall, 0, pid, 3, 0, int64(10*pid))})
	}
	check(3)
	c.apply([]tapEntry{entry(meter.EvTermProc, 0, 3, 0, 0, 50)})
	check(2)
}

// TestMergedCurveSumsCollectors: merged sections add each collector's
// own curve, whether its processes are open or retired.
func TestMergedCurveSumsCollectors(t *testing.T) {
	stream := identityStream(20261002)
	a, b := NewCollector(Config{}), NewCollector(Config{})
	defer a.Close()
	defer b.Close()
	a.apply(stream[:len(stream)/2])
	b.apply(stream[len(stream)/2:])
	merged, err := mergeParPayload(a.capturePar(), b.capturePar())
	if err != nil {
		t.Fatal(err)
	}
	var curves [3]*analysis.Parallelism
	for i, data := range [][]byte{a.capturePar(), b.capturePar(), merged} {
		st, err := DecodePar(data)
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = st.Curve()
	}
	want := map[int]int64{}
	for _, cv := range curves[:2] {
		for k, ms := range cv.Histogram {
			want[k] += ms
		}
	}
	if !reflect.DeepEqual(curves[2].Histogram, want) {
		t.Fatalf("merged %v, want the histograms %v and %v summed", curves[2].Histogram, curves[0].Histogram, curves[1].Histogram)
	}
}
