package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// churnCollector feeds a collector what a filter sees under a
// control_churn-shaped load: jobs of six short processes, one on each of
// six machines, each creating a socketpair, sending and receiving twenty
// five-byte messages over it, and terminating. Pids rise by one a job on
// every machine, as process creation hands them out. cpuTime rises a
// millisecond every second job, so that 16 384 processes fit in one
// reordering window and none of them retires: the table stays full.
func churnCollector(procs int) *Collector {
	const machines, rounds = 6, 20
	c := NewCollector(Config{})
	var batch []tapEntry
	clock := int64(1000)
	for i := 0; i < procs; i++ {
		m, pid := uint16(i%machines), uint32(40+i/machines)
		if m == 0 && i/machines%2 == 0 {
			clock++
		}
		cpu, proc := clock+int64(m)%2, int64(0)
		add := func(kind meter.Type, sock, aux uint32) {
			e := entry(kind, m, pid, sock, aux, cpu)
			e.Proc = proc
			if kind == meter.EvSend || kind == meter.EvRecv {
				e.Name1 = meter.PairName(uint32(pid))
			}
			batch = append(batch, e)
			proc++
		}
		add(meter.EvSocket, 3, 0)
		for r := 0; r < rounds; r++ {
			add(meter.EvSend, 3, 5)
			add(meter.EvRecvCall, 4, 0)
			add(meter.EvRecv, 4, 5)
		}
		cpu++
		add(meter.EvTermProc, 0, 0)
		if len(batch) >= 512 {
			c.apply(batch)
			batch = batch[:0]
		}
	}
	c.apply(batch)
	return c
}

// TestSectionBytesPerProcess gates the size of a process row: under a
// control_churn-shaped load the two tables that hold one — live.comm
// and live.par — take at most 24 bytes a process between them (93 in
// version 1's fixed-width rows).
func TestSectionBytesPerProcess(t *testing.T) {
	const procs = 16384
	c := churnCollector(procs)
	defer c.Close()
	comm, par := c.captureComm(), c.capturePar()
	st, err := DecodeComm(comm)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := DecodePar(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Procs) != procs || len(ps.Procs) != procs || ps.Running() != 0 {
		t.Fatalf("captured %d and %d process rows (%d running), want %d and none running",
			len(st.Procs), len(ps.Procs), ps.Running(), procs)
	}
	per := float64(len(comm)+len(par)) / procs
	t.Logf("live.comm %d bytes, live.par %d bytes: %.2f bytes per process", len(comm), len(par), per)
	if per > 24 {
		t.Errorf("the process tables take %.2f bytes per process, want at most 24", per)
	}
}

// countProcs counts the processes a grouped table sums.
func countProcs(ms []MachineComm) int64 {
	var n int64
	for i := range ms {
		n += ms[i].Procs
	}
	return n
}

// liveSeeds are real captures: the sample collectors, a churn-shaped
// one, the identity stream's full and overflowing collectors part way
// through, then version 3's own shapes — a collector that has retired
// processes into machine rows and swept part of its curve, and the
// merge of two, swept to the end of time.
func liveSeeds() (comm, par [][]byte) {
	add := func(c *Collector) {
		comm = append(comm, c.captureComm())
		par = append(par, c.capturePar())
		c.Close()
	}
	add(NewCollector(Config{}))
	add(sampleCollector(0))
	add(sampleCollector(7))
	add(churnCollector(30))
	stream := identityStream(20261002)
	for _, cfg := range []Config{{}, {MaxProcs: 12, MaxPairs: 4}} {
		add(func() *Collector {
			c := NewCollector(cfg)
			c.apply(stream[:150])
			return c
		}())
	}
	retired := func(from, to int) *Collector {
		c := NewCollector(Config{WindowMillis: 40})
		c.apply(stream[from:to])
		return c
	}
	a, b := retired(0, 1500), retired(1500, 3000)
	mc, _ := mergeCommPayload(a.captureComm(), b.captureComm())
	mp, _ := mergeParPayload(a.capturePar(), b.capturePar())
	add(a)
	add(b)
	comm, par = append(comm, mc), append(par, mp)
	return comm, par
}

// FuzzLiveSections feeds arbitrary bytes, as either table, to every
// reader of the two process tables: DecodeComm, DecodePar, the sweep
// behind Curve, renderComm, renderPar and both mergers. Nothing panics;
// no table is sized past the rows its bytes can hold; renderPar refuses
// exactly what DecodePar refuses and counts what it reads; and a payload
// that decodes encodes (live.comm merged alone) to one that decodes to
// the same state.
func FuzzLiveSections(f *testing.F) {
	comm, par := liveSeeds()
	for _, b := range comm {
		f.Add(b)
	}
	for _, b := range par {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLiveSections(t, comm, par, data) })
}

func checkLiveSections(t *testing.T, comm, par [][]byte, data []byte) {
	render := func(fn obs.SectionRenderer) string {
		return string(fn(nil, obs.Section{Version: SectionVersion, Data: data}))
	}

	text := render(renderComm)
	if st, err := DecodeComm(data); err == nil {
		if cap(st.Procs) > len(data)/minCommRowSize || cap(st.Machines) > len(data)/minMachCommSize ||
			cap(st.Pairs) > len(data)/minPairRowSize {
			t.Fatalf("tables of %d, %d and %d rows from %d bytes", cap(st.Procs), cap(st.Machines), cap(st.Pairs), len(data))
		}
		if !strings.HasPrefix(text, "live communication: ") || !strings.Contains(text, " procs, ") {
			t.Fatalf("renderComm of a payload that decodes: %q", text)
		}
		again, err := mergeCommPayload(data)
		if err != nil {
			t.Fatalf("a payload that decodes does not merge alone: %v", err)
		}
		st2, err := DecodeComm(again)
		if err != nil {
			t.Fatalf("re-encoded live.comm does not decode: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("live.comm state changed across re-encoding:\n%+v\n%+v", st, st2)
		}
		merged, err := mergeCommPayload(data, again)
		if err != nil {
			t.Fatalf("merging a payload with its re-encoding: %v", err)
		}
		if _, err := DecodeComm(merged); err != nil {
			t.Fatalf("merged live.comm does not decode: %v", err)
		}
	} else if _, err := mergeCommPayload(comm[1], data); err == nil {
		t.Fatal("a payload DecodeComm refuses merged")
	}

	text = render(renderPar)
	st, err := DecodePar(data)
	if err != nil {
		if want := "live parallelism: " + err.Error() + "\n"; text != want {
			t.Fatalf("renderPar of a payload DecodePar refuses: %q, want %q", text, want)
		}
		if _, err := mergeParPayload(par[1], data); err == nil {
			t.Fatal("a payload DecodePar refuses merged")
		}
		return
	}
	if cap(st.Procs) > len(data)/minParRowSize || cap(st.Machines) > len(data)/minMachParSize {
		t.Fatalf("tables of %d and %d rows from %d bytes", cap(st.Procs), cap(st.Machines), len(data))
	}
	if !strings.HasPrefix(text, "live parallelism: ") {
		t.Fatalf("renderPar of a payload that decodes: %q", text)
	}
	curve := st.Curve()
	want := fmt.Sprintf("live parallelism: %d procs (%d running)", curve.Processes, st.Running())
	if !strings.HasPrefix(text, want) {
		t.Fatalf("renderPar %q, DecodePar and Curve %q", text, want)
	}
	checkCurve(t, st.Procs)
	again := encodeParState(&ParState{Machines: slices.Clone(st.Machines), Swept: st.Swept, Procs: slices.Clone(st.Procs)})
	st2, err := DecodePar(again)
	if err != nil {
		t.Fatalf("re-encoded live.par does not decode: %v", err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("live.par state changed across re-encoding:\n%+v\n%+v", st, st2)
	}
	merged, err := mergeParPayload(data, par[len(par)-1])
	if err != nil {
		t.Fatalf("merging a payload that decodes: %v", err)
	}
	if _, err := DecodePar(merged); err != nil {
		t.Fatalf("merged live.par does not decode: %v", err)
	}
}

// TestCapturesOwnTheirBytes: a capture encodes into a buffer the
// collector reuses, so what it returns must be a copy. Captures taken
// from several goroutines while records still arrive each decode, and
// one taken earlier is not touched by the captures after it.
func TestCapturesOwnTheirBytes(t *testing.T) {
	c := churnCollector(300)
	defer c.Close()
	first := c.captureComm()
	kept := slices.Clone(first)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 {
					c.apply([]tapEntry{entry(meter.EvSocket, 7, uint32(1000+i), 3, 0, int64(5000+i))})
					continue
				}
				if _, err := DecodeComm(c.captureComm()); err != nil {
					t.Error(err)
				}
				if _, err := DecodePar(c.capturePar()); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if !bytes.Equal(first, kept) {
		t.Fatal("a later capture wrote into an earlier one's bytes")
	}
	st, err := DecodeComm(c.captureComm())
	if err != nil {
		t.Fatal(err)
	}
	if n := countProcs(st.ByMachine()); n != 350 {
		t.Fatalf("%d processes, want 350", n)
	}
}

// encodeParState encodes a decoded live.par state, its rows in order.
func encodeParState(st *ParState) []byte {
	b := appendSwept(nil, st.Swept)
	b = appendTable(b, len(st.Machines), func(b []byte, i int) []byte { return appendMachinePar(b, &st.Machines[i]) })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Procs)))
	var prev ProcInterval
	for i := range st.Procs {
		b = appendParRow(b, &prev, &st.Procs[i])
		prev = st.Procs[i]
	}
	return b
}
