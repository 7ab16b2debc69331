package analysis

import (
	"os"
	"strings"
	"testing"
	"time"

	"dpm/internal/trace"
)

// hugeSend is a send whose length needs 63 bits: the doubling loop the
// size histogram once used wrapped to zero before reaching it and never
// returned.
const hugeSend = "SEND machine=1 cpuTime=11 procTime=0 pid=2 pc=12 sock=9 msgLength=5000000000000000000 destNameLen=0 destName=-"

// withDeadline runs f and fails the test if it has not returned in d.
func withDeadline(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		t.Fatalf("still running after %v", d)
	}
}

func TestCommHugeMsgLength(t *testing.T) {
	events, err := trace.ParseLog([]byte(hugeSend))
	if err != nil {
		t.Fatal(err)
	}
	var st *CommStats
	withDeadline(t, 5*time.Second, func() { st = Comm(events) })
	if st.Sends != 1 || st.BytesSent != 5_000_000_000_000_000_000 || st.SizeHist[63] != 1 {
		t.Fatalf("sends %d of %d bytes, bucket 63 holds %d; want one of 5e18 bytes in bucket 63",
			st.Sends, st.BytesSent, st.SizeHist[63])
	}
	report, err := Report(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := " <=9223372036854775808:1\n"; !strings.Contains(report, want) {
		t.Fatalf("report lacks %q:\n%s", want, report)
	}
}

// TestCommRowPerProcess: the table has a row for every process with a
// record, as the live collector's does, and the report lists only
// those that communicated.
func TestCommRowPerProcess(t *testing.T) {
	events, err := trace.ParseLog([]byte(strings.Join([]string{
		"SEND machine=0 cpuTime=5 procTime=0 pid=100 pc=1 sock=3 msgLength=8 destNameLen=0 destName=-",
		"TERMPROC machine=0 cpuTime=9 procTime=20 pid=101 pc=2 status=0",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	st := Comm(events)
	if len(st.Procs) != 2 || st.Procs[1].Key() != (ProcKey{0, 101}) || st.Procs[1].Active() {
		t.Fatalf("process table %+v, want rows for p100 and an idle p101", st.Procs)
	}
	report, err := Report(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	comm, _, _ := strings.Cut(report, "\nstructure")
	if !strings.Contains(comm, "m0/p100:") || strings.Contains(comm, "m0/p101:") {
		t.Fatalf("communication statistics list the wrong processes:\n%s", comm)
	}
	if par := MeasureParallelism(events); par.Processes != 2 || par.TotalCPUMillis != 20 {
		t.Fatalf("parallelism %+v, want 2 processes and 20 ms", par)
	}
}

// FuzzCommParallelism runs arbitrary log text through ParseLog, Comm and
// MeasureParallelism. Neither call panics or hangs, the size buckets sum
// to the sends, the process rows sum to the totals, and no more time is
// spent with processes live than the makespan holds.
func FuzzCommParallelism(f *testing.F) {
	f.Add([]byte(hugeSend))
	f.Add([]byte("TERMPROC machine=3 cpuTime=-7 procTime=9 pid=4 pc=0 status=0\nDUP machine=70000 cpuTime=9223372036854775807 procTime=-1 pid=4 pc=0 sock=1 newSock=2"))
	for _, name := range []string{"session", "tsp"} {
		data, err := os.ReadFile("testdata/" + name + ".trace")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _ := trace.ParseLog(data)
		var st *CommStats
		var par *Parallelism
		withDeadline(t, 5*time.Second, func() { st, par = Comm(events), MeasureParallelism(events) })
		var sized int64
		for _, n := range st.SizeHist {
			sized += n
		}
		if sized != st.Sends {
			t.Fatalf("size buckets hold %d sends of %d", sized, st.Sends)
		}
		var sum Totals
		for _, p := range st.Procs {
			sum.Sends += p.Sends
			sum.Recvs += p.Recvs
			sum.BytesSent += p.BytesSent
			sum.BytesRecvd += p.BytesRecvd
		}
		if sum.Sends != st.Sends || sum.Recvs != st.Recvs || sum.BytesSent != st.BytesSent || sum.BytesRecvd != st.BytesRecvd {
			t.Fatalf("process rows sum to %+v, totals are %+v", sum, st.Totals)
		}
		if st.Events != int64(len(events)) || par.Processes != len(st.Procs) {
			t.Fatalf("folded %d of %d events; %d processes measured, %d in the table",
				st.Events, len(events), par.Processes, len(st.Procs))
		}
		// A span may pass math.MaxInt64 and wrap; it and the sum of the
		// histogram's shorter spans are exact as unsigned numbers.
		var live uint64
		for _, ms := range par.Histogram {
			live += uint64(ms)
		}
		if live > uint64(par.MakespanMillis) {
			t.Fatalf("%d ms with processes live in a %d ms makespan", live, uint64(par.MakespanMillis))
		}
	})
}
