package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

const o2Port = 7100

// TestO2SampleLiveReport is the generator for the EXPERIMENTS.md O2
// sample: a three-machine run with cross-machine stream traffic
// (echo server on green, client on blue, filter on red), the
// controller's stats report with its live-analysis sections, and the
// equivalence assert — the live communication and parallelism lines
// must carry exactly the numbers the offline analyzer computes from
// the fetched trace. Set DPM_O2_SAMPLE=1 to print the report.
func TestO2SampleLiveReport(t *testing.T) {
	const rounds = 25
	s, err := NewSystem(Config{Machines: []string{"red", "green", "blue"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if err := s.RegisterWorkload("echoserver", func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return 1
		}
		if err := p.BindPort(lfd, o2Port); err != nil {
			return 1
		}
		if err := p.Listen(lfd, 4); err != nil {
			return 1
		}
		cfd, _, err := p.Accept(lfd)
		if err != nil {
			return 1
		}
		for i := 0; i < rounds; i++ {
			data, err := p.Recv(cfd, 256)
			if err != nil {
				return 1
			}
			p.Compute(500 * time.Microsecond)
			if _, err := p.Send(cfd, append([]byte("re: "), data...)); err != nil {
				return 1
			}
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWorkload("echoclient", func(p *kernel.Process) int {
		host, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), "green")
		if err != nil {
			return 1
		}
		name := meter.InetName(host, o2Port)
		var fd int
		for i := 0; ; i++ {
			fd, err = p.Socket(meter.AFInet, kernel.SockStream)
			if err != nil {
				return 1
			}
			if err = p.Connect(fd, name); err == nil {
				break
			}
			_ = p.Close(fd)
			if i > 5000 {
				return 1
			}
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < rounds; i++ {
			if _, err := p.Send(fd, []byte("ping-0123456789")); err != nil {
				return 1
			}
			if _, err := p.Recv(fd, 256); err != nil {
				return 1
			}
			p.Compute(300 * time.Microsecond)
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	out := &testOut{}
	ctl, err := s.NewController("red", out)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunScript(ctl, []string{
		"filter f red",
		"newjob echo",
		"setflags echo socket connect accept send receive termproc",
		"addprocess echo green echoserver",
		"addprocess echo blue echoclient",
		"startjob echo",
	}); err == nil {
		t.Fatal("script hit die unexpectedly")
	}
	if err := WaitJob(ctl, "echo", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	events, err := s.WaitTrace("red", "f", 10*time.Second, TermCount(2))
	if err != nil {
		t.Fatal(err)
	}
	ctl.Exec("stats")
	report := out.String()
	if idx := strings.Index(report, "stats:"); idx >= 0 {
		report = report[idx:]
	} else {
		t.Fatalf("no stats report in output:\n%s", report)
	}

	// The live sections in the cluster-wide report must agree, number
	// for number, with the offline analysis of the fetched trace.
	comm := analysis.Comm(events)
	wantComm := fmt.Sprintf("live communication: %d events, %d procs, sends %d (%d B), recvs %d (%d B)",
		comm.Events, len(comm.Procs), comm.Sends, comm.BytesSent, comm.Recvs, comm.BytesRecvd)
	if !strings.Contains(report, wantComm) {
		t.Fatalf("report missing %q:\n%s", wantComm, report)
	}
	par := analysis.MeasureParallelism(events)
	wantPar := fmt.Sprintf("live parallelism: %d procs (", par.Processes)
	wantCurve := fmt.Sprintf("cpu %d ms over %d ms, speedup %.2f",
		par.TotalCPUMillis, par.MakespanMillis, par.Speedup)
	if !strings.Contains(report, wantPar) || !strings.Contains(report, wantCurve) {
		t.Fatalf("report missing %q / %q:\n%s", wantPar, wantCurve, report)
	}
	if !strings.Contains(report, "live matching: 1 conns, stream ") ||
		!strings.Contains(report, "aged out 0, pending 0") {
		t.Fatalf("report missing matcher line:\n%s", report)
	}
	if os.Getenv("DPM_O2_SAMPLE") != "" {
		fmt.Println(report)
	}
}
