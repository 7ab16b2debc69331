package core

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dpm/internal/kernel"
)

// TestO1SampleStatsReport is the generator for the EXPERIMENTS.md O1
// sample: a three-machine run (filter on one machine, senders on the
// other two) followed by the controller's aggregated stats report.
// Set DPM_O1_SAMPLE=1 to print the report; otherwise the test only
// asserts the report is produced.
func TestO1SampleStatsReport(t *testing.T) {
	s, err := NewSystem(Config{Machines: []string{"red", "green", "blue"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	checkConserved(t, s)
	s.Cluster.RegisterProgram("chatter", func(p *kernel.Process) int {
		f1, f2, err := p.SocketPair()
		if err != nil {
			return 1
		}
		for i := 0; i < 50; i++ {
			if _, err := p.Send(f1, []byte("ping")); err != nil {
				return 1
			}
			if _, err := p.Recv(f2, 16); err != nil {
				return 1
			}
			p.Compute(100 * time.Microsecond)
		}
		return 0
	})
	for _, mn := range []string{"green", "blue"} {
		m, err := s.Machine(mn)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.FS().CreateExecutable("/bin/chatter", s.UID, "chatter"); err != nil {
			t.Fatal(err)
		}
	}
	out := &testOut{}
	ctl, err := s.NewController("red", out)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunScript(ctl, []string{
		"filter f red",
		"newjob demo",
		"setflags demo send receive termproc",
		"addprocess demo green chatter",
		"addprocess demo blue chatter",
		"startjob demo",
	}); err == nil {
		t.Fatal("script hit die unexpectedly")
	}
	if err := WaitJob(ctl, "demo", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitTrace("red", "f", 10*time.Second, TermCount(2)); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("stats")
	report := out.String()
	if idx := strings.Index(report, "stats:"); idx >= 0 {
		report = report[idx:]
	} else {
		t.Fatalf("no stats report in output:\n%s", report)
	}
	if os.Getenv("DPM_O1_SAMPLE") != "" {
		fmt.Println(report)
	}
}
