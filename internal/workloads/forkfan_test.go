package workloads

import (
	"testing"
	"time"

	"dpm/internal/analysis"
	"dpm/internal/meter"
	"dpm/internal/trace"
)

func TestForkFanMetered(t *testing.T) {
	s, ctl, _ := newSys(t)
	if err := RegisterForkFan(s); err != nil {
		t.Fatal(err)
	}
	ctl.Exec("filter f blue")
	ctl.Exec("newjob fan")
	ctl.Exec("setflags fan fork send receive termproc")
	ctl.Exec("addprocess fan red forkfan 3")
	ctl.Exec("startjob fan")
	waitJob(t, ctl, "fan")

	events, err := s.WaitTrace("blue", "f", 10*time.Second, func(evs []trace.Event) bool {
		forks, sends := 0, 0
		for _, e := range evs {
			switch e.Type {
			case meter.EvFork:
				forks++
			case meter.EvSend:
				sends++
			}
		}
		return forks >= 3 && sends >= 3
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fork events name real children whose own sends appear in the
	// trace (inherited metering).
	children := make(map[uint64]bool)
	var parent uint64
	for _, e := range events {
		if e.Type == meter.EvFork {
			parent = e.Fields["pid"]
			children[e.Fields["newPid"]] = true
		}
	}
	if len(children) != 3 {
		t.Fatalf("fork events name %d children", len(children))
	}
	sendsByChild := 0
	for _, e := range events {
		if e.Type == meter.EvSend && children[e.Fields["pid"]] {
			sendsByChild++
		}
	}
	if sendsByChild != 3 {
		t.Fatalf("children produced %d metered sends", sendsByChild)
	}

	// Happened-before: every fork precedes its child's send.
	order, err := analysis.HappenedBefore(events, analysis.MatchTrace(events, s.MatchOptions()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Type != meter.EvFork {
			continue
		}
		child := e.Fields["newPid"]
		for _, se := range events {
			if se.Type == meter.EvSend && se.Fields["pid"] == child {
				if !order.Ordered(e.Seq, se.Seq) {
					t.Fatalf("fork %d not ordered before child %d's send", e.Seq, se.Seq)
				}
			}
		}
	}

	// The parent's comm stats show the fan-in; fork count recorded.
	st := analysis.Comm(events)
	var parentStats *analysis.ProcComm
	for i, pc := range st.Procs {
		if uint64(pc.PID) == parent && pc.Forks > 0 {
			parentStats = &st.Procs[i]
		}
	}
	if parentStats == nil || parentStats.Forks != 3 {
		t.Fatalf("parent stats = %+v", parentStats)
	}
}
