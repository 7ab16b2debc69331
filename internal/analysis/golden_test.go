package analysis

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/trace"
)

// TestGoldenSessionTrace anchors the whole analysis stack against a
// checked-in trace produced by the Appendix B session: any behavioral
// drift in parsing, matching, recovery, or ordering shows up here.
func TestGoldenSessionTrace(t *testing.T) {
	data, err := os.ReadFile("testdata/session.trace")
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}

	mt := MatchTrace(events, nil)
	conns := mt.Conns
	if len(conns) != 1 {
		t.Fatalf("connections = %+v", conns)
	}
	c := conns[0]
	if c.Client != (ProcKey{1, 2}) || c.Server != (ProcKey{2, 2}) || c.ServerSock != 9 {
		t.Fatalf("connection = %+v", c)
	}

	if len(mt.Matches) != 2 {
		t.Fatalf("matches = %+v", mt.Matches)
	}

	rec := RecoverRecipients(events, mt.Conns)
	if len(rec) != 4 {
		t.Fatalf("recovered = %v", rec)
	}

	order, err := HappenedBefore(events, mt)
	if err != nil {
		t.Fatal(err)
	}
	if got := order.OrderedFraction(); got < 0.93 || got > 0.94 {
		t.Fatalf("ordered fraction = %v, want ~0.933", got)
	}

	report, err := Report(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trace: 6 event records",
		"m1/p2 (client)",
		"m2/p2 (server)",
		"matched messages:      2",
		"recovered recipients:  4",
		"ordered event pairs:   93.3%",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}

	if diags := Validate(events, nil); countSeverity(diags, Error) != 0 {
		t.Fatalf("golden trace has errors: %v", diags)
	}
}

// TestGoldenTSPTrace anchors the analyses against a frozen trace of a
// real distributed TSP run (master on red, workers on green and blue,
// all events flagged): invariants that must hold for any valid run of
// that workload.
func TestGoldenTSPTrace(t *testing.T) {
	data, err := os.ReadFile("testdata/tsp.trace")
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseLog(data)
	if err != nil {
		t.Fatal(err)
	}

	// Three processes: the master accepts two worker connections.
	conns := MatchTrace(events, nil).Conns
	if len(conns) != 2 {
		t.Fatalf("connections = %d", len(conns))
	}
	for _, c := range conns {
		if c.Server.Machine != 1 {
			t.Fatalf("master not on machine 1: %+v", c)
		}
	}

	g := Structure(events, MatchTrace(events, nil))
	if len(g.Procs) != 3 {
		t.Fatalf("procs = %v", g.Procs)
	}
	masters, clients := 0, 0
	for _, r := range g.Roles {
		switch r {
		case RoleServer:
			masters++
		case RoleClient:
			clients++
		}
	}
	if masters != 1 || clients != 2 {
		t.Fatalf("roles = %v", g.Roles)
	}

	// Stream conservation and consistency hold.
	if diags := Validate(events, nil); countSeverity(diags, Error) != 0 {
		t.Fatalf("trace has errors: %v", diags)
	}
	order, err := HappenedBefore(events, MatchTrace(events, nil))
	if err != nil {
		t.Fatal(err)
	}
	// 73 events: 2303 of the 2628 pairs are ordered.
	if got, want := order.OrderedFraction(), 2303.0/2628; got != want {
		t.Fatalf("ordered fraction = %v, want %v", got, want)
	}
	// Three terminations, all final per process.
	term := 0
	for _, e := range events {
		if e.Event == "TERMPROC" {
			term++
		}
	}
	if term != 3 {
		t.Fatalf("terminations = %d", term)
	}
	par := MeasureParallelism(events)
	if par.Processes != 3 || par.TotalCPUMillis == 0 {
		t.Fatalf("parallelism = %+v", par)
	}
}

// TestGoldenReports pins the whole report with its consistency check,
// as `analyze -validate` prints them, over both checked-in traces.
func TestGoldenReports(t *testing.T) {
	for _, name := range []string{"session", "tsp"} {
		data, err := os.ReadFile("testdata/" + name + ".trace")
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.ParseLog(data)
		if err != nil {
			t.Fatal(err)
		}
		report, err := Report(events, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(report)
		diags := Validate(events, nil)
		fmt.Fprintf(&b, "\nconsistency check: %d finding(s)\n", len(diags))
		for _, d := range diags {
			fmt.Fprintf(&b, "  %s\n", d)
		}
		want, err := os.ReadFile("testdata/" + name + ".report.golden")
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Errorf("%s report drifted; got:\n%s\nwant:\n%s", name, b.String(), want)
		}
	}
}
