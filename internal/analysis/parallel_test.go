package analysis

import (
	"strings"
	"testing"

	"dpm/internal/meter"
)

// procSpan emits two events bracketing a process's life with the
// given CPU accumulation.
func (b *tb) procSpan(machine, pid int, first, last, cpu int64) {
	b.add(meter.EvSocket, machine, pid, first, map[string]uint64{"sock": 1}, nil)
	e := b.add(meter.EvTermProc, machine, pid, last, map[string]uint64{"status": 0}, nil)
	b.events[e].ProcTime = cpu
}

func TestParallelismSerial(t *testing.T) {
	// Two processes running back to back: speedup ~1.
	b := &tb{}
	b.procSpan(1, 10, 0, 100, 100)
	b.procSpan(1, 11, 100, 200, 100)
	p := MeasureParallelism(b.events)
	if p.Processes != 2 {
		t.Fatalf("Processes = %d", p.Processes)
	}
	if p.TotalCPUMillis != 200 || p.MakespanMillis != 200 {
		t.Fatalf("cpu=%d makespan=%d", p.TotalCPUMillis, p.MakespanMillis)
	}
	if p.Speedup != 1.0 {
		t.Fatalf("Speedup = %v, want 1.0", p.Speedup)
	}
	if p.Histogram[1] != 200 || p.Histogram[2] != 0 {
		t.Fatalf("Histogram = %v", p.Histogram)
	}
}

func TestParallelismConcurrent(t *testing.T) {
	// Two processes fully overlapping on different machines: speedup 2.
	b := &tb{}
	b.procSpan(1, 10, 0, 100, 100)
	b.procSpan(2, 20, 0, 100, 100)
	p := MeasureParallelism(b.events)
	if p.Speedup != 2.0 {
		t.Fatalf("Speedup = %v, want 2.0", p.Speedup)
	}
	if p.Histogram[2] != 100 {
		t.Fatalf("Histogram = %v", p.Histogram)
	}
}

func TestParallelismPartialOverlap(t *testing.T) {
	b := &tb{}
	b.procSpan(1, 10, 0, 100, 0)
	b.procSpan(2, 20, 50, 150, 0)
	p := MeasureParallelism(b.events)
	if p.Histogram[1] != 100 || p.Histogram[2] != 50 {
		t.Fatalf("Histogram = %v", p.Histogram)
	}
	if p.MakespanMillis != 150 {
		t.Fatalf("makespan = %d", p.MakespanMillis)
	}
}

func TestParallelismEmpty(t *testing.T) {
	p := MeasureParallelism(nil)
	if p.Processes != 0 || p.Speedup != 0 {
		t.Fatalf("empty = %+v", p)
	}
}

func TestStructureRolesAndEdges(t *testing.T) {
	b := connScenario()
	b.send(2, 20, 11, 8, 3, meter.Name{})
	b.recv(1, 10, 12, 5, 3, meter.Name{})
	g := Structure(b.events, MatchTrace(b.events, nil))
	if len(g.Procs) != 2 {
		t.Fatalf("procs = %v", g.Procs)
	}
	if g.Roles[ProcKey{1, 10}] != RoleClient {
		t.Fatalf("client role = %v", g.Roles[ProcKey{1, 10}])
	}
	if g.Roles[ProcKey{2, 20}] != RoleServer {
		t.Fatalf("server role = %v", g.Roles[ProcKey{2, 20}])
	}
	if g.Conns[[2]ProcKey{{1, 10}, {2, 20}}] != 1 {
		t.Fatalf("conns = %v", g.Conns)
	}
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %+v", g.Edges)
	}
	for _, e := range g.Edges {
		switch e.From {
		case ProcKey{1, 10}:
			if e.Msgs != 1 || e.Bytes != 5 {
				t.Fatalf("forward edge = %+v", e)
			}
		case ProcKey{2, 20}:
			if e.Msgs != 1 || e.Bytes != 3 {
				t.Fatalf("reply edge = %+v", e)
			}
		}
	}
}

func TestStructureRender(t *testing.T) {
	b := connScenario()
	out := Structure(b.events, MatchTrace(b.events, nil)).Render()
	for _, want := range []string{"m1/p10 (client)", "m2/p20 (server)", "traffic:", "connections:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestStructureDot(t *testing.T) {
	b := connScenario()
	dot := Structure(b.events, MatchTrace(b.events, nil)).Dot()
	for _, want := range []string{
		"digraph computation",
		`"m1/p10" [shape=ellipse`,
		`"m2/p20" [shape=box`,
		`"m1/p10" -> "m2/p20" [label="1 msgs, 5B"]`,
		"style=dashed",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot lacks %q:\n%s", want, dot)
		}
	}
}

func TestStructurePeerRoleForDatagramOnly(t *testing.T) {
	b := &tb{}
	b.send(1, 10, 0, 3, 4, meter.InetName(2, 5000))
	b.recv(2, 20, 1, 9, 4, meter.InetName(1, 1024))
	g := Structure(b.events, MatchTrace(b.events, nil))
	if g.Roles[ProcKey{1, 10}] != RolePeer || g.Roles[ProcKey{2, 20}] != RolePeer {
		t.Fatalf("roles = %v", g.Roles)
	}
	if len(g.Edges) != 1 || g.Edges[0].Msgs != 1 {
		t.Fatalf("edges = %+v", g.Edges)
	}
}
