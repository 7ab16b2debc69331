package analysis

import (
	"fmt"
	"sort"
	"strings"

	"dpm/internal/trace"
)

// Role classifies a process's position in the computation's
// communication structure.
type Role int

// Roles. A process that only initiates connections is a client, one
// that only accepts is a server; processes that do both (or that we
// saw only exchanging datagrams) are peers.
const (
	RolePeer Role = iota
	RoleClient
	RoleServer
)

var roleNames = map[Role]string{RolePeer: "peer", RoleClient: "client", RoleServer: "server"}

func (r Role) String() string { return roleNames[r] }

// Edge is directed who-talks-to-whom traffic between two processes.
type Edge struct {
	From  ProcKey
	To    ProcKey
	Msgs  int
	Bytes int64
}

// Graph is the structural study of section 3.3: the process-level
// communication topology reconstructed from a trace.
type Graph struct {
	Procs []ProcKey
	Edges []Edge
	Roles map[ProcKey]Role
	// Conns counts stream connections between each (client, server)
	// pair.
	Conns map[[2]ProcKey]int
}

// Structure reconstructs the communication graph of a computation
// from its matched messages and connections.
func Structure(events []trace.Event, mt *Matching) *Graph {
	g := &Graph{Roles: make(map[ProcKey]Role), Conns: make(map[[2]ProcKey]int)}
	procSet := make(map[ProcKey]bool)
	for i := range events {
		procSet[keyOf(&events[i])] = true
	}

	connected := make(map[ProcKey]struct{ initiated, accepted bool })
	for _, c := range mt.Conns {
		g.Conns[[2]ProcKey{c.Client, c.Server}]++
		ci := connected[c.Client]
		ci.initiated = true
		connected[c.Client] = ci
		si := connected[c.Server]
		si.accepted = true
		connected[c.Server] = si
	}
	for k, v := range connected {
		switch {
		case v.initiated && !v.accepted:
			g.Roles[k] = RoleClient
		case v.accepted && !v.initiated:
			g.Roles[k] = RoleServer
		default:
			g.Roles[k] = RolePeer
		}
	}

	// Traffic edges from matched messages.
	edgeMap := make(map[[2]ProcKey]*Edge)
	for _, m := range mt.Matches {
		from := keyOf(&events[m.SendSeq])
		to := keyOf(&events[m.RecvSeq])
		key := [2]ProcKey{from, to}
		e := edgeMap[key]
		if e == nil {
			e = &Edge{From: from, To: to}
			edgeMap[key] = e
		}
		e.Msgs++
		e.Bytes += int64(m.Bytes)
	}
	for _, e := range edgeMap {
		g.Edges = append(g.Edges, *e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].From != g.Edges[j].From {
			return less(g.Edges[i].From, g.Edges[j].From)
		}
		return less(g.Edges[i].To, g.Edges[j].To)
	})

	for k := range procSet {
		g.Procs = append(g.Procs, k)
		if _, ok := g.Roles[k]; !ok {
			g.Roles[k] = RolePeer
		}
	}
	sort.Slice(g.Procs, func(i, j int) bool { return less(g.Procs[i], g.Procs[j]) })
	return g
}

func less(a, b ProcKey) bool {
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	return a.PID < b.PID
}

// Dot renders the graph in Graphviz dot form: processes as nodes
// (servers boxed), message traffic as labeled edges, and stream
// connections as dashed edges.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph computation {\n  rankdir=LR;\n")
	for _, p := range g.Procs {
		shape := "ellipse"
		if g.Roles[p] == RoleServer {
			shape = "box"
		}
		fmt.Fprintf(&b, "  %q [shape=%s label=\"%s\\n(%s)\"];\n", p.String(), shape, p, g.Roles[p])
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d msgs, %dB\"];\n", e.From.String(), e.To.String(), e.Msgs, e.Bytes)
	}
	type ck struct {
		pair [2]ProcKey
		n    int
	}
	var cs []ck
	for pair, n := range g.Conns {
		cs = append(cs, ck{pair, n})
	}
	sort.Slice(cs, func(i, j int) bool { return less(cs[i].pair[0], cs[j].pair[0]) })
	for _, c := range cs {
		fmt.Fprintf(&b, "  %q -> %q [style=dashed label=\"%d conn\"];\n", c.pair[0].String(), c.pair[1].String(), c.n)
	}
	b.WriteString("}\n")
	return b.String()
}

// Render prints the graph in a compact text form for the analysis
// tools.
func (g *Graph) Render() string {
	var b strings.Builder
	b.WriteString("processes:\n")
	for _, p := range g.Procs {
		fmt.Fprintf(&b, "  %s (%s)\n", p, g.Roles[p])
	}
	b.WriteString("traffic:\n")
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %s -> %s: %d msgs, %d bytes\n", e.From, e.To, e.Msgs, e.Bytes)
	}
	if len(g.Conns) > 0 {
		b.WriteString("connections:\n")
		type ck struct {
			pair [2]ProcKey
			n    int
		}
		var cs []ck
		for pair, n := range g.Conns {
			cs = append(cs, ck{pair, n})
		}
		sort.Slice(cs, func(i, j int) bool { return less(cs[i].pair[0], cs[j].pair[0]) })
		for _, c := range cs {
			fmt.Fprintf(&b, "  %s => %s: %d\n", c.pair[0], c.pair[1], c.n)
		}
	}
	return b.String()
}
