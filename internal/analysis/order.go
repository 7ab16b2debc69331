package analysis

import (
	"errors"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// Order is the happened-before partial order deduced from a trace.
// Section 4.1: "Statements regarding the global ordering of events can
// only be made on the basis of evidence within the trace. For
// example, since a message must be sent before it may be received, the
// times of sending and receiving a message can always be ordered
// relative to one another. Given these constraints, much of the
// global ordering can be deduced."
//
// Each event carries a vector clock (Fidge, Mattern 88) over the
// processes of its connected component, those joined to its own by a
// chain of evidence, so an event of one of many independent jobs costs
// one job's width. Memory is n × the widest component: a star of one
// server and many clients is one wide component.
type Order struct {
	n    int
	succ [][]int
	// Lamport[i] is a logical timestamp consistent with the partial
	// order (Lamport 78).
	Lamport []int
	// Event i is the pos[i]-th event (from 1) of process proc[i].
	proc, pos []int
	// A process's component and its slot in that component's clocks.
	comp, slot []int
	// clock[i][s] counts slot s's process's events at or before event i.
	clock [][]int
}

// ErrCycle reports an inconsistent trace whose deduced order is
// cyclic.
var ErrCycle = errors.New("analysis: trace implies a cyclic event order")

// HappenedBefore builds the partial order from three kinds of
// evidence: program order within each process, send-before-receive
// edges from the matched messages, and the synchronization edges of
// connection establishment (connect before accept returns) and fork
// (the fork event precedes every event of the child).
func HappenedBefore(events []trace.Event, m *Matching) (*Order, error) {
	n := len(events)
	o := &Order{n: n, succ: make([][]int, n), proc: make([]int, n), pos: make([]int, n)}
	var parent []int // union-find over processes: an edge joins its two
	find := func(p int) int {
		for parent[p] != p {
			parent[p] = parent[parent[p]]
			p = parent[p]
		}
		return p
	}
	addEdge := func(from, to int) {
		if from >= 0 && to >= 0 && from < n && to < n && from != to {
			o.succ[from] = append(o.succ[from], to)
			parent[find(o.proc[from])] = find(o.proc[to])
		}
	}

	// Program order per process; a new process's last event is itself.
	procOf := make(map[ProcKey]int)
	var first, last []int
	for i := range events {
		k := keyOf(&events[i])
		p, ok := procOf[k]
		if !ok {
			p = len(parent)
			procOf[k] = p
			parent, first, last = append(parent, p), append(first, i), append(last, i)
		}
		o.proc[i], o.pos[i] = p, o.pos[last[p]]+1
		addEdge(last[p], i)
		last[p] = i
	}

	// Message edges.
	for _, x := range m.Matches {
		addEdge(x.SendSeq, x.RecvSeq)
	}

	// Connection establishment synchronizes the two processes.
	for _, c := range m.Conns {
		addEdge(c.ConnectSeq, c.AcceptSeq)
	}

	// A fork precedes everything its child does.
	for i := range events {
		e := &events[i]
		if e.Type != meter.EvFork {
			continue
		}
		child := ProcKey{Machine: e.Machine, PID: int(e.Fields["newPid"])}
		if p, ok := procOf[child]; ok {
			addEdge(i, first[p])
		}
	}

	// Each event's clock has a slot for each process of its component.
	width := make([]int, len(parent))
	o.comp, o.slot = make([]int, len(parent)), make([]int, len(parent))
	for p := range parent {
		c := find(p)
		o.comp[p], o.slot[p] = c, width[c]
		width[c]++
	}
	o.clock = make([][]int, n)
	for i, p := range o.proc {
		o.clock[i] = make([]int, width[o.comp[p]])
	}

	if err := o.computeLamport(); err != nil {
		return nil, err
	}
	return o, nil
}

// computeLamport assigns logical and vector clocks via a Kahn
// topological sweep, in which an event ticks its own entries once its
// predecessors have merged theirs in; it also detects cycles.
func (o *Order) computeLamport() error {
	indeg := make([]int, o.n)
	for _, succs := range o.succ {
		for _, t := range succs {
			indeg[t]++
		}
	}
	o.Lamport = make([]int, o.n)
	queue := make([]int, 0, o.n)
	for i := 0; i < o.n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for k := 0; k < len(queue); k++ {
		v := queue[k]
		o.Lamport[v]++
		cv := o.clock[v]
		cv[o.slot[o.proc[v]]] = o.pos[v]
		for _, t := range o.succ[v] {
			o.Lamport[t] = max(o.Lamport[t], o.Lamport[v])
			ct := o.clock[t]
			for s, c := range cv {
				ct[s] = max(ct[s], c)
			}
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(queue) != o.n {
		return ErrCycle
	}
	return nil
}

// Ordered reports whether event a happened before event b (by Seq).
func (o *Order) Ordered(a, b int) bool {
	if a < 0 || b < 0 || a >= o.n || b >= o.n || a == b {
		return false
	}
	return o.comp[o.proc[a]] == o.comp[o.proc[b]] && o.clock[b][o.slot[o.proc[a]]] >= o.pos[a]
}

// Concurrent reports whether neither event precedes the other — the
// pairs a distributed debugger must treat as racing.
func (o *Order) Concurrent(a, b int) bool {
	return a != b && !o.Ordered(a, b) && !o.Ordered(b, a)
}

// OrderedFraction returns the fraction of distinct event pairs that
// the deduced partial order resolves — how much of the global ordering
// "can be deduced" from the trace. An event's clock entries sum to the
// events at or before it, itself included.
func (o *Order) OrderedFraction() float64 {
	if o.n < 2 {
		return 1
	}
	ordered := -int64(o.n)
	for _, c := range o.clock {
		for _, k := range c {
			ordered += int64(k)
		}
	}
	total := int64(o.n) * int64(o.n-1) / 2
	return float64(ordered) / float64(total)
}

// N returns the number of events in the order.
func (o *Order) N() int { return o.n }
