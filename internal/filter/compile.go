package filter

import (
	"fmt"
	"slices"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// This file compiles Descriptions + Rules into a program, the filter's
// steady-state hot path. Each description becomes a field plan: where
// each field lies in the message body, its width, and the key of the
// event type's stored order (trace.SlotKeys) it fills, so a message is
// decoded once, straight into the trace.Slots the store keeps. Each
// rule's field references resolve to a header field or a key, and its
// discards to a mask of keys, once, at filter start. Selection then runs
// on the slots with no map, no string comparison and no allocation. The
// interpreter in interp_test.go, over the Record it extracts, remains
// the semantic reference: the equivalence tests in compile_test.go and
// slots_test.go hold the two to the same lines across the Figure 3.3–3.4
// operator matrix.

// maxBody is the largest message body: no field of a plan lies past it.
const maxBody = meter.MaxMsgSize - meter.HeaderSize

// headerNames are the header fields rules may name; they shadow body
// fields of the same name, and traceType is type.
var headerNames = []string{"size", "machine", "cpuTime", "procTime", "type", "traceType"}

// fieldPlan is one described field as the program reads it: offset and
// width in the message body — 2 or 4 bytes for a number, 16 for a socket
// name — and the key k of the stored order it fills.
type fieldPlan struct {
	off, width, k int
}

// condKind discriminates the compiled condition forms. Wildcards on
// present fields and name comparisons under operators other than = and
// != always pass and compile away entirely.
type condKind uint8

const (
	condNum    condKind = iota // a op literal value
	condNumRef                 // a op b (numeric values)
	condNameEQ                 // the 16 body bytes at offsets a and b equal
	condNameNE                 // ... differ
)

// progCond is one compiled condition. a and b are places — key k of the
// stored order (k >= 0) or header field -1-p in headerNames' order — or,
// for the name compares, body offsets: those see the bytes as sent, and
// the slots hold a name as a line spells it.
type progCond struct {
	kind  condKind
	op    Op
	a, b  int
	value uint64
}

// progRule is one rule compiled against one event type.
type progRule struct {
	// never marks a rule that cannot match this event type — it
	// references a field the type does not carry.
	never bool
	conds []progCond
	// drop is the rule's discard set: the keys a kept record loses.
	// Header fields are never dropped.
	drop uint8
}

// eventPlan is the compiled program for one event type.
type eventPlan struct {
	ev     *EventDesc
	keys   []string // the type's stored order
	fields []fieldPlan
	need   int // the body bytes the fields reach
	rules  []progRule
	// keepAll is what a record is kept under when there are no rules:
	// nothing discarded.
	keepAll progRule
}

// Program is a rule set compiled against a description set: one
// eventPlan per described event type, by type number.
type Program struct {
	plans [meter.EvTermProc + 1]*eventPlan
}

// CompileProgram compiles rules against descriptions. It refuses a
// description no field plan expresses, naming its line: an event name
// and type trace does not know, a field that is no key of the type's
// stored order or stands out of that order, a socket name not 16 bytes
// wide, a number not 2 or 4 bytes wide or shown in base 16, a field at
// a negative offset or reaching past the largest message body. A rule referencing a field an event type
// lacks simply never matches that type, exactly as in the interpreter.
func CompileProgram(d *Descriptions, rs Rules) (*Program, error) {
	var evs []*EventDesc
	for _, ev := range d.events {
		evs = append(evs, ev)
	}
	// In file order, so that of several refused lines the first is named.
	slices.SortFunc(evs, func(a, b *EventDesc) int { return a.line - b.line })
	p := &Program{}
	for _, ev := range evs {
		pl, err := compilePlan(ev)
		if err != nil {
			return nil, fmt.Errorf("filter: descriptions line %d: %s %d: %w", ev.line, ev.Name, ev.Type, err)
		}
		for _, r := range rs {
			pl.rules = append(pl.rules, pl.compileRule(r))
		}
		p.plans[ev.Type] = pl
	}
	return p, nil
}

func compilePlan(ev *EventDesc) (*eventPlan, error) {
	keys, names := trace.SlotKeys(ev.Type, ev.Name)
	if keys == nil {
		return nil, fmt.Errorf("no event type of that name and number")
	}
	pl := &eventPlan{ev: ev, keys: keys}
	next := 0 // the first key a field may still take
	for _, fd := range ev.Fields {
		k := slices.Index(keys, fd.Name)
		isName := k >= 0 && names>>k&1 != 0
		switch {
		case k < 0:
			return nil, fmt.Errorf("field %s is no key of %v", fd.Name, keys)
		case k < next:
			return nil, fmt.Errorf("field %s repeats or stands out of the order %v", fd.Name, keys)
		case isName && fd.Length != meter.NameSize:
			return nil, fmt.Errorf("socket name %s is %d bytes wide, not %d", fd.Name, fd.Length, meter.NameSize)
		case !isName && fd.Length != 2 && fd.Length != 4:
			return nil, fmt.Errorf("number %s is %d bytes wide, not 2 or 4", fd.Name, fd.Length)
		case !isName && fd.Base == 16:
			return nil, fmt.Errorf("number %s is shown in base 16", fd.Name)
		case fd.Offset < 0 || fd.Offset > maxBody-fd.Length:
			return nil, fmt.Errorf("field %s at offset %d, outside the largest body (%d bytes)", fd.Name, fd.Offset, maxBody)
		}
		next = k + 1
		pl.fields = append(pl.fields, fieldPlan{fd.Offset, fd.Length, k})
		pl.need = max(pl.need, fd.Offset+fd.Length)
	}
	return pl, nil
}

// placeOf resolves a field name: header names first (they shadow body
// fields, as in Record.Field), then the described keys. field is the
// described field, nil for a header one.
func (pl *eventPlan) placeOf(name string) (p int, field *fieldPlan, ok bool) {
	if h := slices.Index(headerNames, name); h >= 0 {
		return -1 - min(h, 4), nil, true
	}
	for i := range pl.fields {
		if f := &pl.fields[i]; pl.keys[f.k] == name {
			return f.k, f, true
		}
	}
	return 0, nil, false
}

func (pl *eventPlan) compileRule(r Rule) progRule {
	pr := progRule{}
	for _, c := range r {
		left, lf, leftOK := pl.placeOf(c.Field)
		leftName := lf != nil && lf.width == meter.NameSize
		if c.Discard {
			// A discard drops the body field of that name even where a
			// header field shadows it.
			if k := slices.Index(pl.keys, c.Field); k >= 0 {
				pr.drop |= 1 << k
			}
		}
		switch {
		case c.Wildcard:
			// '*' matches any value, but the field must exist.
			pr.never = !leftOK
		case c.FieldRef != "" && leftName:
			// Name-to-name comparison: the peer must also be a name
			// field. Only = and != constrain; the interpreter lets other
			// operators pass.
			_, rf, _ := pl.placeOf(c.FieldRef)
			switch pr.never = rf == nil || rf.width != meter.NameSize; {
			case !pr.never && c.Op == OpEQ:
				pr.conds = append(pr.conds, progCond{kind: condNameEQ, a: lf.off, b: rf.off})
			case !pr.never && c.Op == OpNE:
				pr.conds = append(pr.conds, progCond{kind: condNameNE, a: lf.off, b: rf.off})
			}
		case c.FieldRef != "":
			ref, _, refOK := pl.placeOf(c.FieldRef)
			pr.never = !leftOK || !refOK
			pr.conds = append(pr.conds, progCond{kind: condNumRef, op: c.Op, a: left, b: ref})
		default:
			pr.never = !leftOK
			pr.conds = append(pr.conds, progCond{kind: condNum, op: c.Op, a: left, value: c.Value})
		}
		if pr.never {
			// The rule can never match this event type; no point
			// compiling the rest.
			pr.conds = nil
			return pr
		}
	}
	return pr
}

// value reads place p of a record: a header field, or a key as
// trace.Slots.Field gives it — as Record.Field gives it.
func (pl *eventPlan) value(h *meter.Header, s *trace.Slots, p int) uint64 {
	switch {
	case p >= 0:
		v, _ := s.Field(pl.ev.Type, p)
		return v
	case p == -1:
		return uint64(h.Size)
	case p == -2:
		return uint64(h.Machine)
	case p == -3:
		return uint64(h.CPUTime)
	case p == -4:
		return uint64(h.ProcTime)
	}
	return uint64(h.TraceType)
}

// match evaluates a compiled rule against a decoded record and its
// message body. Zero allocations.
func (pl *eventPlan) match(pr *progRule, h *meter.Header, s *trace.Slots, body []byte) bool {
	for i := range pr.conds {
		c := &pr.conds[i]
		var ok bool
		switch c.kind {
		case condNum:
			ok = c.op.Eval(pl.value(h, s, c.a), c.value)
		case condNumRef:
			ok = c.op.Eval(pl.value(h, s, c.a), pl.value(h, s, c.b))
		default:
			eq := [meter.NameSize]byte(body[c.a:]) == [meter.NameSize]byte(body[c.b:])
			ok = eq == (c.kind == condNameEQ)
		}
		if !ok {
			return false
		}
	}
	return true
}

// selectRec decides whether a record is kept and, if so, under which
// rule — the compiled counterpart of Rules.Select, its discards the
// rule's drop. With no rules at all every record is kept unedited.
func (pl *eventPlan) selectRec(h *meter.Header, s *trace.Slots, body []byte) (keep bool, rule int) {
	if len(pl.rules) == 0 {
		return true, -1
	}
	for i := range pl.rules {
		if pr := &pl.rules[i]; !pr.never && pl.match(pr, h, s, body) {
			return true, i
		}
	}
	return false, -1
}
