package filter

import (
	"fmt"
	"slices"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// This file compiles Descriptions + Rules into an index-based program,
// the filter's steady-state hot path. The interpreter in interp_test.go
// resolves every field by string name per record and allocates a
// discard map per match; the compiled form resolves each condition's
// field references to integer slots once, at filter start, and
// represents discard sets as per-rule bitmasks. Selection then runs
// against the extracted record with no map, no string comparison, and
// no allocation. The interpreter remains the semantic reference: the
// equivalence tests in compile_test.go prove the two agree
// byte-for-byte across the Figure 3.3–3.4 operator matrix.

// Field slots. The five header fields get fixed slots; an event's body
// fields follow in description order.
const (
	slotSize = iota
	slotMachine
	slotCPUTime
	slotProcTime
	slotType
	numHeaderSlots
)

// slotVal reads a slot's numeric value from an extracted record.
// Body-field slots index Fields directly; name fields yield their
// numeric Value, exactly as Record.Field does.
func (r *Record) slotVal(slot int32) uint64 {
	switch slot {
	case slotSize:
		return uint64(r.Size)
	case slotMachine:
		return uint64(r.Machine)
	case slotCPUTime:
		return uint64(r.CPUTime)
	case slotProcTime:
		return uint64(r.ProcTime)
	case slotType:
		return uint64(r.Type)
	}
	return r.Fields[slot-numHeaderSlots].Value
}

// slotOf resolves a field name against an event description: header
// names first (they shadow body fields, as in Record.Field), then body
// fields in order. isName reports a 16-byte socket-name field.
func slotOf(ev *EventDesc, name string) (slot int32, isName, ok bool) {
	switch name {
	case "size":
		return slotSize, false, true
	case "machine":
		return slotMachine, false, true
	case "cpuTime":
		return slotCPUTime, false, true
	case "procTime":
		return slotProcTime, false, true
	case "type", "traceType":
		return slotType, false, true
	}
	for i := range ev.Fields {
		if ev.Fields[i].Name == name {
			return int32(numHeaderSlots + i), ev.Fields[i].Length == meter.NameSize, true
		}
	}
	return 0, false, false
}

// condKind discriminates the compiled condition forms. Wildcards on
// present fields and name comparisons under operators other than = and
// != always pass and compile away entirely.
type condKind uint8

const (
	condNum    condKind = iota // slot op literal value
	condNumRef                 // slot op refSlot (numeric values)
	condNameEQ                 // Fields[slot] and Fields[refSlot] 16-byte equal
	condNameNE                 // ... not equal
)

// progCond is one compiled condition.
type progCond struct {
	kind    condKind
	op      Op
	slot    int32 // left-hand slot (body-field index for name compares)
	refSlot int32
	value   uint64
}

// progRule is one rule compiled against one event type.
type progRule struct {
	// never marks a rule that cannot match this event type — it
	// references a field the type does not carry.
	never bool
	conds []progCond
	// mask is the rule's discard set over the event's body fields (bit
	// i drops Fields[i]); header-field discards are no-ops in Format
	// and are dropped here too.
	mask uint64
	// discards carries the interpreter-form discard set for the rare
	// wide event type (>64 body fields) the mask cannot represent.
	discards map[string]bool
	// typed is how a record the rule keeps goes to the store typed.
	typed typedPlan
}

// typedPlan is ParseStandard's judgement of the lines one rule keeps, made
// at compile time for what only the description decides: the record goes
// to the store typed (trace.Slots) when trace knows its type by the
// event's name and every kept field is a key of the type's stored order,
// at increasing places, a 16-byte field exactly when its key ends in
// "Name", and not hex. fill decides the rest: the names.
type typedPlan struct {
	ok     bool
	fields []slotField
}

// slotField puts Fields[idx] into slot k, as a socket name or a number.
type slotField struct {
	idx, k int
	name   bool
}

// planTyped plans a record of ev without the fields discarded drops.
func planTyped(ev *EventDesc, discarded func(i int) bool) typedPlan {
	keys, names := trace.SlotKeys(ev.Type, ev.Name)
	if keys == nil {
		return typedPlan{}
	}
	tp := typedPlan{ok: true}
	next := 0 // the first key a field may still take
	for i := range ev.Fields {
		if discarded(i) {
			continue
		}
		fd := &ev.Fields[i]
		k := slices.Index(keys[next:], fd.Name)
		isName := fd.Length == meter.NameSize
		if k < 0 || isName != (names>>(next+k)&1 != 0) || !isName && fd.Base == 16 {
			return typedPlan{}
		}
		next += k + 1
		tp.fields = append(tp.fields, slotField{i, next - 1, isName})
	}
	return tp
}

// fill puts rec's fields into s and reports whether rec goes to the store
// typed: whether the plan says so and every name is one a standard line
// spells.
func (tp *typedPlan) fill(s *trace.Slots, rec *Record) bool {
	if !tp.ok {
		return false
	}
	s.Reset(int64(rec.ProcTime))
	for _, f := range tp.fields {
		if rf := &rec.Fields[f.idx]; !f.name {
			s.SetVal(f.k, rf.Value)
		} else if !s.SetName(f.k, rf.Addr) {
			return false
		}
	}
	return true
}

// eventPlan is the compiled program for one event type.
type eventPlan struct {
	ev *EventDesc
	// wide marks an event description with more than 64 body fields;
	// formatting then falls back to the interpreter's map-based
	// discards (selection still runs compiled).
	wide bool
	// pidIdx is the body-field index of "pid" (-1 when the type does
	// not carry one), resolved once so the store metadata extraction
	// needs no name lookup.
	pidIdx int
	// tapInfo is the precomputed index table record taps read through
	// (tap.go), resolved here for the same no-lookup-on-hot-path reason
	// as pidIdx.
	tapInfo TapInfo
	rules   []progRule
	// keepAll is what a record is kept under when there are no rules:
	// nothing discarded.
	keepAll progRule
}

// Program is a rule set compiled against a description set: one
// eventPlan per described event type.
type Program struct {
	desc  *Descriptions
	rules Rules
	// plans is dense, indexed by event type, when types are small;
	// planMap is the fallback for outlandish type numbers.
	plans   []*eventPlan
	planMap map[meter.Type]*eventPlan
}

// maxDensePlanType bounds the dense plan table; standard types are
// 1..10, so this is generous while keeping a hostile descriptions file
// from inflating the table.
const maxDensePlanType = 4096

// CompileProgram compiles rules against descriptions. Compilation
// cannot fail: a rule referencing a field an event type lacks simply
// never matches that type, exactly as in the interpreter.
func CompileProgram(d *Descriptions, rs Rules) *Program {
	p := &Program{desc: d, rules: rs}
	maxType := meter.Type(0)
	dense := true
	for t := range d.events {
		if t > maxType {
			maxType = t
		}
		if t >= maxDensePlanType {
			dense = false
		}
	}
	if dense {
		p.plans = make([]*eventPlan, maxType+1)
	} else {
		p.planMap = make(map[meter.Type]*eventPlan, len(d.events))
	}
	for t, ev := range d.events {
		pl := compilePlan(ev, rs)
		if dense {
			p.plans[t] = pl
		} else {
			p.planMap[t] = pl
		}
	}
	return p
}

func compilePlan(ev *EventDesc, rs Rules) *eventPlan {
	pl := &eventPlan{ev: ev, wide: len(ev.Fields) > 64, pidIdx: -1, tapInfo: buildTapInfo(ev)}
	for i := range ev.Fields {
		if ev.Fields[i].Name == "pid" {
			pl.pidIdx = i
			break
		}
	}
	for _, r := range rs {
		pl.rules = append(pl.rules, compileRule(ev, r, pl.wide))
	}
	pl.keepAll.typed = planTyped(ev, func(int) bool { return false })
	return pl
}

func compileRule(ev *EventDesc, r Rule, wide bool) progRule {
	pr := progRule{}
	for _, c := range r {
		slot, leftName, leftOK := slotOf(ev, c.Field)
		if c.Discard {
			if wide {
				if pr.discards == nil {
					pr.discards = make(map[string]bool)
				}
				pr.discards[c.Field] = true
			} else {
				// Format drops every body field bearing the discarded
				// name (header shadowing does not protect a body field
				// from a same-named discard), so the mask covers them
				// all, not just the slot the name resolves to.
				for i := range ev.Fields {
					if ev.Fields[i].Name == c.Field {
						pr.mask |= 1 << uint(i)
					}
				}
			}
		}
		switch {
		case c.Wildcard:
			// '*' matches any value, but the field must exist.
			if !leftOK {
				pr.never = true
			}
		case c.FieldRef != "":
			refSlot, refName, refOK := slotOf(ev, c.FieldRef)
			if leftOK && leftName {
				// Name-to-name comparison: the peer must also be a
				// name field. Only = and != constrain; the
				// interpreter lets other operators pass.
				if !refOK || !refName {
					pr.never = true
					break
				}
				switch c.Op {
				case OpEQ:
					pr.conds = append(pr.conds, progCond{kind: condNameEQ,
						slot: slot - numHeaderSlots, refSlot: refSlot - numHeaderSlots})
				case OpNE:
					pr.conds = append(pr.conds, progCond{kind: condNameNE,
						slot: slot - numHeaderSlots, refSlot: refSlot - numHeaderSlots})
				}
				break
			}
			if !leftOK || !refOK {
				pr.never = true
				break
			}
			pr.conds = append(pr.conds, progCond{kind: condNumRef, op: c.Op, slot: slot, refSlot: refSlot})
		default:
			if !leftOK {
				pr.never = true
				break
			}
			pr.conds = append(pr.conds, progCond{kind: condNum, op: c.Op, slot: slot, value: c.Value})
		}
		if pr.never {
			// The rule can never match this event type; no point
			// compiling the rest.
			pr.conds = nil
			return pr
		}
	}
	pr.typed = planTyped(ev, func(i int) bool {
		return i < 64 && pr.mask>>i&1 != 0 || pr.discards[ev.Fields[i].Name]
	})
	return pr
}

// match evaluates a compiled rule against a record. Zero allocations.
func (pr *progRule) match(r *Record) bool {
	for i := range pr.conds {
		c := &pr.conds[i]
		switch c.kind {
		case condNum:
			if !c.op.Eval(r.slotVal(c.slot), c.value) {
				return false
			}
		case condNumRef:
			if !c.op.Eval(r.slotVal(c.slot), r.slotVal(c.refSlot)) {
				return false
			}
		case condNameEQ:
			if r.Fields[c.slot].Addr != r.Fields[c.refSlot].Addr {
				return false
			}
		case condNameNE:
			if r.Fields[c.slot].Addr == r.Fields[c.refSlot].Addr {
				return false
			}
		}
	}
	return true
}

// selectRec decides whether a record is kept and, if so, under which
// rule's discard mask — the compiled counterpart of Rules.Select. With
// no rules at all every record is kept unedited.
func (pl *eventPlan) selectRec(r *Record) (keep bool, rule int) {
	if len(pl.rules) == 0 {
		return true, -1
	}
	for i := range pl.rules {
		pr := &pl.rules[i]
		if pr.never {
			continue
		}
		if pr.match(r) {
			return true, i
		}
	}
	return false, -1
}

// plan returns the compiled plan for an event type, or nil when the
// descriptions do not cover it.
func (p *Program) plan(t meter.Type) *eventPlan {
	if p.plans != nil {
		if int(t) < len(p.plans) {
			return p.plans[t]
		}
		return nil
	}
	return p.planMap[t]
}

// ExtractInto interprets one encoded meter message using the
// descriptions, into a caller-owned record whose field slice it reuses,
// and returns the event's compiled plan. The header is Appendix A's
// fixed one, read by meter.DecodeHeader; the body is read through the
// descriptions alone, not the meter package's body decoder: the filter
// trusts the description file, exactly as the paper's filter does.
func (p *Program) ExtractInto(rec *Record, raw []byte) (*eventPlan, error) {
	if len(raw) < meter.HeaderSize {
		return nil, fmt.Errorf("filter: message shorter than header (%d bytes)", len(raw))
	}
	h := meter.DecodeHeader(raw)
	rec.Size, rec.Machine, rec.CPUTime, rec.ProcTime, rec.Type = h.Size, h.Machine, h.CPUTime, h.ProcTime, h.TraceType
	rec.Fields = rec.Fields[:0]
	pl := p.plan(rec.Type)
	if pl == nil {
		return nil, fmt.Errorf("filter: no description for type %d", rec.Type)
	}
	if err := extractBody(rec, pl.ev, raw[meter.HeaderSize:]); err != nil {
		return nil, err
	}
	return pl, nil
}

// pid returns the record's pid field value under this plan (0 when the
// event type carries none), for store metadata.
func (pl *eventPlan) pid(r *Record) uint32 {
	if pl.pidIdx < 0 {
		return 0
	}
	return uint32(r.Fields[pl.pidIdx].Value)
}
