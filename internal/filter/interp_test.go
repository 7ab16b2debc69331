package filter

import "dpm/internal/meter"

// The rule interpreter: the reference the compiled program
// (compile.go) is held to. It resolves every field by name per record
// and builds a discard map per match.

// FieldSource is the record-shaped value rules evaluate against.
type FieldSource interface {
	// Field returns the numeric value of a named field, header fields
	// included; socket-name fields yield their numeric value.
	Field(name string) (uint64, bool)
	// NameField returns the decoded socket name of a name field.
	NameField(name string) (meter.Name, bool)
}

// MatchSource evaluates the rule's conditions against any field
// source. It performs no discard bookkeeping and allocates nothing;
// callers that need the discard set apply DiscardSet on a match.
func (r Rule) MatchSource(src FieldSource) bool {
	for _, c := range r {
		if c.Wildcard {
			// '*' matches any value, but the field must exist.
			if _, ok := src.Field(c.Field); !ok {
				return false
			}
			continue
		}
		if c.FieldRef != "" {
			// Field-to-field comparison; socket-name fields compare
			// their full 16-byte names (e.g. sockName=peerName).
			if an, aok := src.NameField(c.Field); aok {
				bn, bok := src.NameField(c.FieldRef)
				if !bok {
					return false
				}
				eq := an == bn
				if (c.Op == OpEQ && !eq) || (c.Op == OpNE && eq) {
					return false
				}
				continue
			}
			a, aok := src.Field(c.Field)
			b, bok := src.Field(c.FieldRef)
			if !aok || !bok || !c.Op.Eval(a, b) {
				return false
			}
			continue
		}
		v, ok := src.Field(c.Field)
		if !ok || !c.Op.Eval(v, c.Value) {
			return false
		}
	}
	return true
}

// SelectSource returns the index of the first rule matching the
// source, or -1. An empty rule set selects everything, reported as
// rule -1 with keep true.
func (rs Rules) SelectSource(src FieldSource) (keep bool, rule int) {
	if len(rs) == 0 {
		return true, -1
	}
	for i, r := range rs {
		if r.MatchSource(src) {
			return true, i
		}
	}
	return false, -1
}

// Select decides whether a record is kept. With no rules at all,
// every record is kept unedited. Otherwise the record is kept if any
// rule matches, with that rule's discards applied. A matching rule
// without '#' conditions reports a nil discard set, allocating no map.
func (rs Rules) Select(rec *Record) (keep bool, discards map[string]bool) {
	keep, rule := rs.SelectSource(rec)
	if !keep || rule < 0 {
		return keep, nil
	}
	return true, rs[rule].DiscardSet()
}

// Field returns the numeric value of a named field (header fields
// included), for rule evaluation.
func (r *Record) Field(name string) (uint64, bool) {
	switch name {
	case "size":
		return uint64(r.Size), true
	case "machine":
		return uint64(r.Machine), true
	case "cpuTime":
		return uint64(r.CPUTime), true
	case "procTime":
		return uint64(r.ProcTime), true
	case "type", "traceType":
		return uint64(r.Type), true
	}
	for i := range r.Fields {
		if r.Fields[i].Name == name {
			return r.Fields[i].Value, true
		}
	}
	return 0, false
}

// NameField returns the decoded socket name of a name field.
func (r *Record) NameField(name string) (meter.Name, bool) {
	for i := range r.Fields {
		if r.Fields[i].Name == name && r.Fields[i].IsName {
			return r.Fields[i].Addr, true
		}
	}
	return meter.Name{}, false
}
