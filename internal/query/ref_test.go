package query

import (
	"testing"

	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/trace"
)

// The reference interpreter the compiled conditions are held to: the
// rule semantics of Figures 3.3 and 3.4 evaluated by field name, with
// no resolution done ahead, over an event's maps. eventSource resolves
// a field on the event: header fields by name, then the maps.
type eventSource trace.Event

func (e *eventSource) Field(name string) (uint64, bool) {
	switch name {
	case "machine":
		return uint64(e.Machine), true
	case "cpuTime":
		return uint64(e.CPUTime), true
	case "procTime":
		return uint64(e.ProcTime), true
	case "type", "traceType":
		return uint64(e.Type), true
	}
	v, ok := e.Fields[name]
	return v, ok
}

func (e *eventSource) NameField(name string) (meter.Name, bool) {
	n, ok := e.Names[name]
	return n, ok
}

// matchSource reports whether every condition of r holds of src.
func matchSource(r filter.Rule, src *eventSource) bool {
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
				if (c.Op == filter.OpEQ && !eq) || (c.Op == filter.OpNE && eq) {
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

// selectSource returns the index of the first rule matching src, or -1;
// no rules at all select everything, as rule -1.
func selectSource(rs filter.Rules, src *eventSource) (keep bool, rule int) {
	if len(rs) == 0 {
		return true, -1
	}
	for i, r := range rs {
		if matchSource(r, src) {
			return true, i
		}
	}
	return false, -1
}

// discardSet is the set of fields the rule's '#' markers drop, or nil
// when it has none.
func discardSet(r filter.Rule) map[string]bool {
	var discards map[string]bool
	for _, c := range r {
		if c.Discard {
			if discards == nil {
				discards = make(map[string]bool)
			}
			discards[c.Field] = true
		}
	}
	return discards
}

// Project applies a matched rule's '#' discards to the event: the
// record a query ships, in the event model its lines are held to. Header
// fields are never dropped, mirroring the filter's record formatting,
// which always prints them. Exported for the external tests of this
// directory.
func Project(e trace.Event, discards map[string]bool) trace.Event {
	fields := make(map[string]uint64, len(e.Fields))
	for k, v := range e.Fields {
		if !discards[k] {
			fields[k] = v
		}
	}
	names := make(map[string]meter.Name, len(e.Names))
	for k, v := range e.Names {
		if !discards[k] {
			names[k] = v
		}
	}
	e.Fields, e.Names = fields, names
	return e
}

// eventsOf parses a result's lines into events, as the callers that need
// maps do.
func eventsOf(t testing.TB, res *Result) []trace.Event {
	t.Helper()
	evs, err := trace.ParseLog(res.Lines)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}
