package filter

import (
	"fmt"
	"strconv"
	"strings"

	"dpm/internal/meter"
)

// Op is a comparison operator in a selection rule. "The conditions
// that may be used to specify selection criteria in a template are
// >, <, =, !=, >=, and <=" (section 3.4).
type Op int

// Comparison operators. Order matters in the parser: two-character
// operators must be tried first.
const (
	OpEQ Op = iota
	OpNE
	OpGE
	OpLE
	OpGT
	OpLT
)

var opNames = map[Op]string{OpEQ: "=", OpNE: "!=", OpGE: ">=", OpLE: "<=", OpGT: ">", OpLT: "<"}

func (o Op) String() string { return opNames[o] }

// Eval applies the comparison to two values. It is exported so other
// rule evaluators (the query engine runs these rules against stored
// trace events) share the exact operator semantics.
func (o Op) Eval(a, b uint64) bool { return o.eval(a, b) }

func (o Op) eval(a, b uint64) bool {
	switch o {
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpGE:
		return a >= b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpLT:
		return a < b
	}
	return false
}

// Condition is one field test within a rule.
type Condition struct {
	Field string
	Op    Op
	// Exactly one of the following describes the right-hand side.
	Value    uint64 // literal numeric value
	Wildcard bool   // '*': matches any value
	FieldRef string // another field's name (e.g. sockName=peerName)
	// Discard marks the '#' prefix: if the rule accepts the record,
	// this field is dropped from the saved record.
	Discard bool
}

// Rule is a conjunction of conditions; a record matches the rule when
// every condition holds.
type Rule []Condition

// Rules is a whole templates file: a record is selected when any rule
// matches (each line of the file is an alternative).
type Rules []Rule

// ParseRules parses a selection-rules (templates) file: one rule per
// line, conditions separated by commas, in the syntax of Figures 3.3
// and 3.4 ("machine=5, cpuTime<10000"; wildcard '*'; discard '#').
func ParseRules(data []byte) (Rules, error) {
	var rules Rules
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var rule Rule
		for _, part := range strings.Split(line, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			cond, err := parseCondition(part)
			if err != nil {
				return nil, fmt.Errorf("filter: templates line %d: %w", lineNo+1, err)
			}
			rule = append(rule, cond)
		}
		if len(rule) > 0 {
			rules = append(rules, rule)
		}
	}
	return rules, nil
}

func parseCondition(s string) (Condition, error) {
	// Two-character operators first so "!=", ">=", "<=" are not
	// mis-split at "=", ">", "<".
	for _, probe := range []struct {
		text string
		op   Op
	}{{"!=", OpNE}, {">=", OpGE}, {"<=", OpLE}, {">", OpGT}, {"<", OpLT}, {"=", OpEQ}} {
		idx := strings.Index(s, probe.text)
		if idx <= 0 {
			continue
		}
		cond := Condition{Field: strings.TrimSpace(s[:idx]), Op: probe.op}
		rhs := strings.TrimSpace(s[idx+len(probe.text):])
		if strings.HasPrefix(rhs, "#") {
			cond.Discard = true
			rhs = rhs[1:]
		}
		switch {
		case rhs == "*":
			cond.Wildcard = true
		default:
			if v, err := strconv.ParseUint(rhs, 10, 64); err == nil {
				cond.Value = v
			} else if isFieldName(rhs) {
				cond.FieldRef = rhs
			} else {
				return Condition{}, fmt.Errorf("bad right-hand side %q", rhs)
			}
		}
		return cond, nil
	}
	return Condition{}, fmt.Errorf("no operator in condition %q", s)
}

// isFieldName reports whether a right-hand side is a field reference:
// a letter-initial identifier.
func isFieldName(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// FieldSource is the record-shaped value rules evaluate against: the
// filter's extracted Records implement it directly, and so does the
// trace.View the query engine parses stored lines into, so both stages
// share one rule evaluator and cannot drift apart.
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
			if !aok || !bok || !c.Op.eval(a, b) {
				return false
			}
			continue
		}
		v, ok := src.Field(c.Field)
		if !ok || !c.Op.eval(v, c.Value) {
			return false
		}
	}
	return true
}

// DiscardSet returns the set of fields the rule's '#' markers drop,
// or nil when it has none. The map is freshly built on each call;
// callers on a hot path should build it once per rule (the compiled
// program uses bitmasks instead).
func (r Rule) DiscardSet() map[string]bool {
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
