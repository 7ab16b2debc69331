package filter

import (
	"fmt"
	"strconv"
	"strings"
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

// Eval applies the comparison to two values. It is exported so that the
// query engine, which runs these rules against stored records, shares
// the exact operator semantics.
func (o Op) Eval(a, b uint64) bool {
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
			} else if IsFieldName(rhs) {
				cond.FieldRef = rhs
			} else {
				return Condition{}, fmt.Errorf("bad right-hand side %q", rhs)
			}
		}
		return cond, nil
	}
	return Condition{}, fmt.Errorf("no operator in condition %q", s)
}

// IsFieldName reports whether s can name a field: a letter-initial
// identifier of letters and digits, as a rule's field reference and an
// aggregate's fields are.
func IsFieldName(s string) bool {
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
