// Package agg is the aggregation push-down subsystem: aggregate
// operators (count, sum, rate, min/max, approximate percentiles, and
// bounded top-k) grouped by any record field over cpuTime windows,
// evaluated per-segment on the machine that stores the data. A query
// that once shipped every matching record back to the caller instead
// ships one compact partial aggregate per machine; the partials merge
// associatively and commutatively (modeled on obs.Snapshot.Merge), so
// a cluster-wide "top-k talkers" answer moves kilobytes instead of
// gigabytes and the controller can fold per-machine replies in any
// order — including a degraded subset when a machine is partitioned.
//
// The aggregate specification extends the Figure 3.3–3.4 rule syntax:
// selection rules choose the records, one aggregate line shapes the
// answer:
//
//	agg count by machine window 1s
//	agg sum(msgLength) by machine,pid
//	agg p95(msgLength) by type
//	top 10 pid by sum(msgLength)
//
// docs/query.md gives the grammar and the accuracy bounds of the
// percentile and top-k sketches.
package agg

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dpm/internal/filter"
)

// Fn is an aggregate operator.
type Fn int

// Aggregate operators.
const (
	FnCount Fn = iota // records per group
	FnRate            // records per second of window (or of the observed span)
	FnSum             // sum of a field
	FnMin             // minimum of a field
	FnMax             // maximum of a field
	FnP50             // approximate median (log2-histogram sketch)
	FnP95             // approximate 95th percentile
	FnP99             // approximate 99th percentile
)

// fnNames spells the operators, in Fn order.
var fnNames = [...]string{"count", "rate", "sum", "min", "max", "p50", "p95", "p99"}

func (f Fn) String() string { return fnNames[f] }

// NeedsField reports whether the operator reads a value field.
func (f Fn) NeedsField() bool { return f != FnCount && f != FnRate }

// NeedsSketch reports whether the operator needs the per-group
// log2-histogram sketch: whether it is a percentile.
func (f Fn) NeedsSketch() bool { return f.Quantile() > 0 }

// Quantile returns the quantile a percentile operator estimates, 0 for
// the others.
func (f Fn) Quantile() float64 { return [...]float64{FnP50: 0.50, FnP95: 0.95, FnP99: 0.99}[f] }

// Limits of the specification language.
const (
	// MaxBy is the most group-by fields one spec may name; group keys
	// are fixed-width arrays so partials merge without allocation games.
	MaxBy = 4
	// MaxTopK bounds a top-k request: a k past it is a record-shipping
	// query wearing an aggregate costume.
	MaxTopK = 1024
	// DefaultMaxGroups caps one partial's group table. The cap applies
	// only while a machine folds its own records (overflowing records
	// are counted, not attributed); Merge never evicts, so merging the
	// same partials in any order yields identical results.
	DefaultMaxGroups = 4096
)

// ErrSpec reports an unparseable or out-of-bounds aggregate
// specification.
var ErrSpec = errors.New("agg: bad aggregate spec")

// Spec is one compiled aggregate specification.
type Spec struct {
	Fn    Fn
	Field string   // value field of sum/min/max/pNN; empty for count/rate
	By    []string // group-by fields, in declaration order
	// WindowMS buckets records into cpuTime windows of this width
	// (milliseconds, the cpuTime unit); 0 means one unbounded window.
	WindowMS int64
	// TopK, when nonzero, keeps only the K heaviest groups (ranked by
	// the operator's value) in the rendered answer; partials still
	// carry their whole bounded group table so merges stay exact.
	TopK int
	// MaxGroups caps the per-partial group table; 0 selects
	// DefaultMaxGroups.
	MaxGroups int

	canon string // String(), kept by ParseSpec
}

// IsAggLine reports whether a query line is an aggregate specification
// rather than a selection rule — the dispatch the extended syntax
// hangs on ("agg ..." or "top ...").
func IsAggLine(line string) bool {
	f := strings.Fields(line)
	return len(f) > 0 && (f[0] == "agg" || f[0] == "top")
}

// ParseSpec parses one aggregate specification line:
//
//	agg <op>[(field)] [by f1[,f2...]] [window <dur>]
//	top <k> <field> by <op>[(field)] [window <dur>]
//
// Durations accept ms/s/m suffixes (bare numbers are milliseconds,
// cpuTime's unit). Errors wrap ErrSpec.
func ParseSpec(line string) (*Spec, error) {
	toks := strings.Fields(line)
	if len(toks) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrSpec)
	}
	s := &Spec{}
	switch toks[0] {
	case "agg":
		if len(toks) < 2 {
			return nil, fmt.Errorf("%w: agg needs an operator", ErrSpec)
		}
		if err := s.parseOp(toks[1]); err != nil {
			return nil, err
		}
		toks = toks[2:]
	case "top":
		if len(toks) < 5 {
			return nil, fmt.Errorf("%w: top needs 'top k field by op'", ErrSpec)
		}
		k, err := strconv.Atoi(toks[1])
		if err != nil || k < 1 {
			return nil, fmt.Errorf("%w: bad top-k count %q", ErrSpec, toks[1])
		}
		if k > MaxTopK {
			return nil, fmt.Errorf("%w: top-k %d exceeds limit %d", ErrSpec, k, MaxTopK)
		}
		if !filter.IsFieldName(toks[2]) {
			return nil, fmt.Errorf("%w: bad top group field %q", ErrSpec, toks[2])
		}
		if toks[3] != "by" {
			return nil, fmt.Errorf("%w: expected 'by' after top field, got %q", ErrSpec, toks[3])
		}
		s.TopK = k
		s.By = []string{toks[2]}
		if err := s.parseOp(toks[4]); err != nil {
			return nil, err
		}
		toks = toks[5:]
	default:
		return nil, fmt.Errorf("%w: expected 'agg' or 'top', got %q", ErrSpec, toks[0])
	}

	for len(toks) > 0 {
		switch toks[0] {
		case "by":
			if len(s.By) > 0 { // a second by, or a by after top's field
				return nil, fmt.Errorf("%w: duplicate by clause", ErrSpec)
			}
			if len(toks) < 2 {
				return nil, fmt.Errorf("%w: by needs field names", ErrSpec)
			}
			for _, f := range strings.Split(toks[1], ",") {
				if !filter.IsFieldName(f) {
					return nil, fmt.Errorf("%w: bad group field %q", ErrSpec, f)
				}
				s.By = append(s.By, f)
			}
			if len(s.By) > MaxBy {
				return nil, fmt.Errorf("%w: %d group fields exceeds limit %d", ErrSpec, len(s.By), MaxBy)
			}
			toks = toks[2:]
		case "window":
			if s.WindowMS != 0 {
				return nil, fmt.Errorf("%w: duplicate window clause", ErrSpec)
			}
			if len(toks) < 2 {
				return nil, fmt.Errorf("%w: window needs a duration", ErrSpec)
			}
			ms, err := parseWindow(toks[1])
			if err != nil {
				return nil, err
			}
			s.WindowMS = ms
			toks = toks[2:]
		default:
			return nil, fmt.Errorf("%w: unexpected token %q", ErrSpec, toks[0])
		}
	}
	s.canon = s.String()
	return s, nil
}

// parseOp parses "count", "rate", or "fn(field)".
func (s *Spec) parseOp(tok string) error {
	name, arg, paren := strings.Cut(tok, "(")
	field, closed := strings.CutSuffix(arg, ")")
	fn := Fn(slices.Index(fnNames[:], name))
	switch {
	case paren && !closed:
		return fmt.Errorf("%w: unclosed operator argument in %q", ErrSpec, tok)
	case fn < 0:
		return fmt.Errorf("%w: unknown operator %q", ErrSpec, name)
	case !paren && fn.NeedsField():
		return fmt.Errorf("%w: %s needs a field argument, e.g. %s(msgLength)", ErrSpec, tok, tok)
	case paren && !fn.NeedsField():
		return fmt.Errorf("%w: %s takes no field argument", ErrSpec, fn)
	case paren && !filter.IsFieldName(field):
		return fmt.Errorf("%w: bad field %q in %q", ErrSpec, field, tok)
	}
	s.Fn, s.Field = fn, field
	return nil
}

// parseWindow parses a window duration into milliseconds. A bare
// number is milliseconds; ms/s/m suffixes scale. Zero-width and
// negative windows are rejected — a window must hold time.
func parseWindow(tok string) (int64, error) {
	scale := int64(1)
	digits := tok
	switch {
	case strings.HasSuffix(tok, "ms"):
		digits = tok[:len(tok)-2]
	case strings.HasSuffix(tok, "s"):
		digits, scale = tok[:len(tok)-1], 1000
	case strings.HasSuffix(tok, "m"):
		digits, scale = tok[:len(tok)-1], 60_000
	}
	v, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad window %q", ErrSpec, tok)
	}
	if v <= 0 || v > (1<<40)/scale {
		return 0, fmt.Errorf("%w: window %q out of range", ErrSpec, tok)
	}
	return v * scale, nil
}

// String renders the spec canonically; ParseSpec(s.String()) yields an
// equal spec, and Merge uses the canonical form to refuse mixing
// partials of different shapes. A spec from ParseSpec keeps the
// spelling it was parsed to, so its spelled fields must not change
// after; a spec built by hand is spelled out on each call.
func (s *Spec) String() string {
	if s.canon != "" {
		return s.canon
	}
	var b strings.Builder
	op := s.Fn.String()
	if s.Fn.NeedsField() {
		op += "(" + s.Field + ")"
	}
	if s.TopK > 0 {
		fmt.Fprintf(&b, "top %d %s by %s", s.TopK, s.By[0], op)
	} else {
		fmt.Fprintf(&b, "agg %s", op)
		if len(s.By) > 0 {
			fmt.Fprintf(&b, " by %s", strings.Join(s.By, ","))
		}
	}
	if s.WindowMS > 0 {
		fmt.Fprintf(&b, " window %dms", s.WindowMS)
	}
	return b.String()
}
