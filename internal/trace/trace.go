// Package trace parses the event records collected by filter
// processes into a form the analysis routines can interpret — the
// hand-off point between the measurement system's second stage
// (filtering) and third stage (analysis).
//
// Two encodings are supported: the text log files the standard filter
// writes (one record per line, name=value pairs), and raw binary meter
// streams (for analyses that bypass a filter).
package trace

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dpm/internal/meter"
)

// ErrTruncated reports a trace whose final record is incomplete — the
// writer (a filter, or a kernel flushing meter buffers) died
// mid-record, as a machine crash makes routine. The parse functions
// return it alongside the valid prefix of events, so analyses can
// still use everything up to the tear; errors.Is distinguishes it from
// corruption in the middle of a trace, which stays fatal.
var ErrTruncated = errors.New("trace: truncated final record")

// Event is one parsed event record.
type Event struct {
	// Seq is the record's position in the trace, which reflects
	// arrival order at the filter.
	Seq     int
	Type    meter.Type
	Event   string
	Machine int
	// CPUTime is the local machine clock (ms); ProcTime the CPU time
	// charged to the process (ms, 10 ms granularity).
	CPUTime  int64
	ProcTime int64
	Fields   map[string]uint64
	Names    map[string]meter.Name
}

// PID returns the event's process id (0 if the field was discarded).
func (e *Event) PID() int { return int(e.Fields["pid"]) }

// Sock returns the socket identifier of the event (0 if absent).
func (e *Event) Sock() uint32 { return uint32(e.Fields["sock"]) }

// MsgLength returns the message length of send/receive events.
func (e *Event) MsgLength() int { return int(e.Fields["msgLength"]) }

// Name returns a socket-name field.
func (e *Event) Name(field string) meter.Name { return e.Names[field] }

// ParseLog parses a standard-filter text log. A log whose final
// record fails to parse yields the valid prefix and ErrTruncated; a
// bad record anywhere else is an error.
func ParseLog(data []byte) ([]Event, error) {
	lines := strings.Split(string(data), "\n")
	lastNonEmpty := -1
	for i, line := range lines {
		if strings.TrimSpace(line) != "" {
			lastNonEmpty = i
		}
	}
	var events []Event
	for lineNo, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		ev, err := parseLine(line)
		if err != nil {
			if lineNo == lastNonEmpty {
				return events, fmt.Errorf("%w: line %d: %v", ErrTruncated, lineNo+1, err)
			}
			return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
		}
		ev.Seq = len(events)
		events = append(events, ev)
	}
	return events, nil
}

// ParseOne parses a single formatted record line (no trailing
// newline), the per-record entry point for scan paths that stream
// lines out of the store instead of splitting a whole log.
func ParseOne(line []byte) (Event, error) {
	s := strings.TrimSpace(string(line))
	if s == "" {
		return Event{}, fmt.Errorf("trace: empty record line")
	}
	return parseLine(s)
}

func parseLine(line string) (Event, error) {
	toks := strings.Fields(line)
	ev := Event{
		Event:  toks[0],
		Fields: make(map[string]uint64),
		Names:  make(map[string]meter.Name),
	}
	typ := slices.IndexFunc(viewTypes[:], func(t viewType) bool { return t.name == toks[0] })
	if typ < 0 {
		return ev, fmt.Errorf("unknown event %q", toks[0])
	}
	ev.Type = meter.Type(typ)
	for _, tok := range toks[1:] {
		eq := strings.IndexByte(tok, '=')
		if eq <= 0 {
			return ev, fmt.Errorf("bad field %q", tok)
		}
		key, val := tok[:eq], tok[eq+1:]
		switch key {
		case "machine":
			v, err := strconv.Atoi(val)
			if err != nil {
				return ev, fmt.Errorf("bad machine %q", val)
			}
			ev.Machine = v
		case "cpuTime":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad cpuTime %q", val)
			}
			ev.CPUTime = v
		case "procTime":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad procTime %q", val)
			}
			ev.ProcTime = v
		default:
			// looksLikeName first: every numeric field would otherwise
			// pay for ParseName's formatted rejection.
			if looksLikeName(val) {
				if n, err := meter.ParseName(val); err == nil {
					ev.Names[key] = n
					if n.Family() == meter.AFInet {
						host, _ := n.Inet()
						ev.Fields[key] = uint64(host)
					}
					continue
				}
			}
			v, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return ev, fmt.Errorf("bad value for %s: %q", key, val)
			}
			ev.Fields[key] = v
		}
	}
	return ev, nil
}

func looksLikeName(val string) bool {
	return val == "-" || strings.HasPrefix(val, "inet:") ||
		strings.HasPrefix(val, "unix:") || strings.HasPrefix(val, "pair:")
}

// ParseBinary parses a raw meter byte stream, reading each body's
// fields at the offsets of its type's meter.Layout. A stream that ends
// in the middle of a record (or whose tail fails to decode) yields the
// valid prefix and ErrTruncated.
func ParseBinary(data []byte) ([]Event, error) {
	hs, rest, err := meter.DecodeStream(data)
	events := make([]Event, 0, len(hs))
	for i, h := range hs {
		lay, _ := meter.LayoutOf(h.TraceType) // DecodeStream checked the type
		body := data[meter.HeaderSize:h.Size]
		data = data[h.Size:]
		ev := Event{
			Seq:      i,
			Type:     h.TraceType,
			Event:    lay.Name,
			Machine:  int(h.Machine),
			CPUTime:  int64(h.CPUTime),
			ProcTime: int64(h.ProcTime),
			Fields:   make(map[string]uint64),
			Names:    make(map[string]meter.Name),
		}
		for j := range lay.Fields {
			f := &lay.Fields[j]
			v, n := f.Read(body)
			if !f.IsName() {
				ev.Fields[f.Name] = uint64(v)
				continue
			}
			ev.Names[f.Name] = n
			if n.Family() == meter.AFInet {
				host, _ := n.Inet()
				ev.Fields[f.Name] = uint64(host)
			}
		}
		events = append(events, ev)
	}
	if err != nil {
		return events, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if len(rest) != 0 {
		return events, fmt.Errorf("%w: %d trailing bytes in meter stream", ErrTruncated, len(rest))
	}
	return events, nil
}

// Format renders an event in the standard filter's log line format, so
// traces can be round-tripped and merged.
func (e *Event) Format() string { return string(e.AppendFormat(nil)) }

// AppendFormat appends the Format rendering of the event to dst and
// returns the extended slice: the header, the type's fields in their
// canonical order, then any other numeric fields and any other names,
// each group in key order. A name with a numeric value (an Internet
// host) sits in both maps and prints once, as a name.
func (e *Event) AppendFormat(dst []byte) []byte {
	dst = append(dst, e.Event...)
	dst = strconv.AppendInt(append(dst, " machine="...), int64(e.Machine), 10)
	dst = strconv.AppendInt(append(dst, " cpuTime="...), e.CPUTime, 10)
	dst = strconv.AppendInt(append(dst, " procTime="...), e.ProcTime, 10)
	fields, names := 0, 0 // map entries the canonical order accounted for
	emit := func(key string) {
		n, isName := e.Names[key]
		v, isField := e.Fields[key]
		if !isName && !isField {
			return
		}
		dst = append(append(append(dst, ' '), key...), '=')
		if isName {
			names++
			dst = n.AppendText(dst)
		} else {
			dst = strconv.AppendUint(dst, v, 10)
		}
		if isField {
			fields++
		}
	}
	var order []string
	if int(e.Type) < len(viewTypes) {
		order = viewTypes[e.Type].order
	}
	for _, key := range order {
		emit(key)
	}
	if fields == len(e.Fields) && names == len(e.Names) {
		return dst
	}
	var extra []string
	for key := range e.Fields {
		if _, isName := e.Names[key]; !isName && !slices.Contains(order, key) {
			extra = append(extra, key)
		}
	}
	numeric := len(extra)
	for key := range e.Names {
		if !slices.Contains(order, key) {
			extra = append(extra, key)
		}
	}
	sort.Strings(extra[:numeric])
	sort.Strings(extra[numeric:])
	for _, key := range extra {
		emit(key)
	}
	return dst
}

// Merge combines several traces (e.g. the logs of different filters
// collecting parts of one computation) into one, ordered by the
// machine-clock timestamps and re-sequenced. Within one machine the
// clock is monotonic so per-process program order is preserved; across
// machines the order is only as good as the clocks' rough
// correspondence (paper section 4.1) — the analysis routines rely on
// message causality, not on this order, for cross-machine claims.
func Merge(traces ...[]Event) []Event {
	var out []Event
	for _, t := range traces {
		out = append(out, t...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CPUTime < out[j].CPUTime })
	for i := range out {
		out[i].Seq = i
	}
	return out
}
