package filter

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"dpm/internal/meter"
)

// The reference the engine is held to: a message extracted into a
// Record of named fields (Descriptions.Extract, extractBody), the rule
// interpreter, which resolves every field by name per record and builds
// a discard map per match, and the line formatters (Record.Format and
// Record.AppendFormat). The engine decodes, selects and formats through
// its compiled field plans (compile.go); the equivalence tests and
// FuzzSlotsMatchParse compare the two line for line.

// Extract interprets one encoded meter message into a fresh record: the
// header by meter.DecodeHeader, the body by extractBody.
func (d *Descriptions) Extract(raw []byte) (*Record, error) {
	if len(raw) < meter.HeaderSize {
		return nil, fmt.Errorf("filter: message shorter than header (%d bytes)", len(raw))
	}
	h := meter.DecodeHeader(raw)
	rec := &Record{Size: h.Size, Machine: h.Machine, CPUTime: h.CPUTime, ProcTime: h.ProcTime, Type: h.TraceType}
	ev, ok := d.Event(rec.Type)
	if !ok {
		return nil, fmt.Errorf("filter: no description for type %d", rec.Type)
	}
	if err := extractBody(rec, ev, raw[meter.HeaderSize:]); err != nil {
		return nil, err
	}
	return rec, nil
}

// RecordField is one extracted field of an event record.
type RecordField struct {
	Name string
	// Value is the numeric value of scalar fields; for socket-name
	// fields it is the name's Internet host number (so rules like
	// "destName=228320140" compare against the host address).
	Value uint64
	// IsName marks socket-name fields; Addr holds the decoded name.
	IsName bool
	Addr   meter.Name
	Base   int
}

// Record is one event record after extraction: the header fields plus
// the body fields named by the description.
type Record struct {
	Event    string
	Type     meter.Type
	Size     uint32
	Machine  uint16
	CPUTime  uint32
	ProcTime uint32
	Fields   []RecordField
}

// extractBody fills rec.Fields from the message body per the event
// description. rec's header fields and truncated field slice are
// already in place.
func extractBody(rec *Record, ev *EventDesc, body []byte) error {
	le := binary.LittleEndian
	rec.Event = ev.Name
	for _, fd := range ev.Fields {
		if fd.Offset < 0 || fd.Length < 0 || fd.Offset > len(body)-fd.Length {
			return fmt.Errorf("filter: field %s of %s overruns body (%d bytes)", fd.Name, ev.Name, len(body))
		}
		rf := RecordField{Name: fd.Name, Base: fd.Base}
		chunk := body[fd.Offset : fd.Offset+fd.Length]
		switch fd.Length {
		case 4:
			rf.Value = uint64(le.Uint32(chunk))
		case 2:
			rf.Value = uint64(le.Uint16(chunk))
		case meter.NameSize:
			rf.IsName = true
			copy(rf.Addr[:], chunk)
			if rf.Addr.Family() == meter.AFInet {
				host, _ := rf.Addr.Inet()
				rf.Value = uint64(host)
			}
		default:
			return fmt.Errorf("filter: unsupported field length %d for %s", fd.Length, fd.Name)
		}
		rec.Fields = append(rec.Fields, rf)
	}
	return nil
}

// Format renders a record as one log line: the event name followed by
// header and body fields as name=value pairs. Fields named in discard
// are omitted ("If an event record is accepted by the filter, any
// fields with this value prefix will be discarded", section 3.4).
func (r *Record) Format(discard map[string]bool) string {
	var b strings.Builder
	b.WriteString(r.Event)
	fmt.Fprintf(&b, " machine=%d cpuTime=%d procTime=%d", r.Machine, r.CPUTime, r.ProcTime)
	for _, f := range r.Fields {
		if discard[f.Name] {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(f.Name)
		b.WriteByte('=')
		switch {
		case f.IsName:
			b.WriteString(f.Addr.String())
		case f.Base == 16:
			fmt.Fprintf(&b, "%#x", f.Value)
		default:
			b.WriteString(strconv.FormatUint(f.Value, 10))
		}
	}
	return b.String()
}

// AppendFormat appends the record's log line to dst and returns the
// extended slice — byte-identical to Format, with the discard set
// given as a bitmask over the record's body fields (bit i drops
// Fields[i]) instead of a name map. Header fields are never dropped,
// as in Format. With dst at capacity the call allocates nothing.
func (r *Record) AppendFormat(dst []byte, discardMask uint64) []byte {
	dst = append(dst, r.Event...)
	dst = append(dst, " machine="...)
	dst = strconv.AppendUint(dst, uint64(r.Machine), 10)
	dst = append(dst, " cpuTime="...)
	dst = strconv.AppendUint(dst, uint64(r.CPUTime), 10)
	dst = append(dst, " procTime="...)
	dst = strconv.AppendUint(dst, uint64(r.ProcTime), 10)
	for i := range r.Fields {
		if i < 64 && discardMask>>uint(i)&1 != 0 {
			continue
		}
		f := &r.Fields[i]
		dst = append(dst, ' ')
		dst = append(dst, f.Name...)
		dst = append(dst, '=')
		switch {
		case f.IsName:
			dst = f.Addr.AppendText(dst)
		case f.Base == 16:
			dst = append(dst, "0x"...)
			dst = strconv.AppendUint(dst, f.Value, 16)
		default:
			dst = strconv.AppendUint(dst, f.Value, 10)
		}
	}
	return dst
}

// The rule interpreter.

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

// DiscardSet returns the set of fields the rule's '#' markers drop,
// or nil when it has none: the interpreter's discards (the compiled
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
