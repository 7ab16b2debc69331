// Package filter implements the second stage of the measurement model:
// selection and reduction of meter event records (paper sections 2.1
// and 3.4).
//
// A filter process receives the meter messages generated by the
// kernel, interprets them using *event record descriptions* (Figure
// 3.2), selects and edits them using *selection rules* (Figures 3.3
// and 3.4), and appends the surviving records to a log file under
// /usr/tmp. The standard filter provided here is a kernel.Program;
// custom filters can be written against the same description and rule
// machinery.
package filter

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// FieldDesc is one field of an event record description: its name,
// its byte offset within the message body, its length, and the base it
// is displayed in (base 16 with length 16 marks a socket-name field).
type FieldDesc struct {
	Name   string
	Offset int
	Length int
	Base   int
}

// EventDesc describes one event type's record format.
type EventDesc struct {
	Name   string
	Type   meter.Type
	Fields []FieldDesc
	line   int // the descriptions file line it was read from
}

// Descriptions is a parsed event record descriptions file. "Since the
// meter creates these messages, such definitions are very important
// for establishing a successful protocol between the meter and a
// filter" (section 3.4).
type Descriptions struct {
	// Header lists the standard header fields, in order.
	Header []string
	events map[meter.Type]*EventDesc
}

// Event returns the description for an event type.
func (d *Descriptions) Event(t meter.Type) (*EventDesc, bool) {
	e, ok := d.events[t]
	return e, ok
}

// StandardDescriptions is the descriptions file shipped with the
// measurement tool, in the format of Figure 3.2, rendered from meter's
// layout table: a HEADER line naming the standard header fields, then
// one line per event type of the form
//
//	NAME type, field,offset,length,base field,offset,length,base ...
//
// with offsets relative to the start of the message body.
var StandardDescriptions = func() string {
	b := []byte("HEADER size machine cpuTime procTime traceType\n")
	for _, l := range meter.Layouts() {
		b = fmt.Appendf(b, "%s %d,", l.Name, l.Type)
		for _, f := range l.Fields {
			b = fmt.Appendf(b, " %s,%d,%d,%d", f.Name, f.Offset, f.Width, f.Base)
		}
		b = append(b, '\n')
	}
	return string(b)
}()

// ParseDescriptions parses a descriptions file.
func ParseDescriptions(data []byte) (*Descriptions, error) {
	d := &Descriptions{events: make(map[meter.Type]*EventDesc)}
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks := strings.Fields(line)
		if toks[0] == "HEADER" {
			d.Header = toks[1:]
			continue
		}
		if len(toks) < 3 {
			return nil, fmt.Errorf("filter: descriptions line %d: too few tokens", lineNo+1)
		}
		typeTok := strings.TrimSuffix(toks[1], ",")
		typ, err := strconv.Atoi(typeTok)
		if err != nil {
			return nil, fmt.Errorf("filter: descriptions line %d: bad type %q", lineNo+1, typeTok)
		}
		ev := &EventDesc{Name: toks[0], Type: meter.Type(typ), line: lineNo + 1}
		for _, ft := range toks[2:] {
			parts := strings.Split(ft, ",")
			if len(parts) != 4 {
				return nil, fmt.Errorf("filter: descriptions line %d: bad field %q", lineNo+1, ft)
			}
			var fd FieldDesc
			fd.Name = parts[0]
			if fd.Offset, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("filter: descriptions line %d: bad offset in %q", lineNo+1, ft)
			}
			if fd.Length, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("filter: descriptions line %d: bad length in %q", lineNo+1, ft)
			}
			if fd.Base, err = strconv.Atoi(parts[3]); err != nil {
				return nil, fmt.Errorf("filter: descriptions line %d: bad base in %q", lineNo+1, ft)
			}
			ev.Fields = append(ev.Fields, fd)
		}
		if _, dup := d.events[ev.Type]; dup {
			return nil, fmt.Errorf("filter: descriptions line %d: duplicate type %d", lineNo+1, typ)
		}
		d.events[ev.Type] = ev
	}
	if len(d.Header) == 0 {
		return nil, fmt.Errorf("filter: descriptions file has no HEADER line")
	}
	return d, nil
}

// decode reads one encoded meter message: Appendix A's fixed header,
// by meter.DecodeHeader, into h, and the body, through the plan of the
// header's event type alone, into s. The filter trusts the description
// file, exactly as the paper's filter does: meter's layout table is not
// consulted.
func (p *Program) decode(raw []byte, h *meter.Header, s *trace.Slots) (pl *eventPlan, err error) {
	if len(raw) < meter.HeaderSize {
		return nil, fmt.Errorf("filter: message shorter than header (%d bytes)", len(raw))
	}
	*h = meter.DecodeHeader(raw)
	if int(h.TraceType) < len(p.plans) {
		pl = p.plans[h.TraceType]
	}
	if pl == nil {
		return nil, fmt.Errorf("filter: no description for type %d", h.TraceType)
	}
	body := raw[meter.HeaderSize:]
	if len(body) < pl.need {
		for _, fd := range pl.ev.Fields {
			if fd.Offset > len(body)-fd.Length {
				return nil, fmt.Errorf("filter: field %s of %s overruns body (%d bytes)", fd.Name, pl.ev.Name, len(body))
			}
		}
	}
	le := binary.LittleEndian
	s.Reset(int64(h.ProcTime))
	for _, f := range pl.fields {
		switch f.width {
		case 2:
			s.SetVal(f.k, uint64(le.Uint16(body[f.off:])))
		case 4:
			s.SetVal(f.k, uint64(le.Uint32(body[f.off:])))
		default:
			s.SetName(f.k, meter.Name(body[f.off:f.off+meter.NameSize]))
		}
	}
	return pl, nil
}
