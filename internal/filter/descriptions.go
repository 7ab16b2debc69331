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
// measurement tool, in the format of Figure 3.2: a HEADER line naming
// the standard header fields, then one line per event type of the form
//
//	NAME type, field,offset,length,base field,offset,length,base ...
//
// with offsets relative to the start of the message body.
const StandardDescriptions = `HEADER size machine cpuTime procTime traceType
SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
RECEIVECALL 2, pid,0,4,10 pc,4,4,10 sock,8,4,10
RECEIVE 3, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 sourceNameLen,16,4,10 sourceName,20,16,16
SOCKET 4, pid,0,4,10 pc,4,4,10 sock,8,4,10 domain,12,4,10 type,16,4,10 protocol,20,4,10
DUP 5, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10
DESTSOCKET 6, pid,0,4,10 pc,4,4,10 sock,8,4,10
CONNECT 7, pid,0,4,10 pc,4,4,10 sock,8,4,10 sockNameLen,12,4,10 peerNameLen,16,4,10 sockName,20,16,16 peerName,36,16,16
ACCEPT 8, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10 sockNameLen,16,4,10 peerNameLen,20,4,10 sockName,24,16,16 peerName,40,16,16
FORK 9, pid,0,4,10 pc,4,4,10 newPid,8,4,10
TERMPROC 10, pid,0,4,10 pc,4,4,10 status,8,4,10
`

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
		ev := &EventDesc{Name: toks[0], Type: meter.Type(typ)}
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
