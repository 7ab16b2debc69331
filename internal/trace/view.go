package trace

import (
	"bytes"
	"math"

	"dpm/internal/meter"
)

// viewSlots is the number of body fields a View holds in place. The
// widest standard record (ACCEPT) has eight; a line with more is served
// through ParseOne.
const viewSlots = 16

// viewField is one body field of a View. The key is line[key0:key1]
// of the view's line: offsets, not a slice, so filling a slot stores no
// pointer.
type viewField struct {
	val        uint64     // the number, or an Internet name's host
	name       meter.Name // set when isName
	key0, key1 int32
	isName     bool
	hasVal     bool // false for a name with no numeric value ("-", unix:, pair:)
}

// View is one stored record line parsed in place: the scan paths fill
// one View per worker from every decoded line, evaluate rules and read
// group keys on it (it is a filter.FieldSource), and build an Event
// only for the records that ship.
//
// Parse has one semantics, ParseOne's. Lines in the canonical form the
// filter writes (Record.AppendFormat: printable ASCII, single spaces,
// strict decimals, Name.AppendText names, distinct keys, at most
// viewSlots body fields) are decoded into the slots without copying,
// mapping or fmt; any other line goes through ParseOne and the view
// serves the resulting event. A View is valid until the next Parse and
// aliases the line it was given.
type View struct {
	Type     meter.Type
	Machine  int
	CPUTime  int64
	ProcTime int64

	line []byte
	// n counts the filled slots; -1 says the line was not canonical and
	// parsed, the ParseOne result, serves it. The slot past the last is
	// where the next field is decoded before it is known to fit.
	n      int
	fields [viewSlots + 1]viewField
	parsed Event
}

// Parse fills the view from one record line (no trailing newline). It
// accepts exactly the lines ParseOne accepts.
func (v *View) Parse(line []byte) error {
	if v.parseCanonical(line) {
		return nil
	}
	ev, err := ParseOne(line)
	if err != nil {
		return err
	}
	v.Type, v.Machine, v.CPUTime, v.ProcTime = ev.Type, ev.Machine, ev.CPUTime, ev.ProcTime
	v.n, v.parsed = -1, ev
	return nil
}

// Header keys seen, for rejecting a canonical line that repeats one.
const (
	sawMachine = 1 << iota
	sawCPUTime
	sawProcTime
)

// parseCanonical decodes a canonical line into the slots. false means
// "not canonical" — never "bad line": the caller asks ParseOne.
func (v *View) parseCanonical(line []byte) bool {
	i := 0
	for i < len(line) && line[i] != ' ' {
		i++
	}
	typ, ok := typeByName[string(line[:i])]
	if !ok || len(line) > math.MaxInt32 {
		return false
	}
	v.Type, v.Machine, v.CPUTime, v.ProcTime = typ, 0, 0, 0
	v.line, v.n = line, 0
	saw := 0
	for i < len(line) {
		i++ // the single space before a token
		f := &v.fields[v.n]
		start := i
		for ; i < len(line) && line[i] != '='; i++ {
			if line[i] <= ' ' || line[i] >= 0x7f {
				return false
			}
		}
		if i == start || i == len(line) {
			return false
		}
		key := line[start:i]
		f.key0, f.key1 = int32(start), int32(i)
		i++
		start = i
		if i < len(line) && line[i]-'0' <= 9 {
			// Strict decimal: digits only, no leading zero (ParseOne reads
			// "010" as octal), no overflow.
			var val uint64
			for ; i < len(line) && line[i] != ' '; i++ {
				d := uint64(line[i] - '0')
				if d > 9 {
					return false
				}
				// Nineteen digits cannot overflow; a twentieth may.
				if n := i - start; n >= 19 && (n > 19 || val > (math.MaxUint64-d)/10) {
					return false
				}
				val = val*10 + d
			}
			if line[start] == '0' && i > start+1 {
				return false
			}
			f.val, f.isName, f.hasVal = val, false, true
		} else {
			for ; i < len(line) && line[i] != ' '; i++ {
				if line[i] < ' ' || line[i] >= 0x7f {
					return false
				}
			}
			if f.name, ok = meter.ParseNameBytes(line[start:i]); !ok {
				return false
			}
			f.val, f.isName, f.hasVal = 0, true, false
			if f.name.Family() == meter.AFInet {
				host, _ := f.name.Inet()
				f.val, f.hasVal = uint64(host), true
			}
		}
		header, limit := 0, uint64(math.MaxInt64)
		switch string(key) {
		case "machine":
			header, limit = sawMachine, math.MaxInt
			v.Machine = int(f.val)
		case "cpuTime":
			header = sawCPUTime
			v.CPUTime = int64(f.val)
		case "procTime":
			header = sawProcTime
			v.ProcTime = int64(f.val)
		}
		if header != 0 {
			if f.isName || f.val > limit || saw&header != 0 {
				return false
			}
			saw |= header
			continue
		}
		if v.n == viewSlots {
			return false
		}
		for j := 0; j < v.n; j++ {
			if bytes.Equal(v.key(j), key) {
				return false
			}
		}
		v.n++
	}
	return true
}

// key returns the name of the field in slot i.
func (v *View) key(i int) []byte { return v.line[v.fields[i].key0:v.fields[i].key1] }

// Field returns the numeric value of a named field, header fields
// first (so a body field called "type" is shadowed by the event type);
// an Internet socket name yields its host number, any other name no
// value. The "size" header field is not carried in log lines.
func (v *View) Field(name string) (uint64, bool) {
	switch name {
	case "machine":
		return uint64(v.Machine), true
	case "cpuTime":
		return uint64(v.CPUTime), true
	case "procTime":
		return uint64(v.ProcTime), true
	case "type", "traceType":
		return uint64(v.Type), true
	}
	if v.n < 0 {
		val, ok := v.parsed.Fields[name]
		return val, ok
	}
	for i := 0; i < v.n; i++ {
		if string(v.key(i)) == name {
			return v.fields[i].val, v.fields[i].hasVal
		}
	}
	return 0, false
}

// NameField returns the decoded socket name of a name field.
func (v *View) NameField(name string) (meter.Name, bool) {
	if v.n < 0 {
		n, ok := v.parsed.Names[name]
		return n, ok
	}
	for i := 0; i < v.n; i++ {
		if v.fields[i].isName && string(v.key(i)) == name {
			return v.fields[i].name, true
		}
	}
	return meter.Name{}, false
}

// Event materialises the record as the Event ParseOne returns for the
// same line. The event shares nothing with the view or the line; it is
// the caller's to keep.
func (v *View) Event() Event {
	if v.n < 0 {
		return v.parsed
	}
	ev := Event{
		Type: v.Type, Event: v.Type.String(),
		Machine: v.Machine, CPUTime: v.CPUTime, ProcTime: v.ProcTime,
		Fields: make(map[string]uint64, v.n),
		Names:  make(map[string]meter.Name),
	}
	order := canonicalOrder[v.Type]
	for i := 0; i < v.n; i++ {
		f := &v.fields[i]
		key := fieldName(order, v.key(i))
		if f.isName {
			ev.Names[key] = f.name
		}
		if f.hasVal {
			ev.Fields[key] = f.val
		}
	}
	return ev
}

// fieldName returns the key as a string, without allocating when it is
// one of the event type's standard field names.
func fieldName(order []string, key []byte) string {
	for _, k := range order {
		if k == string(key) {
			return k
		}
	}
	return string(key)
}
