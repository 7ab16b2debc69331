package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strconv"

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
	ord        int8 // the key's place in the type's stored order, -1 for any other key
	isName     bool
	hasVal     bool // false for a name with no numeric value ("-", unix:, pair:)
}

// View is one stored record line parsed in place: the scan paths fill
// one View per worker from every decoded line, evaluate rules and read
// group keys on it, and write the line of each record that ships.
//
// Parse has one semantics, ParseOne's. Lines in the canonical form the
// filter writes (Record.AppendFormat: printable ASCII, single spaces,
// strict decimals, Name.AppendText names, distinct keys, at most
// viewSlots body fields) are decoded into the slots without copying,
// mapping or fmt; any other line goes through ParseOne and the view
// serves the resulting event. A parsed View is valid until the next
// Parse and aliases the line it was given. A View DecodeTyped read
// answers from the TypedState it was decoded against and is valid only
// until the next DecodeTyped on that state; one PointAt pointed at a
// Slots, while that is unchanged.
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
	// slot, when set, is the typed record DecodeTyped read or PointAt
	// gave: fields are answered from it, and the slots filled from it only
	// when needed.
	slot   *Slots
	parsed Event
	// Per event type, the last name token parsed in place (none longer is
	// remembered) and its value: destName and sourceName repeat from
	// record to record, and a trace alternates SENDs and RECEIVEs.
	memo [len(viewTypes)]struct {
		text [24]byte
		n    int
		name meter.Name
	}
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

// Reset drops what the view borrowed or built — the line it aliases and
// a ParseOne event — so that a view kept in a pool pins neither.
func (v *View) Reset() { v.line, v.n, v.slot, v.parsed = nil, 0, nil, Event{} }

// viewKey is a key the filter writes, '=' included, laid out for
// compare by word: its length, its first eight bytes (zero-padded, with
// the mask of those that count) and, when longer, its last eight.
type viewKey struct {
	n            int
	lo, mask, hi uint64
}

func newViewKey(name string) (k viewKey) {
	var b [16]byte
	k.n = copy(b[:], name+"=")
	k.lo, k.mask = binary.LittleEndian.Uint64(b[:]), ^uint64(0)
	if k.n < 8 {
		k.mask = 1<<(8*k.n) - 1
	} else {
		k.hi = binary.LittleEndian.Uint64(b[k.n-8:])
	}
	return k
}

// headerKeys are the header fields in the order Record.AppendFormat
// always writes them; key h is noted in bit h of parseCanonical's saw.
var headerKeys = []viewKey{newViewKey("machine"), newViewKey("cpuTime"), newViewKey("procTime")}

// viewTypes is typeByName and canonicalOrder laid out for the scan, by
// type number, so that a record costs no hashing: an event type's name,
// and the keys of a line of that type as the filter writes it — header,
// then the type's body fields in stored order.
var viewTypes = func() (t [meter.EvTermProc + 1]struct {
	name  string
	keys  []viewKey
	order []string // canonicalOrder: the body keys, keys[len(headerKeys):] by name
}) {
	for name, typ := range typeByName {
		t[typ].name, t[typ].keys = name, headerKeys[:len(headerKeys):len(headerKeys)]
		t[typ].order = canonicalOrder[typ]
		for _, key := range t[typ].order {
			t[typ].keys = append(t[typ].keys, newViewKey(key)) // none is longer than newViewKey's 15 bytes
		}
	}
	return t
}()

// setHeader stores header field h, false when the value is out of range.
func (v *View) setHeader(h int, val uint64) bool {
	switch h {
	case 0:
		v.Machine = int(val)
	case 1:
		v.CPUTime = int64(val)
	default:
		v.ProcTime = int64(val)
	}
	return val <= math.MaxInt64 && (h != 0 || val <= math.MaxInt)
}

// parseCanonical decodes a canonical line into the slots. false means
// "not canonical" — never "bad line": the caller asks ParseOne.
//
// A key is first compared with the keys of the event type — header,
// then body fields in stored order — from a cursor that only moves
// forward. Such a hit cannot repeat an earlier key: earlier hits lie
// behind the cursor, and so did an earlier generic key that names one
// of the type's, or it would have been a hit (the compare reads eight
// bytes, so a line's last few go the generic way; no hit follows them).
// Any other key takes the generic step: scanned to its '=', header keys
// recognised wherever they stand, duplicates refused.
func (v *View) parseCanonical(line []byte) bool {
	v.slot = nil
	i := bytes.IndexByte(line, ' ')
	if i < 0 {
		i = len(line)
	}
	typ := 1
	for typ < len(viewTypes) && viewTypes[typ].name != string(line[:i]) {
		typ++
	}
	if typ == len(viewTypes) || len(line) > math.MaxInt32 {
		return false
	}
	v.Type, v.Machine, v.CPUTime, v.ProcTime = meter.Type(typ), 0, 0, 0
	v.line, v.n = line, 0
	saw := 0
	keys, next := viewTypes[typ].keys, 0
	for i < len(line) {
		i++ // the single space before a token
		f := &v.fields[v.n]
		h, hit := -1, false
		if i+8 <= len(line) {
			w := binary.LittleEndian.Uint64(line[i:])
			for k := next; k < len(keys); k++ {
				key := &keys[k]
				if w&key.mask == key.lo && (key.n <= 8 ||
					i+key.n <= len(line) && binary.LittleEndian.Uint64(line[i+key.n-8:]) == key.hi) {
					f.key0, f.key1, f.ord = int32(i), int32(i+key.n-1), int8(k-len(headerKeys))
					next, i, hit = k+1, i+key.n, true
					if k < len(headerKeys) {
						h = k
					}
					break
				}
			}
		}
		if !hit {
			start := i
			for ; i < len(line) && line[i] != '='; i++ {
				if line[i] <= ' ' || line[i] >= 0x7f {
					return false
				}
			}
			if i == start || i == len(line) {
				return false
			}
			f.key0, f.key1, f.ord = int32(start), int32(i), -1
			// One of the type's keys in the line's last bytes is in the
			// stored order all the same.
			for k := max(next, len(headerKeys)); k < len(keys); k++ {
				if viewTypes[typ].order[k-len(headerKeys)] == string(line[start:i]) {
					f.ord, next = int8(k-len(headerKeys)), k+1
					break
				}
			}
			switch string(line[start:i]) {
			case "machine":
				h = 0
			case "cpuTime":
				h = 1
			case "procTime":
				h = 2
			}
			i++
		}
		if start := i; i < len(line) && line[i]-'0' <= 9 {
			// Strict decimal: digits only, no leading zero (ParseOne reads
			// "010" as octal), no overflow — which nineteen digits cannot.
			var val uint64
			for ; i < len(line) && line[i]-'0' <= 9; i++ {
				val = val*10 + uint64(line[i]-'0')
			}
			if i < len(line) && line[i] != ' ' || line[start] == '0' && i > start+1 {
				return false
			}
			if i-start > 19 {
				var err error
				if val, err = strconv.ParseUint(string(line[start:i]), 10, 64); err != nil {
					return false
				}
			}
			f.val, f.isName, f.hasVal = val, false, true
		} else {
			memo := &v.memo[typ]
			if m := memo.n; m > 0 && len(line)-i >= m && (i+m == len(line) || line[i+m] == ' ') &&
				string(line[i:i+m]) == string(memo.text[:m]) {
				// The last name token again: already validated and decoded.
				f.name, i = memo.name, i+m
			} else {
				for ; i < len(line) && line[i] != ' '; i++ {
					if line[i] < ' ' || line[i] >= 0x7f {
						return false
					}
				}
				var ok bool
				if f.name, ok = meter.ParseNameBytes(line[start:i]); !ok {
					return false
				}
				if memo.n = 0; i-start <= len(memo.text) {
					memo.n, memo.name = copy(memo.text[:], line[start:i]), f.name
				}
			}
			f.val, f.isName, f.hasVal = 0, true, false
			if f.name.Family() == meter.AFInet {
				host, _ := f.name.Inet()
				f.val, f.hasVal = uint64(host), true
			}
		}
		if h >= 0 {
			if f.isName || saw&(1<<h) != 0 || !v.setHeader(h, f.val) {
				return false
			}
			saw |= 1 << h
			continue
		}
		if !hit {
			for j := 0; j < v.n; j++ {
				if bytes.Equal(v.key(j), v.key(v.n)) {
					return false
				}
			}
		}
		if v.n == viewSlots {
			return false
		}
		v.n++
	}
	return true
}

// key returns the name of the field in slot i.
func (v *View) key(i int) []byte { return v.line[v.fields[i].key0:v.fields[i].key1] }

// Field returns FieldOf the name, resolved for this one call.
func (v *View) Field(name string) (uint64, bool) {
	r := NewFieldRef(name)
	return v.FieldOf(&r)
}

// FieldRef is a field name resolved once, for a caller that asks every
// record for it: its place in the header or in each type's stored order.
type FieldRef struct {
	name string
	ord  [len(viewTypes)]int8 // its place in each type's stored order, -1 for none; -2-h for header field h
}

// NewFieldRef resolves a field name.
func NewFieldRef(name string) FieldRef {
	r := FieldRef{name: name}
	h := slices.Index([]string{"machine", "cpuTime", "procTime", "type", "traceType"}, name)
	for typ := range r.ord {
		if r.ord[typ] = int8(slices.Index(viewTypes[typ].order, name)); h >= 0 {
			r.ord[typ] = int8(-2 - min(h, 3)) // traceType is type
		}
	}
	return r
}

// FieldOf returns the numeric value of the field r resolved, header
// fields first (so a body field called "type" is shadowed by the event
// type); an Internet socket name yields its host number, any other name
// no value. The "size" header field is not carried in log lines.
func (v *View) FieldOf(r *FieldRef) (uint64, bool) {
	switch k := r.ord[v.Type]; {
	case k < -1:
		return [...]uint64{uint64(v.Machine), uint64(v.CPUTime), uint64(v.ProcTime), uint64(v.Type)}[-2-k], true
	case v.slot != nil:
		return v.slot.Field(v.Type, int(k))
	case v.n < 0:
		val, ok := v.parsed.Fields[r.name]
		return val, ok
	}
	for i := 0; i < v.n; i++ {
		if string(v.key(i)) == r.name {
			return v.fields[i].val, v.fields[i].hasVal
		}
	}
	return 0, false
}

// NameOf returns the decoded socket name of the name field r resolved.
// Header fields shadow no name: a body field called "type" that holds
// one answers.
func (v *View) NameOf(r *FieldRef) (meter.Name, bool) {
	if s := v.slot; s != nil {
		// A header name is no name key of any stored order.
		if k := r.ord[v.Type]; k >= 0 && s.present&typedLayouts[v.Type].names>>k&1 != 0 {
			return s.name[k], true
		}
		return meter.Name{}, false
	}
	if v.n < 0 {
		n, ok := v.parsed.Names[r.name]
		return n, ok
	}
	for i := 0; i < v.n; i++ {
		if v.fields[i].isName && string(v.key(i)) == r.name {
			return v.fields[i].name, true
		}
	}
	return meter.Name{}, false
}

// Event materialises the record as the Event ParseOne returns for the
// same line. The event shares nothing with the view or the line; it is
// the caller's to keep.
func (v *View) Event() Event {
	if v.fill(); v.n < 0 {
		return v.parsed
	}
	ev := Event{
		Type: v.Type, Event: v.Type.String(),
		Machine: v.Machine, CPUTime: v.CPUTime, ProcTime: v.ProcTime,
		Fields: make(map[string]uint64, v.n),
		Names:  make(map[string]meter.Name),
	}
	for i := 0; i < v.n; i++ {
		f := &v.fields[i]
		var key string // a key of the stored order is not allocated again
		if f.ord >= 0 {
			key = viewTypes[v.Type].order[f.ord]
		} else {
			key = string(v.key(i))
		}
		if f.isName {
			ev.Names[key] = f.name
		}
		if f.hasVal {
			ev.Fields[key] = f.val
		}
	}
	return ev
}
