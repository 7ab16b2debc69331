package trace

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// The typed form of a record: what the store's compressed blocks hold
// for a standard line instead of its text (docs/formats.md, "v3 block
// payload"). A line is standard when the view parses it in place, every
// body key is one of its event type's in stored order (a subset is what
// a '#' discard leaves) carrying that key's kind of value — a socket
// name under a key ending in "Name", a number elsewhere — and
// AppendLine gives the line back byte for byte. Its typed form, after
// the record's Meta, which carries machine, cpuTime and type:
//
//	flags    1 byte  typedShape | typedPresence | typedProcTime
//	present  1 byte  bit k: field k of the stored order is on the line;
//	                 only with typedPresence, else as the last record of
//	                 the type in the block
//	changed  1 byte  bit k: field k differs from that record's
//	procTime uvarint zigzag delta, only with typedProcTime
//	fields   per changed bit, in order: a number as the zigzag uvarint
//	         of its (wrapping) delta, a name as its 16 bytes
//
// Every delta is against the TypedState, which starts a block at zero.

const (
	typedShape    = 1 << iota // always set: the text shape's first byte is 0
	typedPresence             // the present byte follows
	typedProcTime             // a procTime delta follows
)

// typedFields is the width of the present and changed bytes; no stored
// order is longer (ACCEPT's has eight keys).
const typedFields = 8

// Slots is one record in typed form: its procTime and, for each key of
// its event type's stored order (SlotKeys) it carries, a number or, under
// a key ending in "Name", a socket name. A producer that holds a record's
// fields — the filter — fills one with Reset, SetVal and SetName, and a
// View pointed at it (PointAt) reads and encodes the record with no line.
type Slots struct {
	present  uint8
	procTime int64
	val      [typedFields]uint64
	name     [typedFields]meter.Name
}

// Reset empties s for a record of the given procTime.
func (s *Slots) Reset(procTime int64) { s.present, s.procTime = 0, procTime }

// SetVal sets key k of the stored order to a number.
func (s *Slots) SetVal(k int, val uint64) { s.present, s.val[k] = s.present|1<<k, val }

// SetName sets key k of the stored order to a socket name as a standard
// line spells it and parses it back: an Internet name without the bytes
// past its host, a path cut at its first NUL. false says no standard line
// spells it — an unset name that is not all zero, a family AppendText
// writes in hex, a path byte that is blank or not printable ASCII.
func (s *Slots) SetName(k int, n meter.Name) bool {
	switch n.Family() {
	case meter.AFInet:
		n = meter.InetName(n.Inet())
	case meter.AFUnix, meter.AFPair:
		if i := bytes.IndexByte(n[2:], 0); i >= 0 {
			clear(n[2+i:])
		}
	}
	s.present, s.name[k] = s.present|1<<k, n
	return standardName(n)
}

// Drop takes the keys in mask out of the record, as a '#' discard takes
// them off its line.
func (s *Slots) Drop(mask uint8) { s.present &^= mask }

// ProcTime returns the record's procTime.
func (s *Slots) ProcTime() int64 { return s.procTime }

// Name returns key k's socket name as SetName stored it, unset when the
// record does not carry key k.
func (s *Slots) Name(k int) meter.Name {
	if s.present>>k&1 == 0 {
		return meter.Name{}
	}
	return s.name[k]
}

// AppendLine appends the record's log line, its event type typ and its
// Meta's machine and cpuTime as the header: what View.AppendLine writes
// for a view PointAt pointed at s, without filling the view.
func (s *Slots) AppendLine(dst []byte, typ meter.Type, machine int, cpuTime int64) []byte {
	lay := &typedLayouts[typ]
	dst = appendHead(dst, typ, machine, cpuTime, s.procTime)
	for p := s.present; p != 0; p &= p - 1 {
		k := bits.TrailingZeros8(p)
		if dst = append(dst, lay.sep[k]...); lay.names>>k&1 != 0 {
			dst = s.name[k].AppendText(dst)
		} else {
			dst = appendDecimal(dst, s.val[k])
		}
	}
	return dst
}

// SlotKeys returns the stored order of event type typ, whose places are
// Slots' keys, and the bit mask of those holding socket names — when trace
// knows typ by the name event. Otherwise keys is nil: no line of that name
// and type is standard.
func SlotKeys(typ meter.Type, event string) (keys []string, names uint8) {
	if typ < 1 || int(typ) >= len(viewTypes) || viewTypes[typ].name != event {
		return nil, 0
	}
	return viewTypes[typ].order, typedLayouts[typ].names
}

// TypedState is what typed records are deltas against: the last record
// of each event type. The zero value starts a block; writer and reader
// each keep one and reset it where the block ends.
type TypedState [len(viewTypes)]Slots

// typedLayouts gives, per event type, the line a decoded view's keys
// point into (the stored order, blank-separated), where each key lies
// in it, and which keys carry socket names.
var typedLayouts = func() (t [len(viewTypes)]struct {
	line       []byte
	key0, key1 [typedFields]int32
	names      uint8
	head       string              // how a line of the type starts, up to the machine number
	sep        [typedFields]string // " key=" of each key, as AppendLine writes it
}) {
	for typ := range t {
		order := viewTypes[typ].order
		t[typ].line = []byte(strings.Join(order, " "))
		t[typ].head = viewTypes[typ].name + " machine="
		at := 0
		for k, key := range order {
			t[typ].key0[k], t[typ].key1[k], t[typ].sep[k] = int32(at), int32(at+len(key)), " "+key+"="
			at += len(key) + 1
			if strings.HasSuffix(key, "Name") {
				t[typ].names |= 1 << k
			}
		}
	}
	return t
}()

// ParseStandard fills the view from line and reports whether the line
// is standard, the condition for AppendTyped. It never falls back to
// ParseOne: a line it refuses may still be one Parse reads.
func (v *View) ParseStandard(line []byte) bool {
	if !v.parseCanonical(line) {
		return false
	}
	names := typedLayouts[v.Type].names
	for i := 0; i < v.n; i++ {
		if f := &v.fields[i]; f.ord < 0 || f.isName != (names>>f.ord&1 != 0) {
			return false
		}
	}
	// The check that makes the typed form exact by construction: header
	// keys out of place, a name spelled another way or cut to fit its
	// sixteen bytes, all end here.
	var buf [256]byte
	return bytes.Equal(v.AppendLine(buf[:0], nil), line)
}

// AppendLine appends the record as a log line: what Event.AppendFormat
// writes for the view's Event with the keys in drop taken out of it. A
// record whose keys are all of its type's stored order — every typed one
// and standard line — is written from the view, for a standard line and
// nothing dropped the line itself; any other goes through its Event.
func (v *View) AppendLine(dst []byte, drop map[string]bool) []byte {
	if v.slot != nil && drop == nil {
		return v.slot.AppendLine(dst, v.Type, v.Machine, v.CPUTime)
	}
	if v.fill(); v.n < 0 || slices.ContainsFunc(v.fields[:v.n], func(f viewField) bool { return f.ord < 0 }) {
		ev := v.Event()
		return ev.appendFormat(dst, drop)
	}
	lay, order := &typedLayouts[v.Type], viewTypes[v.Type].order
	dst = appendHead(dst, v.Type, v.Machine, v.CPUTime, v.ProcTime)
	for i := 0; i < v.n; i++ {
		if f := &v.fields[i]; !drop[order[f.ord]] {
			dst = append(dst, lay.sep[f.ord]...)
			if f.isName {
				dst = f.name.AppendText(dst)
			} else {
				dst = appendDecimal(dst, f.val)
			}
		}
	}
	return dst
}

// appendHead appends how a line of event type typ starts: its name and
// header fields.
func appendHead(dst []byte, typ meter.Type, machine int, cpuTime, procTime int64) []byte {
	dst = appendDecimal(append(dst, typedLayouts[typ].head...), uint64(machine))
	dst = appendDecimal(append(dst, " cpuTime="...), uint64(cpuTime))
	return appendDecimal(append(dst, " procTime="...), uint64(procTime))
}

// appendDecimal is strconv.AppendUint in base ten, without its setup: a
// regenerated line is a dozen numbers, most of them short.
func appendDecimal(dst []byte, u uint64) []byte {
	var a [20]byte
	i := len(a)
	for ; u >= 10; u /= 10 {
		i--
		a[i] = byte('0' + u%10)
	}
	i--
	a[i] = byte('0' + u)
	return append(dst, a[i:]...)
}

// AppendTyped appends the typed form of the view's record — a line
// ParseStandard accepted, or the Slots DecodeTyped or PointAt pointed the
// view at, read where they are — and moves st on to it.
func (v *View) AppendTyped(dst []byte, st *TypedState) []byte {
	s := v.slot
	if s == nil {
		parsed := Slots{procTime: v.ProcTime}
		for i := 0; i < v.n; i++ {
			f := &v.fields[i]
			parsed.present |= 1 << f.ord
			parsed.val[f.ord], parsed.name[f.ord] = f.val, f.name
		}
		s = &parsed
	}
	last, names := &st[v.Type], typedLayouts[v.Type].names
	flags := len(dst)
	dst = append(dst, typedShape)
	if s.present != last.present {
		dst[flags] |= typedPresence
		dst = append(dst, s.present)
		last.present = s.present
	}
	changed := len(dst)
	dst = append(dst, 0)
	if s.procTime != last.procTime {
		dst[flags] |= typedProcTime
		dst = binary.AppendUvarint(dst, obs.Zigzag(s.procTime-last.procTime))
		last.procTime = s.procTime
	}
	for p := s.present; p != 0; p &= p - 1 {
		k := bits.TrailingZeros8(p)
		switch isName := names>>k&1 != 0; {
		case isName && s.name[k] != last.name[k]:
			dst = append(dst, s.name[k][:]...)
			last.name[k] = s.name[k]
		case !isName && s.val[k] != last.val[k]:
			dst = binary.AppendUvarint(dst, obs.Zigzag(int64(s.val[k]-last.val[k])))
			last.val[k] = s.val[k]
		default:
			continue
		}
		dst[changed] |= 1 << k
	}
	return dst
}

// DecodeTyped reads the typed record at c, whose Meta gave typ, machine
// and cpuTime, into st and points the view at it there: valid until the
// next DecodeTyped on st. Bytes that are not a whole, valid typed record
// fail c and leave the view as it was. No text is built, nothing parsed
// and no slot filled.
func (v *View) DecodeTyped(c *obs.Cursor, st *TypedState, typ meter.Type, machine int, cpuTime int64) {
	flags := c.U8()
	if typ < 1 || int(typ) >= len(viewTypes) || flags&typedShape == 0 || flags >= typedProcTime<<1 {
		c.Fail("typed record of type %d with flags %#x", typ, flags)
		return
	}
	s, lay := &st[typ], &typedLayouts[typ]
	if flags&typedPresence != 0 {
		s.present = c.U8()
	}
	changed := c.U8()
	if int(s.present)>>len(viewTypes[typ].order) != 0 || changed&^s.present != 0 {
		c.Fail("typed record fields %#x of %#x present", changed, s.present)
	}
	if flags&typedProcTime != 0 {
		if s.procTime += c.Zigzag(); s.procTime < 0 {
			c.Fail("typed record procTime below zero")
		}
	}
	for p := changed; p != 0; p &= p - 1 {
		k := bits.TrailingZeros8(p)
		if lay.names>>k&1 == 0 {
			s.val[k] += uint64(c.Zigzag())
		} else if copy(s.name[k][:], c.Take(meter.NameSize)); !standardName(s.name[k]) {
			c.Fail("typed record name no standard line spells")
		}
	}
	if c.Err() == nil {
		v.PointAt(s, typ, machine, cpuTime)
	}
}

// PointAt points the view at s, a record of event type typ whose Meta
// gave machine and cpuTime, as DecodeTyped points it at its state: the
// view reads s, never writes it, and is valid while s is unchanged. s
// holds only keys of typ's stored order, and names SetName accepted.
func (v *View) PointAt(s *Slots, typ meter.Type, machine int, cpuTime int64) {
	v.Type, v.Machine, v.CPUTime, v.ProcTime = typ, machine, cpuTime, s.procTime
	v.line, v.n, v.slot = typedLayouts[typ].line, 0, s
}

// Field answers key k of typ's stored order, -1 for none, as View.Field
// does: a number, an Internet name's host, no value for another name.
func (s *Slots) Field(typ meter.Type, k int) (uint64, bool) {
	switch {
	case k < 0 || s.present>>k&1 == 0:
		return 0, false
	case typedLayouts[typ].names>>k&1 == 0:
		return s.val[k], true
	case s.name[k].Family() == meter.AFInet:
		host, _ := s.name[k].Inet()
		return uint64(host), true
	}
	return 0, false
}

// fill puts the record DecodeTyped read into the view's slots, as the
// parse of its line would have, once: what a line, its
// typed form and its Event are built from.
func (v *View) fill() {
	s, lay := v.slot, &typedLayouts[v.Type]
	if s == nil {
		return
	}
	v.slot, v.n = nil, 0
	for p := s.present; p != 0; p &= p - 1 {
		k := bits.TrailingZeros8(p)
		f := &v.fields[v.n]
		v.n++
		f.key0, f.key1, f.ord, f.isName, f.name = lay.key0[k], lay.key1[k], int8(k), lay.names>>k&1 != 0, s.name[k]
		f.val, f.hasVal = s.Field(v.Type, k)
	}
}

// standardName reports whether a standard line can spell the name, so
// that what AppendText writes for it parses back to all sixteen bytes:
// unset, Internet with nothing past the host, or a UNIX-domain or
// socketpair path of printable bytes, NUL-padded.
func standardName(n meter.Name) bool {
	switch n.Family() {
	case meter.AFUnspec:
		return n.IsZero()
	case meter.AFInet:
		return [8]byte(n[8:]) == [8]byte{}
	case meter.AFUnix, meter.AFPair:
		path := bytes.TrimRight(n[2:], "\x00")
		return !bytes.ContainsFunc(path, func(r rune) bool { return r <= ' ' || r >= 0x7f })
	}
	return false
}
