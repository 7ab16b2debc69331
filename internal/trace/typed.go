package trace

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"

	"dpm/internal/meter"
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

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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
	return bytes.Equal(v.AppendLine(buf[:0]), line)
}

// AppendLine appends the record as a log line: event name, header, then
// the body fields in the view's order, numbers in decimal and names as
// Name.AppendText writes them — for a standard line, the line itself.
func (v *View) AppendLine(dst []byte) []byte {
	if v.fill(); v.n < 0 {
		return v.parsed.AppendFormat(dst)
	}
	lay := &typedLayouts[v.Type]
	dst = appendDecimal(append(dst, lay.head...), uint64(v.Machine))
	dst = appendDecimal(append(dst, " cpuTime="...), uint64(v.CPUTime))
	dst = appendDecimal(append(dst, " procTime="...), uint64(v.ProcTime))
	for i := 0; i < v.n; i++ {
		f := &v.fields[i]
		if f.ord >= 0 {
			dst = append(dst, lay.sep[f.ord]...)
		} else {
			dst = append(append(append(dst, ' '), v.key(i)...), '=')
		}
		if f.isName {
			dst = f.name.AppendText(dst)
		} else {
			dst = appendDecimal(dst, f.val)
		}
	}
	return dst
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
		dst = binary.AppendUvarint(dst, zigzag(s.procTime-last.procTime))
		last.procTime = s.procTime
	}
	for p := s.present; p != 0; p &= p - 1 {
		k := bits.TrailingZeros8(p)
		switch isName := names>>k&1 != 0; {
		case isName && s.name[k] != last.name[k]:
			dst = append(dst, s.name[k][:]...)
			last.name[k] = s.name[k]
		case !isName && s.val[k] != last.val[k]:
			dst = binary.AppendUvarint(dst, zigzag(int64(s.val[k]-last.val[k])))
			last.val[k] = s.val[k]
		default:
			continue
		}
		dst[changed] |= 1 << k
	}
	return dst
}

// DecodeTyped reads the typed record at the head of raw, whose Meta gave
// typ, machine and cpuTime, into st and points the view at it there:
// valid until the next DecodeTyped on st. It returns the bytes the
// record took; false says raw does not start with a whole, valid typed
// record. No text is built, nothing parsed and no slot filled.
func (v *View) DecodeTyped(raw []byte, st *TypedState, typ meter.Type, machine int, cpuTime int64) (int, bool) {
	if typ < 1 || int(typ) >= len(viewTypes) || len(raw) < 2 || raw[0]&typedShape == 0 || raw[0] >= typedProcTime<<1 {
		return 0, false
	}
	s, lay := &st[typ], &typedLayouts[typ]
	off := 1
	if raw[0]&typedPresence != 0 {
		s.present, off = raw[1], 2
	}
	if off == len(raw) || int(s.present)>>len(viewTypes[typ].order) != 0 || raw[off]&^s.present != 0 {
		return 0, false
	}
	changed := raw[off]
	off++
	if raw[0]&typedProcTime != 0 {
		d, n := binary.Uvarint(raw[off:])
		s.procTime += unzigzag(d)
		if n <= 0 || s.procTime < 0 {
			return 0, false
		}
		off += n
	}
	for p := changed; p != 0; p &= p - 1 {
		k := bits.TrailingZeros8(p)
		if lay.names>>k&1 == 0 {
			d, n := binary.Uvarint(raw[off:])
			if n <= 0 {
				return 0, false
			}
			s.val[k] += uint64(unzigzag(d))
			off += n
			continue
		}
		if len(raw)-off < meter.NameSize {
			return 0, false
		}
		off += copy(s.name[k][:], raw[off:])
		if !standardName(s.name[k]) {
			return 0, false
		}
	}
	v.PointAt(s, typ, machine, cpuTime)
	return off, true
}

// PointAt points the view at s, a record of event type typ whose Meta
// gave machine and cpuTime, as DecodeTyped points it at its state: the
// view reads s, never writes it, and is valid while s is unchanged. s
// holds only keys of typ's stored order, and names SetName accepted.
func (v *View) PointAt(s *Slots, typ meter.Type, machine int, cpuTime int64) {
	v.Type, v.Machine, v.CPUTime, v.ProcTime = typ, machine, cpuTime, s.procTime
	v.line, v.n, v.slot = typedLayouts[typ].line, 0, s
}

// field answers field k of typ's stored order, -1 for none, as Field
// does: a number, an Internet name's host, no value for another name.
func (s *Slots) field(typ meter.Type, k int) (uint64, bool) {
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
// parse of its line would have, once: what a line, its length, its
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
		f.val, f.hasVal = s.field(v.Type, k)
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

// LineLen returns len(v.AppendLine(nil)) without building the line: the
// size a rewrite that moves a record as its view still accounts it at.
func (v *View) LineLen() int {
	var buf [64]byte // the longest name AppendText writes takes 35 bytes
	if v.fill(); v.n < 0 {
		return len(v.parsed.AppendFormat(buf[:0]))
	}
	lay := &typedLayouts[v.Type]
	n := len(lay.head) + len(" cpuTime=") + len(" procTime=") +
		decimalLen(uint64(v.Machine)) + decimalLen(uint64(v.CPUTime)) + decimalLen(uint64(v.ProcTime))
	for i := 0; i < v.n; i++ {
		f := &v.fields[i]
		if f.ord >= 0 {
			n += len(lay.sep[f.ord])
		} else {
			n += int(f.key1-f.key0) + 2
		}
		if f.isName {
			n += len(f.name.AppendText(buf[:0]))
		} else {
			n += decimalLen(f.val)
		}
	}
	return n
}

// decimalLen is len(appendDecimal(nil, u)).
func decimalLen(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}
