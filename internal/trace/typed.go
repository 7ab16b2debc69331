package trace

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// The typed form of a record: how the store's segments hold every
// record (docs/formats.md, "v3 payload"), the body keys of its event
// type it carries, in stored order (a subset is what a '#' discard
// leaves), each a number or, under a key ending in "Name", a socket
// name. The log line is only its rendering (AppendLine). The typed form,
// after the record's Meta, which carries machine, cpuTime and type:
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
	typedShape    = 1 << iota // always set
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

// SetName sets key k of the stored order to a socket name as a line
// spells it and parses it back: an Internet name without the bytes past
// its host, a path cut at its first NUL. Any other name is kept whole.
func (s *Slots) SetName(k int, n meter.Name) {
	switch n.Family() {
	case meter.AFInet:
		n = meter.InetName(n.Inet())
	case meter.AFUnix, meter.AFPair:
		if i := bytes.IndexByte(n[2:], 0); i >= 0 {
			clear(n[2+i:])
		}
	}
	s.present, s.name[k] = s.present|1<<k, n
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
// Meta's machine and cpuTime as the header: what Event.AppendFormat
// writes for the Event ParseOne reads back from the line, when every
// name is one such a line spells.
func (s *Slots) AppendLine(dst []byte, typ meter.Type, machine int, cpuTime int64) []byte {
	return s.appendLine(dst, typ, machine, cpuTime, s.present)
}

// appendLine is AppendLine of the keys in present.
func (s *Slots) appendLine(dst []byte, typ meter.Type, machine int, cpuTime int64, present uint8) []byte {
	lay := &typedLayouts[typ]
	dst = appendHead(dst, typ, machine, cpuTime, s.procTime)
	for p := present; p != 0; p &= p - 1 {
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
// knows typ by the name event. Otherwise keys is nil: no record of that
// name and type can be kept.
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

// typedLayouts gives, per event type, which keys carry socket names and
// how AppendLine writes a line of the type.
var typedLayouts = func() (t [len(viewTypes)]struct {
	names uint8
	head  string              // how a line of the type starts, up to the machine number
	sep   [typedFields]string // " key=" of each key
}) {
	for typ := range t {
		t[typ].head = viewTypes[typ].name + " machine="
		for k, key := range viewTypes[typ].order {
			if t[typ].sep[k] = " " + key + "="; strings.HasSuffix(key, "Name") {
				t[typ].names |= 1 << k
			}
		}
	}
	return t
}()

// AppendLine appends the record as a log line with the keys in drop, a
// mask of the type's stored order, taken out: what a '#' discard leaves.
func (v *View) AppendLine(dst []byte, drop uint8) []byte {
	return v.slot.appendLine(dst, v.Type, v.Machine, v.CPUTime, v.slot.present&^drop)
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

// AppendTyped appends the typed form of the view's record — the Slots
// DecodeTyped or PointAt pointed the view at, read where they are, which
// must Fit its type (store.AppendBatch refuses those that do not) — and
// moves st on to it.
func (v *View) AppendTyped(dst []byte, st *TypedState) []byte {
	s := v.slot
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
// fail c and leave the view as it was. No text is built.
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
	if !s.Fits(typ) || changed&^s.present != 0 {
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
		} else {
			copy(s.name[k][:], c.Take(meter.NameSize))
		}
	}
	if c.Err() == nil {
		v.PointAt(s, typ, machine, cpuTime)
	}
}

// Fits reports whether s holds keys of typ's stored order only, as
// DecodeTyped demands of what it reads back; typ must be a known type.
func (s *Slots) Fits(typ meter.Type) bool { return int(s.present)>>len(viewTypes[typ].order) == 0 }

// PointAt points the view at s, a record of event type typ whose Meta
// gave machine and cpuTime, as DecodeTyped points it at its state: the
// view reads s, never writes it, and is valid while s is unchanged. s
// holds only keys of typ's stored order.
func (v *View) PointAt(s *Slots, typ meter.Type, machine int, cpuTime int64) {
	v.Type, v.Machine, v.CPUTime, v.ProcTime, v.slot = typ, machine, cpuTime, s.procTime, s
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
