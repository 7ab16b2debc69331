package trace

import (
	"slices"

	"dpm/internal/meter"
)

// View is one stored record as the scan paths read it: the header its
// Meta gave and the typed Slots of its body (typed.go), read where they
// lie. The scans evaluate rules and read group keys on it, and write the
// line of each record that ships (AppendLine); no line is parsed. A View
// DecodeTyped read answers from the TypedState it was decoded against
// and is valid only until the next DecodeTyped on that state; one
// PointAt pointed at a Slots, while that is unchanged.
type View struct {
	Type     meter.Type
	Machine  int
	CPUTime  int64
	ProcTime int64

	slot *Slots
}

// viewType is an event type's name and its body keys in stored order,
// the places of Slots: its meter.Layout's name and field names.
type viewType struct {
	name  string
	order []string
}

// viewTypes holds each event type's viewType by type number, so that a
// record costs no hashing.
var viewTypes = func() (t [meter.EvTermProc + 1]viewType) {
	for _, l := range meter.Layouts() {
		t[l.Type].name = l.Name
		for _, f := range l.Fields {
			t[l.Type].order = append(t[l.Type].order, f.Name)
		}
	}
	return t
}()

// Field returns FieldOf the name, resolved for this one call.
func (v *View) Field(name string) (uint64, bool) {
	r := NewFieldRef(name)
	return v.FieldOf(&r)
}

// FieldRef is a field name resolved once, for a caller that asks every
// record for it: its place in the header or in each type's stored order.
type FieldRef struct {
	ord [len(viewTypes)]int8 // its place in each type's stored order, -1 for none; -2-h for header field h
}

// NewFieldRef resolves a field name.
func NewFieldRef(name string) FieldRef {
	var r FieldRef
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
	k := r.ord[v.Type]
	if k < -1 {
		return [...]uint64{uint64(v.Machine), uint64(v.CPUTime), uint64(v.ProcTime), uint64(v.Type)}[-2-k], true
	}
	return v.slot.Field(v.Type, int(k))
}

// NameOf returns the socket name of the name field r resolved. A header
// name is no name key of any stored order.
func (v *View) NameOf(r *FieldRef) (meter.Name, bool) {
	if k := r.ord[v.Type]; k >= 0 && v.slot.present&typedLayouts[v.Type].names>>k&1 != 0 {
		return v.slot.name[k], true
	}
	return meter.Name{}, false
}
