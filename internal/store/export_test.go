package store

import (
	"dpm/internal/meter"
	"dpm/internal/trace"
)

// AppendLine appends one record given as its log line: AppendBatch of a
// batch of one, typed by lineRec.
func (s *Store) AppendLine(m Meta, line string) error {
	return s.AppendBatch([]BatchRec{lineRec(m, line)})
}

// lineRec types a record given as its log line, as the filter would have
// handed it over: each key of m's event type that trace.ParseOne reads on
// the line, with a value of the key's kind, goes into its Slots, and any
// other is not kept. The store gives back the line only when that is all
// of it, in stored order — what recLine writes.
func lineRec(m Meta, line string) BatchRec {
	ev, _ := trace.ParseOne([]byte(line))
	s := new(trace.Slots)
	s.Reset(ev.ProcTime)
	keys, names := trace.SlotKeys(meter.Type(m.Type), meter.Type(m.Type).String())
	for k, key := range keys {
		if n, ok := ev.Names[key]; ok && names>>k&1 != 0 {
			s.SetName(k, n)
		} else if v, ok := ev.Fields[key]; ok && names>>k&1 == 0 {
			s.SetVal(k, v)
		}
	}
	return BatchRec{Meta: m, Line: []byte(line), Slots: s}
}

// recLine is the line of a record of m, as the filter writes it: pid
// from m, then vals as the next keys of the type's stored order — an
// Internet name of that host where the key is a socket name.
func recLine(m Meta, vals ...uint64) string {
	var s trace.Slots
	s.Reset(0)
	keys, names := trace.SlotKeys(meter.Type(m.Type), meter.Type(m.Type).String())
	s.SetVal(0, uint64(m.PID))
	for k := 1; k < len(keys) && k <= len(vals); k++ {
		if names>>k&1 != 0 {
			s.SetName(k, meter.InetName(uint32(vals[k-1]), 80))
		} else {
			s.SetVal(k, vals[k-1])
		}
	}
	return string(s.AppendLine(nil, meter.Type(m.Type), int(m.Machine), int64(m.Time)))
}
