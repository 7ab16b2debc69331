package daemon

import (
	"fmt"
	"strconv"

	"dpm/internal/obs"
)

// The reference readers: the message decoder and per-type parsers the
// typed codec replaced, which decoded a payload into a WireMsg (a field
// list of strings) and each body out of that. FuzzDecodeWire holds the
// typed readers to them field for field. One change from the code they
// were: refCreateReq compares the parameter count with the fields left
// rather than adding it to them, since a count near the top of int
// wrapped the sum past the check and panicked on the slice after it.

// refDecode decodes one whole payload into its type and fields.
func refDecode(payload []byte) (*WireMsg, error) {
	c := obs.NewCursor(payload, ErrWireCorrupt)
	size := c.U32()
	w := &WireMsg{Type: MsgType(c.U32())}
	count := c.U32()
	switch {
	case c.Err() != nil:
	case int64(size) != int64(len(payload)):
		c.Fail("size %d of a %d-byte payload", size, len(payload))
	case count > 1<<16 || int64(count) > int64(c.Remaining()/4):
		c.Fail("field count %d", count)
	case count > 0:
		w.Fields = make([]string, count)
	}
	for i := range w.Fields {
		w.Fields[i] = string(c.Take(int(c.U32())))
	}
	if c.Err() == nil && c.Remaining() > 0 {
		c.Fail("%d trailing bytes", c.Remaining())
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

func refStr(w *WireMsg, i int) string {
	if i < len(w.Fields) {
		return w.Fields[i]
	}
	return ""
}

func refNum(w *WireMsg, i int) int {
	v, _ := strconv.Atoi(refStr(w, i))
	return v
}

func refFlags(w *WireMsg, i int) uint32 {
	v, _ := strconv.ParseUint(refStr(w, i), 10, 32)
	return uint32(v)
}

func refCreateReq(w *WireMsg) (*CreateReq, error) {
	if w.Type != TCreateReq {
		return nil, fmt.Errorf("%w: not a create request", ErrWireCorrupt)
	}
	n := refNum(w, 1)
	if n < 0 || n > len(w.Fields)-9 {
		return nil, fmt.Errorf("%w: bad parameter count", ErrWireCorrupt)
	}
	r := &CreateReq{Filename: refStr(w, 0)}
	r.Params = append(r.Params, w.Fields[2:2+n]...)
	base := 2 + n
	r.FilterPort = uint16(refNum(w, base))
	r.FilterHost = refStr(w, base+1)
	r.MeterFlags = refFlags(w, base+2)
	r.ControlPort = uint16(refNum(w, base+3))
	r.ControlHost = refStr(w, base+4)
	r.UID = refNum(w, base+5)
	r.StdinFile = refStr(w, base+6)
	r.Token = refStr(w, base+7)
	return r, nil
}

func refReply(w *WireMsg) *Reply {
	return &Reply{Type: w.Type, PID: refNum(w, 0), Status: refStr(w, 1), Data: refStr(w, 2), Aux: refStr(w, 3)}
}

func refProcReq(w *WireMsg) *ProcReq {
	return &ProcReq{
		Type:       w.Type,
		PID:        refNum(w, 0),
		UID:        refNum(w, 1),
		Flags:      refFlags(w, 2),
		FilterPort: uint16(refNum(w, 3)),
		FilterHost: refStr(w, 4),
		Path:       refStr(w, 5),
		Offset:     refNum(w, 6),
	}
}

func refQueryReq(w *WireMsg) (*QueryReq, error) {
	if w.Type != TQueryReq {
		return nil, fmt.Errorf("%w: not a query request", ErrWireCorrupt)
	}
	return &QueryReq{Dir: refStr(w, 0), Rules: refStr(w, 1), UID: refNum(w, 2), NoPrune: refStr(w, 3) == "1"}, nil
}

func refAggReq(w *WireMsg) (*AggReq, error) {
	if w.Type != TAggReq {
		return nil, fmt.Errorf("%w: not an agg request", ErrWireCorrupt)
	}
	return &AggReq{Dir: refStr(w, 0), Rules: refStr(w, 1), Spec: refStr(w, 2), UID: refNum(w, 3), NoPrune: refStr(w, 4) == "1"}, nil
}

func refStateChange(w *WireMsg) *StateChange {
	return &StateChange{Machine: refStr(w, 0), PID: refNum(w, 1), Reason: refStr(w, 2), Status: refNum(w, 3)}
}

func refIOData(w *WireMsg) *IOData {
	return &IOData{Machine: refStr(w, 0), PID: refNum(w, 1), Data: refStr(w, 2)}
}

// Encode serializes the message: total size, type, field count, then
// length-prefixed fields. A frame carries it as its payload.
func (w *WireMsg) Encode() []byte { return w.appendWire(nil) }

// The Wire methods of the messages only tests write as field lists.

func (r *CreateReq) Wire() *WireMsg   { return wireOf(r) }
func (r *Reply) Wire() *WireMsg       { return wireOf(r) }
func (s *StateChange) Wire() *WireMsg { return wireOf(s) }
func (d *IOData) Wire() *WireMsg      { return wireOf(d) }
