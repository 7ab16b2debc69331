// Package daemon implements the meterdaemon and the controller↔daemon
// communication protocol of the paper (section 3.5).
//
// A meterdaemon runs on each machine that supports the measurement
// system; its sole purpose is to carry out control functions for the
// controller: creating processes (suspended, with their metering and
// standard I/O wired up), setting meter flags, starting, stopping and
// killing processes, acquiring already-running processes for metering,
// and reporting state changes back to the controller. Exchanges are
// structured as remote procedure calls over a temporary stream
// connection per request (section 3.5.1), whose messages are the
// WireMsg of this file. Every connection frames them (frame.go): an
// Exchange is one framed request on its own connection, and a Session
// carries many over one supervised connection per machine, with
// heartbeats and reconnect (session.go, docs/controlplane.md).
package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"dpm/internal/obs"
)

// MsgType identifies a controller/daemon message. The numbering is
// anchored by Figure 3.6, which shows type 11 for the create request
// and type 18 for the create reply; the other requests and replies
// fill the ranges around those two.
type MsgType uint32

// Protocol message types.
const (
	TCreateReq   MsgType = 11
	TSetFlagsReq MsgType = 12
	TStartReq    MsgType = 13
	TStopReq     MsgType = 14
	TKillReq     MsgType = 15
	TAcquireReq  MsgType = 16
	TGetFileReq  MsgType = 17
	TCreateRep   MsgType = 18
	TSetFlagsRep MsgType = 19
	TStartRep    MsgType = 20
	TStopRep     MsgType = 21
	TKillRep     MsgType = 22
	TAcquireRep  MsgType = 23
	TGetFileRep  MsgType = 24
	// TStateChange is the one daemon-initiated message: sent to the
	// controller's notification socket when a child process changes
	// state (section 3.5.1).
	TStateChange MsgType = 25
	// TIOData forwards a process's standard output to its controller
	// through the daemon gateway (section 3.5.2).
	TIOData MsgType = 26
	// TReleaseReq/TReleaseRep take down a process's meter connection:
	// "When an acquired process is removed, the control program
	// insures that the filter connection of that process is taken down
	// ... but the process continues to execute" (section 4.3).
	TReleaseReq MsgType = 27
	TReleaseRep MsgType = 28
	// TListReq/TListRep enumerate a machine's processes — an extension
	// beyond the paper's protocol, needed so a user can discover the
	// process identifier the acquire command requires.
	TListReq MsgType = 29
	TListRep MsgType = 30
	// TStdinReq/TStdinRep carry user input to a process's standard
	// input — the reverse of the output path: "The reverse path is
	// traversed when sending standard input from the user to the
	// process" (section 3.5.2).
	TStdinReq MsgType = 31
	TStdinRep MsgType = 32
	// TQueryReq/TQueryRep run a selection-rule query against an event
	// store on the daemon's machine. The query executes where the data
	// lives; only the matching records and the scan statistics travel
	// back — the opposite of getfile's ship-the-whole-log discipline.
	TQueryReq MsgType = 33
	TQueryRep MsgType = 34
	// TStatsReq/TStatsRep fetch the machine's metrics registry — the
	// monitor monitoring itself. The reply's Data carries a versioned
	// binary obs.Snapshot (merge-able histograms), so the controller can
	// aggregate the cluster's stats without the daemon knowing which
	// metrics exist.
	TStatsReq MsgType = 35
	TStatsRep MsgType = 36
	// TAggReq/TAggRep run an aggregate query (group-by, windows, top-k)
	// against an event store on the daemon's machine — the aggregation
	// push-down path. The daemon folds matching records into one bounded
	// partial aggregate; the reply's Data carries the agg binary partial
	// (docs/query.md), kilobytes where TQueryRep would ship every record.
	// Partials merge associatively, so the controller folds per-machine
	// replies in arrival order.
	TAggReq MsgType = 37
	TAggRep MsgType = 38
)

var typeNames = map[MsgType]string{
	TCreateReq: "create request", TCreateRep: "create reply",
	TSetFlagsReq: "setflags request", TSetFlagsRep: "setflags reply",
	TStartReq: "start request", TStartRep: "start reply",
	TStopReq: "stop request", TStopRep: "stop reply",
	TKillReq: "kill request", TKillRep: "kill reply",
	TAcquireReq: "acquire request", TAcquireRep: "acquire reply",
	TGetFileReq: "getfile request", TGetFileRep: "getfile reply",
	TStateChange: "state change", TIOData: "io data",
	TReleaseReq: "release request", TReleaseRep: "release reply",
	TListReq: "list request", TListRep: "list reply",
	TStdinReq: "stdin request", TStdinRep: "stdin reply",
	TQueryReq: "query request", TQueryRep: "query reply",
	TStatsReq: "stats request", TStatsRep: "stats reply",
	TAggReq: "agg request", TAggRep: "agg reply",
}

func (t MsgType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", uint32(t))
}

// WireMsg is one protocol message: a type and a variable-format body,
// carried as a list of fields (Figure 3.6: "The remainder of the
// message, the body, is variable format and depends on the message
// type").
type WireMsg struct {
	Type   MsgType
	Fields []string
}

// ErrWireCorrupt is a message or frame no writer produces.
var ErrWireCorrupt = errors.New("daemon: corrupt wire message")

// maxWireSize bounds one message (a getlog reply carries a whole trace
// file).
const maxWireSize = 16 << 20

// Encode serializes the message: total size, type, field count, then
// length-prefixed fields. A frame carries it as its payload.
func (w *WireMsg) Encode() []byte {
	return w.appendTo(make([]byte, 0, w.size()))
}

// size is the encoded length of the message.
func (w *WireMsg) size() int {
	size := 12
	for _, f := range w.Fields {
		size += 4 + len(f)
	}
	return size
}

// appendTo appends the encoded message to b.
func (w *WireMsg) appendTo(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(w.size()))
	b = le.AppendUint32(b, uint32(w.Type))
	b = le.AppendUint32(b, uint32(len(w.Fields)))
	for _, f := range w.Fields {
		b = le.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return b
}

// DecodeWire decodes one whole message: payload must be exactly its
// bytes, as a frame delivers them. The message keeps none of payload:
// its fields are substrings of one copy of their bytes.
func DecodeWire(payload []byte) (*WireMsg, error) { return decodeWire(payload, false) }

// decodeWire is DecodeWire, and with inPlace the fields are strings
// over payload itself, copied nowhere: payload must then not change
// while any of them is in use (a lent reply frame, Reply.Release).
func decodeWire(payload []byte, inPlace bool) (*WireMsg, error) {
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
	fields, n := c, 0 // n: the bytes of every field
	for range w.Fields {
		n += len(c.Take(int(c.U32())))
	}
	if c.Err() == nil && c.Remaining() > 0 {
		c.Fail("%d trailing bytes", c.Remaining())
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	// Grown once, the builder's strings all share its one array.
	var b strings.Builder
	if !inPlace {
		b.Grow(n)
	}
	for i := range w.Fields {
		f := fields.Take(int(fields.U32()))
		if inPlace {
			w.Fields[i] = unsafe.String(unsafe.SliceData(f), len(f))
			continue
		}
		at := b.Len()
		b.Write(f)
		w.Fields[i] = b.String()[at:]
	}
	return w, nil
}

// field accessors with bounds checking.

func (w *WireMsg) str(i int) string {
	if i < len(w.Fields) {
		return w.Fields[i]
	}
	return ""
}

func (w *WireMsg) num(i int) int {
	v, _ := strconv.Atoi(w.str(i))
	return v
}

// CreateReq mirrors Figure 3.6's create request body: filename,
// parameter count + list, filter port, filter host, meter flags,
// control port, control host — plus the requesting uid and an optional
// stdin file (section 3.5.2's input redirection).
type CreateReq struct {
	Filename    string
	Params      []string
	FilterPort  uint16
	FilterHost  string
	MeterFlags  uint32
	ControlPort uint16
	ControlHost string
	UID         int
	StdinFile   string
	// Token is an idempotency key: a daemon that has already executed a
	// create with this token returns the original reply instead of
	// creating a second process. Controllers set it so a create retried
	// after a lost reply cannot double-create. It rides as a trailing
	// field, which old parsers ignore and old encoders omit.
	Token string
}

// Wire encodes the request.
func (r *CreateReq) Wire() *WireMsg {
	fields := []string{
		r.Filename,
		strconv.Itoa(len(r.Params)),
	}
	fields = append(fields, r.Params...)
	fields = append(fields,
		strconv.Itoa(int(r.FilterPort)),
		r.FilterHost,
		strconv.FormatUint(uint64(r.MeterFlags), 10),
		strconv.Itoa(int(r.ControlPort)),
		r.ControlHost,
		strconv.Itoa(r.UID),
		r.StdinFile,
		r.Token,
	)
	return &WireMsg{Type: TCreateReq, Fields: fields}
}

// ParseCreateReq decodes a create request body.
func ParseCreateReq(w *WireMsg) (*CreateReq, error) {
	if w.Type != TCreateReq {
		return nil, fmt.Errorf("%w: not a create request", ErrWireCorrupt)
	}
	n := w.num(1)
	if n < 0 || 2+n+7 > len(w.Fields) {
		return nil, fmt.Errorf("%w: bad parameter count", ErrWireCorrupt)
	}
	r := &CreateReq{Filename: w.str(0)}
	r.Params = append(r.Params, w.Fields[2:2+n]...)
	base := 2 + n
	r.FilterPort = uint16(w.num(base))
	r.FilterHost = w.str(base + 1)
	flags, _ := strconv.ParseUint(w.str(base+2), 10, 32)
	r.MeterFlags = uint32(flags)
	r.ControlPort = uint16(w.num(base + 3))
	r.ControlHost = w.str(base + 4)
	r.UID = w.num(base + 5)
	r.StdinFile = w.str(base + 6)
	r.Token = w.str(base + 7)
	return r, nil
}

// Reply is the common reply shape: Figure 3.6's create reply carries
// pid and status; the other replies carry a status and, for getfile,
// the file contents.
type Reply struct {
	Type   MsgType
	PID    int
	Status string // "ok" or an error description
	Data   string // getfile contents
	// Aux carries reply-type-specific extra data as a trailing wire
	// field old parsers ignore. An incremental getfile reply uses it
	// for the CRC of the file prefix the requested offset skipped, so
	// the requester can detect an in-place rewrite.
	Aux string

	// appendData, when set, writes Data in Data's place straight into
	// the reply's frame (appendReply), about dataSize bytes of it: a
	// query's lines and a stats snapshot are not built as a string
	// first.
	appendData func([]byte) []byte
	dataSize   int

	// lent is the frame a large reply's fields are read in place from,
	// lent by the session until Release gives it back.
	lent []byte
}

// OK reports whether the reply indicates success.
func (r *Reply) OK() bool { return r.Status == "ok" }

// Wire encodes the reply.
func (r *Reply) Wire() *WireMsg {
	return &WireMsg{Type: r.Type, Fields: []string{strconv.Itoa(r.PID), r.Status, r.Data, r.Aux}}
}

// ParseReply decodes any reply-shaped message.
func ParseReply(w *WireMsg) *Reply {
	return &Reply{Type: w.Type, PID: w.num(0), Status: w.str(1), Data: w.str(2), Aux: w.str(3)}
}

// ProcReq is the common request shape for setflags, start, stop, kill,
// acquire, and getfile: a target (pid or path), the requesting uid,
// and for setflags/acquire the flags and filter coordinates.
type ProcReq struct {
	Type       MsgType
	PID        int
	UID        int
	Flags      uint32
	FilterPort uint16
	FilterHost string
	Path       string // getfile
	// Offset is the byte offset a getfile request resumes from, so
	// repeated retrievals of a growing log transfer only the new bytes.
	// It rides as a trailing field old parsers ignore (and old encoders
	// omit, which reads as zero: a full transfer).
	Offset int
}

// Wire encodes the request.
func (r *ProcReq) Wire() *WireMsg {
	return &WireMsg{Type: r.Type, Fields: []string{
		strconv.Itoa(r.PID),
		strconv.Itoa(r.UID),
		strconv.FormatUint(uint64(r.Flags), 10),
		strconv.Itoa(int(r.FilterPort)),
		r.FilterHost,
		r.Path,
		strconv.Itoa(r.Offset),
	}}
}

// ParseProcReq decodes a process-targeted request.
func ParseProcReq(w *WireMsg) *ProcReq {
	flags, _ := strconv.ParseUint(w.str(2), 10, 32)
	return &ProcReq{
		Type:       w.Type,
		PID:        w.num(0),
		UID:        w.num(1),
		Flags:      uint32(flags),
		FilterPort: uint16(w.num(3)),
		FilterHost: w.str(4),
		Path:       w.str(5),
		Offset:     w.num(6),
	}
}

// QueryReq asks a daemon to run a selection-rule query against an
// event store on its machine. Rules use the Figure 3.3–3.4 templates
// syntax, one rule per line. The reply's Data carries one statistics
// line ("segments=... scanned=... pruned=... records=... matched=...")
// followed by the matching records in standard log-line format.
type QueryReq struct {
	Dir     string // store directory on the daemon's machine
	Rules   string // selection rules; empty selects everything
	UID     int
	NoPrune bool // diagnostic: scan every segment
}

// Wire encodes the request.
func (r *QueryReq) Wire() *WireMsg {
	noPrune := "0"
	if r.NoPrune {
		noPrune = "1"
	}
	return &WireMsg{Type: TQueryReq, Fields: []string{
		r.Dir, r.Rules, strconv.Itoa(r.UID), noPrune,
	}}
}

// ParseQueryReq decodes a query request body. Fields beyond the ones
// named here are ignored, so a request from a peer of another version
// that sends more still parses.
func ParseQueryReq(w *WireMsg) (*QueryReq, error) {
	if w.Type != TQueryReq {
		return nil, fmt.Errorf("%w: not a query request", ErrWireCorrupt)
	}
	return &QueryReq{
		Dir:     w.str(0),
		Rules:   w.str(1),
		UID:     w.num(2),
		NoPrune: w.str(3) == "1",
	}, nil
}

// AggReq asks a daemon to run an aggregate query against an event
// store on its machine. Rules use the Figure 3.3–3.4 templates syntax;
// Spec is one aggregate line in the extended syntax ("agg ..." or
// "top ..."). The reply's Data carries the binary partial aggregate
// and its Aux the scan-statistics line.
type AggReq struct {
	Dir     string // store directory on the daemon's machine
	Rules   string // selection rules; empty selects everything
	Spec    string // aggregate specification line
	UID     int
	NoPrune bool // diagnostic: scan every segment
}

// Wire encodes the request.
func (r *AggReq) Wire() *WireMsg {
	noPrune := "0"
	if r.NoPrune {
		noPrune = "1"
	}
	return &WireMsg{Type: TAggReq, Fields: []string{
		r.Dir, r.Rules, r.Spec, strconv.Itoa(r.UID), noPrune,
	}}
}

// ParseAggReq decodes an aggregate query request body, ignoring
// trailing fields as ParseQueryReq does.
func ParseAggReq(w *WireMsg) (*AggReq, error) {
	if w.Type != TAggReq {
		return nil, fmt.Errorf("%w: not an agg request", ErrWireCorrupt)
	}
	return &AggReq{
		Dir:     w.str(0),
		Rules:   w.str(1),
		Spec:    w.str(2),
		UID:     w.num(3),
		NoPrune: w.str(4) == "1",
	}, nil
}

// StatsReq asks a daemon for a snapshot of its machine's metrics
// registry. The reply's Data carries the obs binary snapshot format,
// which is itself versioned and trailing-tolerant, so the wire message
// needs no fields beyond the requester's uid.
type StatsReq struct {
	UID int
}

// Wire encodes the request.
func (r *StatsReq) Wire() *WireMsg {
	return &WireMsg{Type: TStatsReq, Fields: []string{strconv.Itoa(r.UID)}}
}

// ParseStatsReq decodes a stats request body. Extra trailing fields —
// what a future controller might append, in the QueryReq-field-5
// discipline — are ignored.
func ParseStatsReq(w *WireMsg) (*StatsReq, error) {
	if w.Type != TStatsReq {
		return nil, fmt.Errorf("%w: not a stats request", ErrWireCorrupt)
	}
	return &StatsReq{UID: w.num(0)}, nil
}

// StateChange is the daemon-initiated notification that a process has
// terminated (or otherwise changed state).
type StateChange struct {
	Machine string
	PID     int
	Reason  string
	Status  int
}

// Wire encodes the notification.
func (s *StateChange) Wire() *WireMsg {
	return &WireMsg{Type: TStateChange, Fields: []string{
		s.Machine, strconv.Itoa(s.PID), s.Reason, strconv.Itoa(s.Status),
	}}
}

// ParseStateChange decodes a state change notification.
func ParseStateChange(w *WireMsg) *StateChange {
	return &StateChange{Machine: w.str(0), PID: w.num(1), Reason: w.str(2), Status: w.num(3)}
}

// IOData is a chunk of a process's standard output forwarded to the
// controller.
type IOData struct {
	Machine string
	PID     int
	Data    string
}

// Wire encodes the chunk.
func (d *IOData) Wire() *WireMsg {
	return &WireMsg{Type: TIOData, Fields: []string{d.Machine, strconv.Itoa(d.PID), d.Data}}
}

// ParseIOData decodes a forwarded output chunk.
func ParseIOData(w *WireMsg) *IOData {
	return &IOData{Machine: w.str(0), PID: w.num(1), Data: w.str(2)}
}
