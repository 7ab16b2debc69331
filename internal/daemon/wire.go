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
// connection per request (section 3.5.1), whose messages are those of
// this file: each typed request, reply and notice writes its Figure 3.6
// body straight into the frame it travels in and is read straight out
// of one, and WireMsg is the same bytes as a generic field list. Every
// connection frames them (frame.go): an Exchange is one framed request
// on its own connection, and a Session carries many over one supervised
// connection per machine, with heartbeats and reconnect (session.go,
// docs/controlplane.md).
package daemon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
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
// type"). It is the generic form of every message; the typed requests,
// replies and notices below write and read the same bytes without it.
type WireMsg struct {
	Type   MsgType
	Fields []string
}

// Message is a control message that writes its own body into the frame
// it travels in: a WireMsg, or a typed message of this file.
type Message interface {
	appendWire(b []byte) []byte
}

// ErrWireCorrupt is a message or frame no writer produces.
var ErrWireCorrupt = errors.New("daemon: corrupt wire message")

// maxWireSize bounds one message (a getlog reply carries a whole trace
// file).
const maxWireSize = 16 << 20

func (w *WireMsg) appendWire(b []byte) []byte {
	m := beginWire(b, w.Type)
	for _, f := range w.Fields {
		m.str(f)
	}
	return m.end()
}

// DecodeWire decodes one whole message: payload must be exactly its
// bytes, as a frame delivers them. The message keeps none of payload:
// its fields are substrings of one copy of it.
func DecodeWire(payload []byte) (*WireMsg, error) {
	t, f, err := openWire(payload, true)
	if err != nil {
		return nil, err
	}
	w := &WireMsg{Type: t, Fields: make([]string, f.left)}
	for i := range w.Fields {
		w.Fields[i] = f.str()
	}
	return w, nil
}

// wireOf is m as a WireMsg, for the Wire methods.
func wireOf(m Message) *WireMsg {
	w, _ := DecodeWire(m.appendWire(nil))
	return w
}

// msgType is the type of the message m writes.
func msgType(m Message) MsgType {
	t, _, _ := openWire(m.appendWire(nil), false)
	return t
}

// wireWriter writes one message into b: beginWire appends its header,
// each field method appends a length-prefixed field, and end fills in
// the size and count words.
type wireWriter struct {
	b     []byte
	start int    // where the message begins in b
	n     uint32 // fields written
}

func beginWire(b []byte, t MsgType) wireWriter {
	le := binary.LittleEndian
	return wireWriter{b: le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0), uint32(t)), 0), start: len(b)}
}

// field appends the length word of a field whose bytes the caller
// appends to w.b next, and returns where they begin for done, which
// fills the word in.
func (w *wireWriter) field() int {
	w.b = append(w.b, 0, 0, 0, 0)
	w.n++
	return len(w.b)
}

func (w *wireWriter) done(at int) {
	binary.LittleEndian.PutUint32(w.b[at-4:], uint32(len(w.b)-at))
}

func (w *wireWriter) str(s string) {
	at := w.field()
	w.b = append(w.b, s...)
	w.done(at)
}

func (w *wireWriter) num(v int) {
	at := w.field()
	w.b = strconv.AppendInt(w.b, int64(v), 10)
	w.done(at)
}

func (w *wireWriter) end() []byte {
	binary.LittleEndian.PutUint32(w.b[w.start:], uint32(len(w.b)-w.start))
	binary.LittleEndian.PutUint32(w.b[w.start+8:], w.n)
	return w.b
}

// openWire checks that payload is one whole message — its size word, a
// field count its bytes can hold, every field inside them and nothing
// after the last — and returns its type and a reader at its first
// field, which copies the strings it reads when own is set.
func openWire(payload []byte, own bool) (MsgType, fieldReader, error) {
	c := obs.NewCursor(payload, ErrWireCorrupt)
	size, t, count := c.U32(), MsgType(c.U32()), c.U32()
	f := fieldReader{c: c, left: count, payload: payload, own: own}
	switch {
	case c.Err() != nil:
	case int64(size) != int64(len(payload)):
		c.Fail("size %d of a %d-byte payload", size, len(payload))
	case count > 1<<16 || int64(count) > int64(c.Remaining()/4):
		c.Fail("field count %d", count)
	}
	for i := uint32(0); i < count && c.Err() == nil; i++ {
		c.Take(int(c.U32()))
	}
	if c.Err() == nil && c.Remaining() > 0 {
		c.Fail("%d trailing bytes", c.Remaining())
	}
	return t, f, c.Err()
}

// fieldReader reads the fields of a message openWire checked, in order.
// A field past the last reads as empty, so a body a peer of another
// version sends shorter reads as zeros, and one it sends longer has the
// rest ignored.
type fieldReader struct {
	c       obs.Cursor
	left    uint32 // fields not yet read
	payload []byte
	// With own, str cuts its strings from keep, one copy of payload
	// from the first string that needs it, at from, to the end; without,
	// it reads them in place, and payload must not change while any is
	// in use.
	own  bool
	keep string
	from int
}

func (f *fieldReader) next() []byte {
	if f.left == 0 {
		return nil
	}
	f.left--
	return f.c.Take(int(f.c.U32()))
}

// num reads a decimal field as strconv.Atoi does: one that is no
// number reads as 0, one out of range as the nearest int. flags reads
// a meter flag set the same way, in 32 bits.
func (f *fieldReader) num() int {
	v, _ := strconv.Atoi(string(f.next()))
	return v
}

func (f *fieldReader) flags() uint32 {
	v, _ := strconv.ParseUint(string(f.next()), 10, 32)
	return uint32(v)
}

// str reads a string field. A reply's "ok", the one string most
// messages carry, is the constant.
func (f *fieldReader) str() string {
	b := f.next()
	switch {
	case len(b) == 0:
		return ""
	case string(b) == "ok":
		return "ok"
	case !f.own:
		return unsafe.String(&b[0], len(b))
	case f.keep == "":
		f.from = f.c.Off() - len(b)
		f.keep = string(f.payload[f.from:])
	}
	at := f.c.Off() - len(b) - f.from
	return f.keep[at : at+len(b)]
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

func (r *CreateReq) appendWire(b []byte) []byte {
	w := beginWire(b, TCreateReq)
	w.str(r.Filename)
	w.num(len(r.Params))
	for _, p := range r.Params {
		w.str(p)
	}
	w.num(int(r.FilterPort))
	w.str(r.FilterHost)
	w.num(int(r.MeterFlags))
	w.num(int(r.ControlPort))
	w.str(r.ControlHost)
	w.num(r.UID)
	w.str(r.StdinFile)
	w.str(r.Token)
	return w.end()
}

// readCreateReq reads a create request body.
func readCreateReq(f *fieldReader) (CreateReq, error) {
	r := CreateReq{Filename: f.str()}
	n := f.num()
	if n < 0 || n > int(f.left)-7 {
		return r, fmt.Errorf("%w: bad parameter count", ErrWireCorrupt)
	}
	if n > 0 {
		r.Params = make([]string, n)
	}
	for i := range r.Params {
		r.Params[i] = f.str()
	}
	r.FilterPort = uint16(f.num())
	r.FilterHost = f.str()
	r.MeterFlags = f.flags()
	r.ControlPort = uint16(f.num())
	r.ControlHost = f.str()
	r.UID = f.num()
	r.StdinFile = f.str()
	r.Token = f.str()
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
	// the reply's frame, about dataSize bytes of it, once: a query's
	// lines, an aggregate's partial and a stats snapshot are not built
	// as a string first.
	appendData func([]byte) []byte
	dataSize   int

	// lent is the frame a large reply's fields are read in place from,
	// lent by the session until Release gives it back. mem is set on a
	// reply a session delivered, which Release gives back to replyFree.
	lent []byte
	mem  *sessionMem
}

// OK reports whether the reply indicates success.
func (r *Reply) OK() bool { return r.Status == "ok" }

func (r *Reply) appendWire(b []byte) []byte {
	w := beginWire(b, r.Type)
	w.num(r.PID)
	w.str(r.Status)
	if r.appendData != nil {
		at := w.field()
		w.b = r.appendData(w.b)
		w.done(at)
	} else {
		w.str(r.Data)
	}
	w.str(r.Aux)
	return w.end()
}

// readReply reads any reply-shaped message out of payload into a new
// Reply (read).
func readReply(payload []byte, own bool) (*Reply, error) {
	r := new(Reply)
	if err := r.read(payload, own); err != nil {
		return nil, err
	}
	return r, nil
}

// read reads any reply-shaped message out of payload into r: with own,
// its strings are cut from one copy of payload, and without, read in
// place.
func (r *Reply) read(payload []byte, own bool) error {
	t, f, err := openWire(payload, own)
	if err != nil {
		return err
	}
	*r = Reply{Type: t, PID: f.num(), Status: f.str(), Data: f.str(), Aux: f.str()}
	return nil
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

// Wire returns the request as a WireMsg.
func (r *ProcReq) Wire() *WireMsg { return wireOf(r) }

func (r *ProcReq) appendWire(b []byte) []byte {
	w := beginWire(b, r.Type)
	w.num(r.PID)
	w.num(r.UID)
	w.num(int(r.Flags))
	w.num(int(r.FilterPort))
	w.str(r.FilterHost)
	w.str(r.Path)
	w.num(r.Offset)
	return w.end()
}

// readProcReq reads a process-targeted request of type t.
func readProcReq(t MsgType, f *fieldReader) ProcReq {
	return ProcReq{Type: t, PID: f.num(), UID: f.num(), Flags: f.flags(), FilterPort: uint16(f.num()),
		FilterHost: f.str(), Path: f.str(), Offset: f.num()}
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

// Wire returns the request as a WireMsg.
func (r *QueryReq) Wire() *WireMsg { return wireOf(r) }

func (r *QueryReq) appendWire(b []byte) []byte {
	w := beginWire(b, TQueryReq)
	w.str(r.Dir)
	w.str(r.Rules)
	w.num(r.UID)
	w.str(boolField[r.NoPrune])
	return w.end()
}

// readQueryReq reads a query request body.
func readQueryReq(f *fieldReader) QueryReq {
	return QueryReq{Dir: f.str(), Rules: f.str(), UID: f.num(), NoPrune: string(f.next()) == "1"}
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

// Wire returns the request as a WireMsg.
func (r *AggReq) Wire() *WireMsg { return wireOf(r) }

func (r *AggReq) appendWire(b []byte) []byte {
	w := beginWire(b, TAggReq)
	w.str(r.Dir)
	w.str(r.Rules)
	w.str(r.Spec)
	w.num(r.UID)
	w.str(boolField[r.NoPrune])
	return w.end()
}

// readAggReq reads an aggregate query request body.
func readAggReq(f *fieldReader) AggReq {
	return AggReq{Dir: f.str(), Rules: f.str(), Spec: f.str(), UID: f.num(), NoPrune: string(f.next()) == "1"}
}

// boolField is how a flag travels.
var boolField = map[bool]string{false: "0", true: "1"}

// StatsReq asks a daemon for a snapshot of its machine's metrics
// registry. The reply's Data carries the obs binary snapshot format,
// which is itself versioned and trailing-tolerant, so the wire message
// needs no fields beyond the requester's uid.
type StatsReq struct {
	UID int
}

// Wire returns the request as a WireMsg.
func (r *StatsReq) Wire() *WireMsg { return wireOf(r) }

func (r *StatsReq) appendWire(b []byte) []byte {
	w := beginWire(b, TStatsReq)
	w.num(r.UID)
	return w.end()
}

// StateChange is the daemon-initiated notification that a process has
// terminated (or otherwise changed state).
type StateChange struct {
	Machine string
	PID     int
	Reason  string
	Status  int
}

func (s *StateChange) appendWire(b []byte) []byte {
	w := beginWire(b, TStateChange)
	w.str(s.Machine)
	w.num(s.PID)
	w.str(s.Reason)
	w.num(s.Status)
	return w.end()
}

func readStateChange(f *fieldReader) StateChange {
	return StateChange{Machine: f.str(), PID: f.num(), Reason: f.str(), Status: f.num()}
}

// IOData is a chunk of a process's standard output forwarded to the
// controller.
type IOData struct {
	Machine string
	PID     int
	Data    string
}

func (d *IOData) appendWire(b []byte) []byte {
	w := beginWire(b, TIOData)
	w.str(d.Machine)
	w.num(d.PID)
	w.str(d.Data)
	return w.end()
}

func readIOData(f *fieldReader) IOData {
	return IOData{Machine: f.str(), PID: f.num(), Data: f.str()}
}
