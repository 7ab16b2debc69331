package analysis

import (
	"cmp"
	"math"
	"slices"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// The matcher pairs sends with receives as records arrive, in the
// order they reached the filter. The live collector runs it on the
// record tap with a window and caps; MatchMessages and Connections run
// it over a finished trace with neither. Three mechanisms:
//
//   - Handshake pairing: a CONNECT and an ACCEPT pair when the connect
//     dialed the address the accept's listener is bound to and the
//     accept names the connector's socket as its peer. A counterpart
//     that only answers the address waits while its exact partner can
//     still arrive: until the window expires it live, or until the end
//     of the trace (Flush). A connection maps both endpoints — (machine,
//     pid, sock) triples — to a shared pair of byte cursors.
//   - Stream matching: the k-th byte sent on a connection is the k-th
//     byte received, so a receive matches every send whose byte span it
//     overlaps. The side ahead keeps its spans queued until the other
//     side's cursor passes them; a zero-length send spans nothing and
//     matches nothing. Traffic seen before its handshake waits in an
//     orphan queue and replays when the connection establishes.
//   - Datagram matching: a named send joins its (src,dst) machine pair's
//     FIFO, and a receive matches the oldest pending send that can carry
//     it (receives may truncate, never grow), or the reverse when the
//     send is recorded last. Flows keep their partners: once the
//     receives of one socket from one source name pair with the sends of
//     one socket to one destination name, each pairs only with the
//     other.
//
// Under MatchLimits every queue is bounded: an entry whose cpuTime
// falls more than Window behind the watermark ages out (Sweep), and a
// full queue evicts its oldest entry as aged. A live run thus reaches a
// steady footprint however long the stream runs.

// Match pairs one receive event with the send event (or one of the
// send events, for streams) that produced its data.
type Match struct {
	SendSeq int
	RecvSeq int
	Bytes   int
}

// MatchOptions configures message matching.
type MatchOptions struct {
	// HostToMachine maps network host addresses (as they appear in
	// socket names) to the machine ids of meter headers. When nil,
	// the identity map is used, which is correct for single-network
	// clusters whose machines were created in order.
	HostToMachine map[uint32]int
}

// UnknownMachine is the machine id of a peer the matcher cannot
// resolve: no name, no established connection.
const UnknownMachine = ^uint16(0)

// machineOf resolves a socket name to a machine id: an Internet host
// through HostToMachine, a UNIX-domain or socketpair name to the
// machine that recorded it.
func (o *MatchOptions) machineOf(n *meter.Name, local uint16) uint16 {
	switch n.Family() {
	case meter.AFInet:
		host, _ := n.Inet()
		if o != nil && o.HostToMachine != nil {
			if m, ok := o.HostToMachine[host]; ok {
				return uint16(m)
			}
		}
		if host >= uint32(UnknownMachine) {
			return UnknownMachine
		}
		return uint16(host)
	case meter.AFUnix, meter.AFPair:
		return local
	}
	return UnknownMachine
}

// Record is what the matcher, and the live collector's folds, read of
// one meter record.
type Record struct {
	Kind    uint8 // the meter.Type; 0 for a type beyond the standard range
	Machine uint16
	PID     uint32
	Sock    uint32
	Aux     uint32 // msgLength, newSock, newPid or status, by type
	CPU     int64
	Proc    int64
	Name1   meter.Name // destName, sourceName or sockName
	Name2   meter.Name // peerName
}

// recordOf reads the matcher's fields of a parsed event.
func recordOf(e *trace.Event) Record {
	r := Record{Machine: uint16(e.Machine), PID: uint32(e.PID()), Sock: e.Sock(), CPU: e.CPUTime, Proc: e.ProcTime}
	if e.Type < 256 {
		r.Kind = uint8(e.Type)
	}
	switch e.Type {
	case meter.EvSend:
		r.Aux, r.Name1 = uint32(e.MsgLength()), e.Name("destName")
	case meter.EvRecv:
		r.Aux, r.Name1 = uint32(e.MsgLength()), e.Name("sourceName")
	case meter.EvConnect, meter.EvAccept:
		r.Aux, r.Name1, r.Name2 = uint32(e.Fields["newSock"]), e.Name("sockName"), e.Name("peerName")
	}
	return r
}

// MatchLimits bound a matcher that runs for as long as a stream flows.
// The zero value bounds nothing: the matcher of a finished trace.
type MatchLimits struct {
	// Window ages out a pending entry whose cpuTime falls more than
	// Window behind the watermark Sweep is given.
	Window int64
	// MaxPending caps each queue: pending handshakes, a connection
	// direction's spans, the orphans, each datagram FIFO. A full queue
	// evicts its oldest entry as aged.
	MaxPending int
	// MaxConns caps the connections and the datagram flows held.
	MaxConns int
}

// MatchCounts are a matcher's running figures.
type MatchCounts struct {
	Conns  int64 // connections established
	Stream int64 // stream matches: send and receive spans that overlap
	Dgram  int64 // datagram matches
	// Aged counts the entries the window or a cap took from the queues:
	// those dropped unmatched, and each handshake that paired with a
	// compatible counterpart after its exact one could no longer come.
	Aged    int64
	Pending int64 // entries waiting for a counterpart
}

// endpoint identifies one socket of one process.
type endpoint struct {
	machine uint16
	pid     uint32
	sock    uint32
}

// span is one queued stream send or receive: its bytes [from, end) of
// the direction, when it was recorded, and its record.
type span struct {
	from, end int64
	t         int64
	seq       int
}

// connDir is one direction of a connection's byte stream. Its queue
// holds the spans of whichever side is ahead.
type connDir struct {
	sent  int64 // cumulative bytes sent
	recvd int64 // cumulative bytes received
	pend  fifo[span]
}

// conn joins two endpoints. Direction 0 carries a→b, direction 1 b→a.
type conn struct {
	a, b endpoint
	dirs [2]connDir
}

// half locates one endpoint's side of its connection.
type half struct {
	c    *conn
	side int // 0: this endpoint is a, 1: b
}

// pendHS is a connect or accept waiting for its counterpart.
type pendHS struct {
	ep       endpoint
	listen   uint32 // an accept's listening socket
	sockName meter.Name
	peerName meter.Name
	t        int64
	seq      int
}

// orphan is stream traffic on a not-yet-connected endpoint.
type orphan struct {
	ep     endpoint
	bytes  int64
	t      int64
	seq    int
	isSend bool
}

// dgroup is one side of a datagram flow: the sends of one socket to
// one destination name, or the receives of one socket from one source
// name. partner is the group it paired with first.
type dgroup struct{ partner *dgroup }

type groupKey struct {
	ep     endpoint
	name   meter.Name
	isSend bool
}

// flowMsg is one pending datagram.
type flowMsg struct {
	bytes int64
	t     int64
	seq   int
	g     *dgroup
}

// Matcher is the message matcher. It is not safe for concurrent use.
type Matcher struct {
	MatchCounts

	opts     *MatchOptions
	window   int64
	maxPend  int
	maxConns int
	// onMatch, when set, receives each match; keep collects the
	// connections. The run over a finished trace sets both.
	onMatch func(Match)
	keep    bool
	conns   []Connection
	connOf  []*conn

	pendConnects []pendHS
	pendAccepts  []pendHS
	endpoints    map[endpoint]half
	orphans      fifo[orphan]
	dgramSend    map[uint32]*fifo[flowMsg] // keyed by pairKey(src,dst)
	dgramRecv    map[uint32]*fifo[flowMsg]
	groups       map[groupKey]*dgroup

	// Hot-path caches: the last machine pair's datagram FIFOs and each
	// side's last flow group. Traffic is bursty, so these remove map
	// lookups from most named sends and receives. FIFOs drain in place
	// and stay valid forever; Retire, which deletes groups, clears the
	// group cache.
	lastFlowOK   bool
	lastFlowKey  uint32
	lastFlowSend *fifo[flowMsg]
	lastFlowRecv *fifo[flowMsg]
	lastGroupKey [2]groupKey
	lastGroup    [2]*dgroup

	// streamPend counts the queued spans, so sweeps skip the connection
	// walk when every stream is drained.
	streamPend int
	lastSweep  int64
}

// NewMatcher returns a matcher bounded by lim; opts maps hosts to
// machines (nil: identity).
func NewMatcher(lim MatchLimits, opts *MatchOptions) *Matcher {
	m := &Matcher{
		opts:      opts,
		window:    lim.Window,
		maxPend:   lim.MaxPending,
		maxConns:  lim.MaxConns,
		endpoints: make(map[endpoint]half),
		dgramSend: make(map[uint32]*fifo[flowMsg]),
		dgramRecv: make(map[uint32]*fifo[flowMsg]),
		groups:    make(map[groupKey]*dgroup),
	}
	if m.maxPend <= 0 {
		m.maxPend = math.MaxInt
	}
	if m.maxConns <= 0 {
		m.maxConns = math.MaxInt
	}
	return m
}

// Apply feeds one record to the matcher; seq names it in the matches.
// For a send it returns the destination machine, for a receive the
// source machine: from the name when the record carries one, from the
// connection once established, UnknownMachine otherwise.
func (m *Matcher) Apply(r *Record, seq int) uint16 {
	switch meter.Type(r.Kind) {
	case meter.EvSend, meter.EvRecv:
		isSend := r.Kind == uint8(meter.EvSend)
		if !r.Name1.IsZero() {
			peer := m.opts.machineOf(&r.Name1, r.Machine)
			m.dgram(r, seq, peer, isSend)
			return peer
		}
		ep := endpoint{r.Machine, r.PID, r.Sock}
		if h, ok := m.endpoints[ep]; ok {
			m.traffic(h, int64(r.Aux), r.CPU, seq, isSend)
			if h.side == 0 {
				return h.c.b.machine
			}
			return h.c.a.machine
		}
		if r.Aux > 0 {
			m.orphan(orphan{ep: ep, bytes: int64(r.Aux), t: r.CPU, seq: seq, isSend: isSend})
		}
	case meter.EvConnect:
		m.handshake(pendHS{ep: endpoint{r.Machine, r.PID, r.Sock}, sockName: r.Name1, peerName: r.Name2, t: r.CPU, seq: seq}, true)
	case meter.EvAccept:
		m.handshake(pendHS{ep: endpoint{r.Machine, r.PID, r.Aux}, listen: r.Sock, sockName: r.Name1, peerName: r.Name2, t: r.CPU, seq: seq}, false)
	}
	return UnknownMachine
}

// compatible reports whether connect c dialed the address accept a's
// listener is bound to; exact, whether a also names c as its peer.
func compatible(c, a *pendHS) bool { return c.peerName == a.sockName }
func exact(c, a *pendHS) bool      { return compatible(c, a) && a.peerName == c.sockName }

// orient puts a handshake and its counterpart in (connect, accept)
// order.
func orient(hs, o *pendHS, isConnect bool) (c, a *pendHS) {
	if isConnect {
		return hs, o
	}
	return o, hs
}

// queues returns a handshake's own queue and its counterparts'.
func (m *Matcher) queues(isConnect bool) (mine, theirs *[]pendHS) {
	if isConnect {
		return &m.pendConnects, &m.pendAccepts
	}
	return &m.pendAccepts, &m.pendConnects
}

// take removes the i'th waiting handshake of q and returns it.
func (m *Matcher) take(q *[]pendHS, i int) pendHS {
	hs := (*q)[i]
	if i == 0 {
		*q = (*q)[1:]
	} else {
		*q = slices.Delete(*q, i, i+1)
	}
	m.Pending--
	return hs
}

// pairWith establishes hs with the oldest counterpart in its
// counterparts' queue that rule accepts, and reports whether one did.
func (m *Matcher) pairWith(hs *pendHS, isConnect bool, rule func(c, a *pendHS) bool) bool {
	_, theirs := m.queues(isConnect)
	for i := range *theirs {
		if rule(orient(hs, &(*theirs)[i], isConnect)) {
			o := m.take(theirs, i)
			m.establish(orient(hs, &o, isConnect))
			return true
		}
	}
	return false
}

// handshake pairs a connect or an accept with the counterpart that
// matches it exactly, else queues it.
func (m *Matcher) handshake(hs pendHS, isConnect bool) {
	if m.pairWith(&hs, isConnect, exact) {
		return
	}
	mine, _ := m.queues(isConnect)
	if len(*mine) >= m.maxPend {
		old := m.take(mine, 0)
		m.expire(&old, isConnect)
	}
	*mine = append(*mine, hs)
	m.Pending++
}

// expire settles a handshake whose exact counterpart can no longer
// arrive: it pairs with the oldest compatible counterpart waiting, or
// is dropped. Either way it counts as aged.
func (m *Matcher) expire(hs *pendHS, isConnect bool) {
	m.Aged++
	m.pairWith(hs, isConnect, compatible)
}

// establish wires a client/server endpoint pair and replays any
// orphaned stream traffic that was waiting for it.
func (m *Matcher) establish(c, a *pendHS) {
	if len(m.endpoints)/2 >= m.maxConns {
		// Connection table full: drop the handshake as aged rather
		// than growing without bound.
		m.Aged++
		return
	}
	cn := &conn{a: c.ep, b: a.ep}
	m.endpoints[c.ep] = half{c: cn, side: 0}
	m.endpoints[a.ep] = half{c: cn, side: 1}
	m.Conns++
	if m.keep {
		m.conns = append(m.conns, Connection{
			Client:     ProcKey{int(c.ep.machine), int(c.ep.pid)},
			ClientSock: c.ep.sock,
			Server:     ProcKey{int(a.ep.machine), int(a.ep.pid)},
			ServerSock: a.ep.sock,
			ListenSock: a.listen,
			ServerName: a.sockName,
			ClientName: c.sockName,
			ConnectSeq: c.seq,
			AcceptSeq:  a.seq,
		})
		m.connOf = append(m.connOf, cn)
	}
	// Replay orphans for these endpoints in arrival order.
	m.orphans.extract(func(o *orphan) bool {
		if o.ep != c.ep && o.ep != a.ep {
			return false
		}
		m.Pending--
		m.traffic(m.endpoints[o.ep], o.bytes, o.t, o.seq, o.isSend)
		return true
	})
}

// orphan queues stream traffic on an unconnected endpoint.
func (m *Matcher) orphan(o orphan) {
	if m.orphans.len() >= m.maxPend {
		m.orphans.pop()
		m.Aged++
		m.Pending--
	}
	m.orphans.push(o)
	m.Pending++
}

// traffic advances one direction of a connection by n bytes sent, or
// received, at the endpoint h. A send feeds the direction the endpoint
// transmits on; a receive drains the opposite one.
func (m *Matcher) traffic(h half, n, t int64, seq int, isSend bool) {
	if n <= 0 {
		return
	}
	dir := h.side // side 0 sends on dir 0, side 1 on dir 1
	if !isSend {
		dir = 1 - h.side
	}
	d := &h.c.dirs[dir]
	mine, theirs := &d.recvd, &d.sent
	if isSend {
		mine, theirs = &d.sent, &d.recvd
	}
	from := *mine
	*mine += n
	// While the other side is ahead, its spans are queued: match each
	// one this span overlaps, and retire those it covers.
	for from < *theirs && d.pend.len() > 0 {
		s := d.pend.peek()
		if s.from >= *mine {
			break
		}
		if isSend {
			m.streamMatch(seq, s.seq, min(*mine, s.end)-max(from, s.from))
		} else {
			m.streamMatch(s.seq, seq, min(*mine, s.end)-max(from, s.from))
		}
		if s.end > *mine {
			break
		}
		d.pend.pop()
		m.Pending--
		m.streamPend--
	}
	if *mine > *theirs {
		if d.pend.len() >= m.maxPend {
			m.ageSpan(d)
		}
		d.pend.push(span{from: from, end: *mine, t: t, seq: seq})
		m.Pending++
		m.streamPend++
	}
}

func (m *Matcher) streamMatch(send, recv int, bytes int64) {
	m.Stream++
	if m.onMatch != nil {
		m.onMatch(Match{SendSeq: send, RecvSeq: recv, Bytes: int(bytes)})
	}
}

// ageSpan evicts a direction's oldest queued span as aged and moves the
// lagging cursor past it, so later spans stay matchable.
func (m *Matcher) ageSpan(d *connDir) {
	s := d.pend.pop()
	m.Aged++
	m.Pending--
	m.streamPend--
	if d.sent > d.recvd {
		d.recvd = max(d.recvd, s.end)
	} else {
		d.sent = max(d.sent, s.end)
	}
}

func pairKey(src, dst uint16) uint32 { return uint32(src)<<16 | uint32(dst) }

// group returns a datagram's flow group; nil once MaxConns groups are
// held, which leaves the datagram free of affinity.
func (m *Matcher) group(k groupKey) *dgroup {
	i := 0
	if k.isSend {
		i = 1
	}
	if g := m.lastGroup[i]; g != nil && m.lastGroupKey[i] == k {
		return g
	}
	g := m.groups[k]
	if g == nil {
		if len(m.groups) >= m.maxConns {
			return nil
		}
		g = &dgroup{}
		m.groups[k] = g
	}
	m.lastGroupKey[i], m.lastGroup[i] = k, g
	return g
}

// affine reports whether datagrams of groups g and o may pair: each is
// unbound, or bound to the other.
func affine(g, o *dgroup) bool {
	if g == nil || o == nil {
		return true
	}
	return g.partner == o || g.partner == nil && o.partner == nil
}

// dgram matches one named datagram leg on its machine pair's FIFOs: a
// receive pairs with the oldest pending send of its flow's partner that
// is at least as long, a send with the oldest pending receive it can
// carry; otherwise it waits.
func (m *Matcher) dgram(r *Record, seq int, peer uint16, isSend bool) {
	n := int64(r.Aux)
	key := pairKey(peer, r.Machine)
	if isSend {
		key = pairKey(r.Machine, peer)
	}
	g := m.group(groupKey{ep: endpoint{r.Machine, r.PID, r.Sock}, name: r.Name1, isSend: isSend})
	var sq, rq *fifo[flowMsg]
	if m.lastFlowOK && key == m.lastFlowKey {
		sq, rq = m.lastFlowSend, m.lastFlowRecv
	} else {
		sq, rq = m.dgramSend[key], m.dgramRecv[key]
		m.lastFlowOK, m.lastFlowKey = true, key
		m.lastFlowSend, m.lastFlowRecv = sq, rq
	}
	mine, theirs := sq, rq
	if !isSend {
		mine, theirs = rq, sq
	}
	if theirs != nil {
		// Bounded scan: reordering within the window means the match
		// may not be at the head, but an unbounded scan would make a
		// flood of incompatible lengths quadratic.
		if i := theirs.firstMatch(32, func(f *flowMsg) bool {
			if isSend && f.bytes > n || !isSend && f.bytes < n {
				return false
			}
			return affine(g, f.g)
		}); i >= 0 {
			f := *theirs.at(i)
			theirs.remove(i)
			if g != nil && f.g != nil && g.partner == nil {
				g.partner, f.g.partner = f.g, g
			}
			m.Dgram++
			m.Pending--
			if m.onMatch != nil {
				if isSend {
					m.onMatch(Match{SendSeq: seq, RecvSeq: f.seq, Bytes: int(f.bytes)})
				} else {
					m.onMatch(Match{SendSeq: f.seq, RecvSeq: seq, Bytes: int(n)})
				}
			}
			return
		}
	}
	if mine == nil {
		mine = &fifo[flowMsg]{}
		if isSend {
			m.dgramSend[key] = mine
			m.lastFlowSend = mine
		} else {
			m.dgramRecv[key] = mine
			m.lastFlowRecv = mine
		}
	}
	if mine.len() >= m.maxPend {
		mine.pop()
		m.Aged++
		m.Pending--
	}
	mine.push(flowMsg{bytes: n, t: r.CPU, seq: seq, g: g})
	m.Pending++
}

// Sweep ages out everything older than now minus the window. Queues
// are pushed in roughly cpuTime order, so each drains from its head.
// Sweeps are rate-limited to once per quarter window, so calling this
// per batch costs one comparison.
func (m *Matcher) Sweep(now int64) {
	horizon := now - m.window
	if m.window <= 0 || horizon <= 0 || horizon < m.lastSweep+m.window/4 {
		return
	}
	m.lastSweep = horizon
	for _, isConnect := range [2]bool{true, false} {
		for mine, _ := m.queues(isConnect); len(*mine) > 0 && (*mine)[0].t < horizon; {
			hs := m.take(mine, 0)
			m.expire(&hs, isConnect)
		}
	}
	for m.orphans.len() > 0 && m.orphans.peek().t < horizon {
		m.orphans.pop()
		m.Aged++
		m.Pending--
	}
	for _, qs := range [2]map[uint32]*fifo[flowMsg]{m.dgramSend, m.dgramRecv} {
		for _, q := range qs {
			for q.len() > 0 && q.peek().t < horizon {
				q.pop()
				m.Aged++
				m.Pending--
			}
		}
	}
	// Stream spans: only walk connections while spans are outstanding.
	if m.streamPend == 0 {
		return
	}
	seen := make(map[*conn]bool, len(m.endpoints)/2)
	for _, h := range m.endpoints {
		if seen[h.c] {
			continue
		}
		seen[h.c] = true
		for dir := range h.c.dirs {
			d := &h.c.dirs[dir]
			for d.pend.len() > 0 && d.pend.peek().t < horizon {
				m.ageSpan(d)
			}
		}
	}
}

// Retire forgets the ended processes gone reports: their endpoints and
// flow groups leave the tables, and the spans queued on their
// connections age out, as no counterpart of theirs can come.
func (m *Matcher) Retire(gone func(machine uint16, pid uint32) bool) {
	for ep, h := range m.endpoints {
		if gone(ep.machine, ep.pid) {
			delete(m.endpoints, ep)
			for dir := range h.c.dirs {
				for h.c.dirs[dir].pend.len() > 0 {
					m.ageSpan(&h.c.dirs[dir])
				}
			}
		}
	}
	for k := range m.groups {
		if gone(k.ep.machine, k.ep.pid) {
			delete(m.groups, k)
		}
	}
	m.lastGroup = [2]*dgroup{}
}

// Flush ends a finished trace: no exact counterpart can arrive any
// more, so each waiting accept, oldest first, pairs with the oldest
// compatible connect.
func (m *Matcher) Flush() {
	for len(m.pendAccepts) > 0 {
		hs := m.take(&m.pendAccepts, 0)
		m.expire(&hs, false)
	}
}

// matchTrace runs a matcher over a finished trace, in record order,
// with no window and no caps; onMatch receives each match.
func matchTrace(events []trace.Event, opts *MatchOptions, onMatch func(Match)) *Matcher {
	m := NewMatcher(MatchLimits{}, opts)
	m.onMatch, m.keep = onMatch, true
	for i := range events {
		r := recordOf(&events[i])
		m.Apply(&r, events[i].Seq)
	}
	return m
}

// Matching is what the matcher finds in a finished trace: the messages
// it pairs, in receive order, and the connections whose handshakes it
// pairs, each with the bytes sent and received on both directions.
type Matching struct {
	Matches []Match
	Conns   []Connection
}

// MatchTrace runs the live matcher once over every record of a finished
// trace, then flushes it. Stream traffic matches by byte position along
// each reconstructed connection — exact, because streams are reliable
// and ordered. Datagrams match by machine pair, length and flow in FIFO
// order; loss and reordering make this a best effort, as it was for the
// paper's analyses. No connection depends on opts.
func MatchTrace(events []trace.Event, opts *MatchOptions) *Matching {
	out := new(Matching)
	m := matchTrace(events, opts, func(x Match) { out.Matches = append(out.Matches, x) })
	m.Flush()
	slices.SortFunc(out.Matches, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.RecvSeq, b.RecvSeq), cmp.Compare(a.SendSeq, b.SendSeq))
	})
	for i, c := range m.connOf {
		for dir := range c.dirs {
			m.conns[i].Sent[dir], m.conns[i].Recvd[dir] = c.dirs[dir].sent, c.dirs[dir].recvd
		}
	}
	out.Conns = m.conns
	return out
}

// CountMatches runs the matcher over a finished trace as the live
// collector runs it over the stream — without Flush — and returns its
// figures: what live.match reports for the same records when nothing
// aged out.
func CountMatches(events []trace.Event, opts *MatchOptions) MatchCounts {
	return matchTrace(events, opts, nil).MatchCounts
}
