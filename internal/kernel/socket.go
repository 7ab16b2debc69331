package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// Socket types, with the 4.2BSD values.
const (
	SockStream = 1
	SockDgram  = 2
)

// dgram is one queued datagram on a receiving socket.
type dgram struct {
	data []byte
	src  meter.Name
}

// Socket is one 4.2BSD socket: an endpoint of communication that,
// once created, exists independent of the creating process and
// disappears when no longer referenced (paper section 3.1). Sockets
// are identified in meter messages by their ID, the stand-in for
// "their address within the system descriptor table", unique within a
// machine (section 4.1). Fields are ordered so that a socket fits the
// allocator's 192-byte class (TestSocketSize).
type Socket struct {
	machine *Machine
	id      uint32
	domain  uint16 // meter.AFUnix or meter.AFInet (meter.AFPair for socketpair ends)
	typ     uint8  // SockStream or SockDgram
	closed  bool
	refs    int32 // descriptor references across all processes

	// Stream connection state.
	connected  bool
	peerClosed bool
	meterConn  bool // the kernel's meter messages arrive here

	// dead mirrors Dead's condition so the metering path can test it
	// without the lock; closing and a peer's departure set it.
	dead atomic.Bool
	// bound is set once the name fields are written, and they never
	// change after, so a bound socket's name is read without mu.
	bound atomic.Bool

	mu      sync.Mutex
	waiters waitList // blocked readers/acceptors, woken on state change

	// buffered is the byte count this socket has charged against its
	// machine's memory accounting (queued stream bytes plus queued
	// datagram payloads); released as data is consumed or the socket
	// dies.
	buffered int

	// Naming: the bound name, and for a UNIX-domain binding its whole
	// path (the name holds only its first 14 bytes). An Internet
	// binding's port is the name's.
	boundName meter.Name
	path      string

	listener *listener // set by Listen

	// peer is a stream's other end. remote is the name of a stream's
	// peer, or the default destination connect() sets on a datagram
	// socket.
	peer   *Socket
	remote meter.Name

	// The unread stream bytes are recvBuf[off:], the unread datagrams
	// dgrams[off:] (a socket has one or the other); both reset to empty
	// when a read drains them, so the array is reused rather than
	// regrown, and popped datagram slots are cleared. route is the last
	// sent-to.
	recvBuf []byte
	dgrams  []dgram
	off     int
	route   atomic.Pointer[dgramRoute]
}

// listener is a listening stream socket's queue of connections not yet
// accepted, and its bound.
type listener struct {
	backlog int
	pending []*Socket
}

// compact moves the unread q[off:] to the front, clearing the slots it
// moved from, when n more would outgrow q and at least as many items are
// consumed as unread: a slow reader never makes delivery quadratic.
func compact[T any](q []T, off, n int) ([]T, int) {
	if unread := len(q) - off; len(q)+n > cap(q) && off >= unread {
		k := copy(q, q[off:])
		clear(q[off:])
		return q[:k], 0
	}
	return q, off
}

// recvFree holds stream sockets' receive arrays between connections, so
// that a new one need not grow an array from empty: a meter connection
// takes one at its first growth, any other socket only to grow past
// pooledRecvBuf. A socket gives back the array it closes with, if it is
// a meter connection's or holds pooledRecvBuf; an array it outgrows
// goes to the collector, since given back, the small arrays of every
// connection's climb crowded the large ones out of the list. A meter
// connection whose filter lags grows its array past a megabyte.
var recvFree = obs.NewByteList("recv", 8, 32<<20)

const pooledRecvBuf = 64 << 10

// broadcastLocked wakes every waiter on the socket. Callers hold s.mu.
func (s *Socket) broadcastLocked() {
	s.waiters.wakeAll()
}

// chargeLocked accounts n queued bytes against the machine's memory
// budget. Callers hold s.mu.
func (s *Socket) chargeLocked(n int) {
	s.buffered += n
	s.machine.mem.charge(int64(n))
}

// releaseLocked returns n queued bytes to the budget as data is
// consumed. Callers hold s.mu.
func (s *Socket) releaseLocked(n int) {
	s.buffered -= n
	s.machine.mem.buffered.Add(int64(-n))
}

// ID returns the socket's machine-unique identifier.
func (s *Socket) ID() uint32 { return s.id }

// Type returns SockStream or SockDgram.
func (s *Socket) Type() int { return int(s.typ) }

// Domain returns the socket's address family.
func (s *Socket) Domain() uint16 { return s.domain }

// BoundName returns the name bound to the socket, zero if unbound.
func (s *Socket) BoundName() meter.Name {
	if s.bound.Load() {
		return s.boundName
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boundName
}

// PeerName returns the name of the connected peer, or a datagram
// socket's default destination; zero if none.
func (s *Socket) PeerName() meter.Name {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote
}

// Dead reports that the socket can never carry data again: it is
// closed, or it was connected and its peer has gone. A socket that was
// simply never connected is not dead. The metering machinery uses this
// to tell a dead filter from a merely unused meter socket.
func (s *Socket) Dead() bool { return s.dead.Load() }

// ref adds a descriptor reference.
func (s *Socket) ref() {
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
}

// unref drops a descriptor reference; the last drop destroys the
// socket ("A socket disappears when it is no longer referenced by any
// process", section 3.1).
func (s *Socket) unref() {
	s.mu.Lock()
	s.refs--
	if s.refs > 0 {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.dead.Store(true)
	var pending []*Socket
	if l := s.listener; l != nil {
		pending, l.pending = l.pending, nil
	}
	peer := s.peer
	if s.buffered > 0 {
		s.releaseLocked(s.buffered)
	}
	if cap(s.recvBuf) >= pooledRecvBuf || s.meterConn && cap(s.recvBuf) > 0 {
		recvFree.Put(s.recvBuf, s.machine.mem.recv)
	}
	s.recvBuf, s.off = nil, 0
	s.broadcastLocked()
	s.mu.Unlock()
	s.machine.mem.sockets.Add(-1)

	s.machine.unbindSocket(s)
	// Reject connections that were queued but never accepted: drop the
	// queue's reference so each conn closes and its *initiator* learns
	// the peer is gone. (Marking the conn itself peerClosed would tell
	// nobody — no process holds it, and the initiator would keep
	// sending into a socket that can never be accepted.)
	for _, c := range pending {
		c.unref()
	}
	if peer != nil {
		peer.notifyPeerClosed()
	}
}

// notifyPeerClosed marks the remote end gone and wakes readers, which
// then drain the buffer and see EOF.
func (s *Socket) notifyPeerClosed() {
	s.mu.Lock()
	s.peerClosed = true
	s.dead.Store(s.closed || s.connected)
	s.broadcastLocked()
	s.mu.Unlock()
}

// sever kills an established stream connection in both directions, as
// a network partition resets a TCP connection: readers on either end
// drain what was already delivered and then see EOF; writers see EPIPE.
// Severing is permanent for the connection — healing the partition does
// not resurrect it, the endpoints must reconnect.
func (s *Socket) sever() {
	s.mu.Lock()
	peer := s.peer
	connected := s.connected
	s.mu.Unlock()
	if !connected {
		return
	}
	s.notifyPeerClosed()
	if peer != nil {
		peer.notifyPeerClosed()
	}
}

// peerMachine returns the machine of the connected peer, nil if none.
func (s *Socket) peerMachine() *Machine {
	s.mu.Lock()
	peer := s.peer
	s.mu.Unlock()
	if peer == nil {
		return nil
	}
	return peer.machine
}

// readyLocked reports whether a read-style operation would not block:
// data queued, a pending connection to accept, or EOF visible.
func (s *Socket) readyLocked() bool {
	if s.closed {
		return true
	}
	if s.listener != nil {
		return len(s.listener.pending) > 0
	}
	if s.typ == SockDgram {
		return len(s.dgrams) > 0
	}
	return len(s.recvBuf) > 0 || s.peerClosed
}

// Readable reports whether a read would not block; the select() system
// call is built on it.
func (s *Socket) Readable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readyLocked()
}

// unpark removes a waiter enqueued by a blocking system call and
// returns the node to the pool.
func (s *Socket) unpark(w *waiter) {
	s.mu.Lock()
	s.waiters.remove(w)
	s.mu.Unlock()
	putWaiter(w)
}

// deliverStream appends stream bytes arriving from the peer; meterConn
// marks bytes the kernel sends on a meter connection (kernelSend).
// sentAt is the sender's machine-clock reading; the receiving
// machine's clock is raised to it, so time observably passes on a
// machine whose processes are blocked waiting (clock gossip — the
// loose synchronization message traffic provides on a real network).
func (s *Socket) deliverStream(data []byte, sentAt time.Duration, meterConn bool) {
	s.machine.clock.AdvanceTo(sentAt)
	s.mu.Lock()
	if !s.closed {
		s.meterConn = s.meterConn || meterConn
		s.recvBuf, s.off = compact(s.recvBuf, s.off, len(data))
		if unread := s.recvBuf[s.off:]; len(s.recvBuf)+len(data) > cap(s.recvBuf) {
			// Growing: a meter connection's first array, and any past
			// pooledRecvBuf, comes from recvFree, twice what is needed
			// so that a growing array is not replaced at every delivery.
			need := len(unread) + len(data)
			if need > pooledRecvBuf || s.meterConn && cap(s.recvBuf) == 0 {
				b := recvFree.Take(2*need, s.machine.mem.recv)
				unread = append(b[:0], unread...)
			}
			s.recvBuf, s.off = unread, 0
		}
		s.recvBuf = append(s.recvBuf, data...)
		s.chargeLocked(len(data))
		s.broadcastLocked()
	}
	s.mu.Unlock()
}

// deliverDgram enqueues one datagram, with the same clock gossip as
// deliverStream. The queue is bounded by the cluster's per-socket
// datagram budget: a receiver that never drains cannot grow the
// machine's footprint without limit, it sheds datagrams instead —
// legal for the unreliable transport and counted in mem.shed_dgrams.
func (s *Socket) deliverDgram(data []byte, src meter.Name, sentAt time.Duration) {
	s.machine.clock.AdvanceTo(sentAt)
	budget := s.machine.cluster.dgramQueueCap()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if budget > 0 && len(s.dgrams)-s.off >= budget {
		s.mu.Unlock()
		s.machine.mem.shedDgrams.Inc()
		return
	}
	s.dgrams, s.off = compact(s.dgrams, s.off, 1)
	s.dgrams = append(s.dgrams, dgram{data: append([]byte(nil), data...), src: src})
	s.chargeLocked(len(data))
	s.broadcastLocked()
	s.mu.Unlock()
}

// kernelSend writes data to the socket's stream peer from kernel
// context, bypassing any descriptor table, and reports whether the
// data was delivered. The metering machinery uses it for the meter
// connection; per the man page, "Meter messages are lost if they are
// sent on an unconnected socket" — the caller counts the loss, the
// sending process never sees an error.
func (s *Socket) kernelSend(data []byte) bool {
	s.mu.Lock()
	peer := s.peer
	ok := s.connected && !s.peerClosed && !s.closed
	s.mu.Unlock()
	if !ok || peer == nil {
		return false
	}
	peer.deliverStream(data, s.machine.clock.Now(), true)
	return true
}
