package kernel

import (
	"fmt"
	"io"
	"time"

	"dpm/internal/meter"
	"dpm/internal/netsim"
)

// This file implements the system-call interface of the simulated
// 4.2BSD kernel — the exact surface the paper's meter instruments
// (section 3.1 reviews these calls; section 3.2 describes how flagged
// calls generate meter messages).
//
// Every call passes through a checkpoint (signal delivery point) and
// charges the per-syscall cost to the machine clock and the process's
// CPU counter. Calls that correspond to meter events emit their meter
// message after the operation completes, from outside any socket lock.

// enter begins a system call: signal checkpoint plus time accounting.
func (p *Process) enter() error {
	if err := p.checkpoint(); err != nil {
		return err
	}
	p.charge(p.machine.cluster.SyscallCost())
	return nil
}

// nameLen returns the length recorded for a socket name field: 16 for
// a present name, 0 for an absent one ("In this case the length of the
// name is specified as zero", section 4.1).
func nameLen(n meter.Name) uint32 {
	if n.IsZero() {
		return 0
	}
	return meter.NameSize
}

// Socket creates a socket in the given domain (meter.AFInet or
// meter.AFUnix) of the given type (SockStream or SockDgram) and
// returns its descriptor.
func (p *Process) Socket(domain uint16, typ int) (int, error) {
	if err := p.enter(); err != nil {
		return -1, err
	}
	if domain != meter.AFInet && domain != meter.AFUnix {
		return -1, ErrAfNoSupport
	}
	if typ != SockStream && typ != SockDgram {
		return -1, fmt.Errorf("%w: socket type %d", ErrInval, typ)
	}
	s := p.machine.newSocket(domain, typ)
	fd := p.installFD(&fdEntry{sock: s})
	p.emit(&meter.SocketCrt{
		PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id,
		Domain: uint32(domain), SockType: uint32(typ),
	})
	return fd, nil
}

// Bind gives a name to a socket. For Internet names only the port is
// significant (binding is to the local machine); port 0 allocates an
// ephemeral port. For UNIX names the path must be unused on this
// machine.
func (p *Process) Bind(fd int, name meter.Name) error {
	if err := p.enter(); err != nil {
		return err
	}
	s, err := p.sockFD(fd)
	if err != nil {
		return err
	}
	if s.BoundName() != (meter.Name{}) {
		return fmt.Errorf("%w: socket already bound", ErrInval)
	}
	switch name.Family() {
	case meter.AFInet:
		if s.domain != meter.AFInet {
			return ErrAfNoSupport
		}
		_, port := name.Inet()
		_, err = p.machine.bindInet(s, port)
	case meter.AFUnix:
		if s.domain != meter.AFUnix {
			return ErrAfNoSupport
		}
		_, err = p.machine.bindUnix(s, name.Path())
	default:
		return ErrAfNoSupport
	}
	return err
}

// BindPort is a convenience wrapper: bind an Internet socket to a
// port.
func (p *Process) BindPort(fd int, port uint16) error {
	return p.Bind(fd, meter.InetName(0, port))
}

// Listen initializes a stream socket's queue of pending connection
// requests.
func (p *Process) Listen(fd, backlog int) error {
	if err := p.enter(); err != nil {
		return err
	}
	s, err := p.sockFD(fd)
	if err != nil {
		return err
	}
	if s.typ != SockStream {
		return ErrOpNotSupp
	}
	if backlog < 1 {
		backlog = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bound {
		return fmt.Errorf("%w: listen on unbound socket", ErrInval)
	}
	if s.connected {
		return fmt.Errorf("%w: listen on connected socket", ErrInval)
	}
	s.listening = true
	s.backlog = backlog
	s.broadcastLocked()
	return nil
}

// lookupStreamListener finds the listening socket a connect names.
// UNIX-domain names resolve only on the local machine, Internet names
// anywhere in the cluster.
func (p *Process) lookupStreamListener(name meter.Name) (*Socket, error) {
	switch name.Family() {
	case meter.AFInet:
		host, port := name.Inet()
		target := p.machine.cluster.machineByHost(host)
		if target == nil {
			return nil, fmt.Errorf("%w: host %d", ErrHostUnreach, host)
		}
		if target != p.machine {
			if err := p.machine.cluster.checkStreamPath(p.machine, target, host); err != nil {
				return nil, err
			}
		}
		return target.lookupPort(SockStream, port), nil
	case meter.AFUnix:
		return p.machine.lookupUnix(name.Path()), nil
	default:
		return nil, ErrAfNoSupport
	}
}

// Connect initiates a connection to a named socket (stream), or
// predefines the recipient for subsequent sends (datagram).
func (p *Process) Connect(fd int, name meter.Name) error {
	if err := p.enter(); err != nil {
		return err
	}
	s, err := p.sockFD(fd)
	if err != nil {
		return err
	}
	if s.typ == SockDgram {
		s.mu.Lock()
		s.defaultDest = name
		s.mu.Unlock()
		p.emit(&meter.Connect{
			PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id,
			SockNameLen: nameLen(s.BoundName()), PeerNameLen: nameLen(name),
			SockName: s.BoundName(), PeerName: name,
		})
		return nil
	}

	s.mu.Lock()
	if s.connected {
		s.mu.Unlock()
		return ErrIsConn
	}
	if s.listening {
		s.mu.Unlock()
		return ErrOpNotSupp
	}
	s.mu.Unlock()

	l, err := p.lookupStreamListener(name)
	if err != nil {
		return err
	}
	if l == nil || l.typ != SockStream {
		return fmt.Errorf("%w: %s", ErrConnRefused, name)
	}

	// 4.2BSD implicitly binds an unbound Internet socket on connect so
	// the peer has a name for it.
	if s.domain == meter.AFInet && s.BoundName().IsZero() {
		if _, err := p.machine.bindInet(s, 0); err != nil {
			return err
		}
	}

	// Create the server-side connection socket on the listener's
	// machine (the paper: "the creation of a new connection socket
	// owned by the accepting process and connected to the initiating
	// process's socket", section 3.1).
	srv := l.machine.newSocket(s.domain, SockStream)
	srv.connected = true
	srv.peer = s
	srv.peerName = s.BoundName()
	srv.boundName = l.BoundName()

	l.mu.Lock()
	if !l.listening || l.closed {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrConnRefused, name)
	}
	if len(l.pendingConns) >= l.backlog {
		l.mu.Unlock()
		return fmt.Errorf("%w: backlog full at %s", ErrConnRefused, name)
	}
	lName := l.boundName
	l.pendingConns = append(l.pendingConns, srv)
	l.broadcastLocked()
	l.mu.Unlock()
	// Connection establishment is communication: gossip the clock to
	// the accepting machine so a blocked accept sees time pass.
	l.machine.clock.AdvanceTo(p.machine.clock.Now())

	s.mu.Lock()
	s.connected = true
	s.peer = srv
	s.peerName = lName
	s.broadcastLocked()
	s.mu.Unlock()

	p.emit(&meter.Connect{
		PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id,
		SockNameLen: nameLen(s.BoundName()), PeerNameLen: nameLen(lName),
		SockName: s.BoundName(), PeerName: lName,
	})
	return nil
}

// await sleeps until a wakeup token arrives on ch (a waiter fired),
// the timeout elapses, or the process is killed. The caller must have
// enqueued a waiter pointing at ch before its last condition check, so
// no state change can fall between check and sleep.
func (p *Process) await(ch <-chan struct{}, timeout <-chan time.Time) error {
	select {
	case <-ch:
		return nil
	case <-timeout:
		return ErrTimedOut
	case <-p.killCh:
		if p.detached {
			return ErrKilled
		}
		panic(killedPanic{})
	}
}

// Accept blocks until a connection request arrives on a listening
// socket, then returns the descriptor of the new connection socket and
// the name of the connecting peer.
func (p *Process) Accept(fd int) (int, meter.Name, error) {
	return p.accept(fd, false)
}

// TryAccept is Accept that never blocks: with no pending connection it
// fails with ErrWouldBlock. Event-driven tasks (Machine.SpawnTask) use
// it to drain a listener and then park instead of holding a worker.
func (p *Process) TryAccept(fd int) (int, meter.Name, error) {
	return p.accept(fd, true)
}

func (p *Process) accept(fd int, nonblock bool) (int, meter.Name, error) {
	if err := p.enter(); err != nil {
		return -1, meter.Name{}, err
	}
	s, err := p.sockFD(fd)
	if err != nil {
		return -1, meter.Name{}, err
	}
	s.mu.Lock()
	listening := s.listening
	s.mu.Unlock()
	if s.typ != SockStream || !listening {
		return -1, meter.Name{}, ErrInval
	}
	for {
		if err := p.checkpoint(); err != nil {
			return -1, meter.Name{}, err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return -1, meter.Name{}, ErrBadFD
		}
		if len(s.pendingConns) > 0 {
			srv := s.pendingConns[0]
			s.pendingConns = s.pendingConns[1:]
			s.mu.Unlock()
			nfd := p.installFD(&fdEntry{sock: srv})
			peer := srv.PeerName()
			p.emit(&meter.Accept{
				PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id, NewSock: srv.id,
				SockNameLen: nameLen(s.BoundName()), PeerNameLen: nameLen(peer),
				SockName: s.BoundName(), PeerName: peer,
			})
			return nfd, peer, nil
		}
		if nonblock {
			s.mu.Unlock()
			return -1, meter.Name{}, ErrWouldBlock
		}
		w := getWaiter()
		s.waiters.push(w)
		s.mu.Unlock()
		err := p.await(w.ch, nil)
		s.unpark(w)
		if err != nil {
			return -1, meter.Name{}, err
		}
	}
}

// Send transmits data on a connected socket. For a stream socket the
// recipient's name is not available to the metering software, so the
// send event carries a zero name (section 4.1); a connected datagram
// socket sends to its predefined recipient.
func (p *Process) Send(fd int, data []byte) (int, error) {
	if err := p.enter(); err != nil {
		return 0, err
	}
	s, err := p.sockFD(fd)
	if err != nil {
		return 0, err
	}
	return p.sendSock(s, data, meter.Name{}, false)
}

// SendTo transmits a datagram to a named socket.
func (p *Process) SendTo(fd int, data []byte, to meter.Name) (int, error) {
	if err := p.enter(); err != nil {
		return 0, err
	}
	s, err := p.sockFD(fd)
	if err != nil {
		return 0, err
	}
	if s.typ != SockDgram {
		return 0, ErrOpNotSupp
	}
	return p.sendSock(s, data, to, true)
}

// sendSock implements the send side of both transports.
func (p *Process) sendSock(s *Socket, data []byte, to meter.Name, explicitDest bool) (int, error) {
	var dest meter.Name
	switch s.typ {
	case SockStream:
		s.mu.Lock()
		peer, connected, peerClosed := s.peer, s.connected, s.peerClosed
		s.mu.Unlock()
		if !connected {
			return 0, ErrNotConn
		}
		if peerClosed {
			return 0, ErrPipe
		}
		peer.deliverStream(data, p.machine.clock.Now())
		// dest stays zero: writes across a connection carry no name.
	case SockDgram:
		dest = to
		if !explicitDest {
			s.mu.Lock()
			dest = s.defaultDest
			s.mu.Unlock()
			if dest.IsZero() {
				return 0, ErrNotConn
			}
		}
		if err := p.sendDgram(s, data, dest); err != nil {
			return 0, err
		}
	}
	p.emit(&meter.Send{
		PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id,
		MsgLength: uint32(len(data)), DestNameLen: nameLen(dest), DestName: dest,
	})
	return len(data), nil
}

// sendDgram routes one datagram: directly to the destination socket
// when local (reliable within a machine, section 3.5.2), through the
// network fabric otherwise (where it may be lost or reordered).
func (p *Process) sendDgram(s *Socket, data []byte, dest meter.Name) error {
	// Implicit bind so the receiver sees a source name.
	if s.domain == meter.AFInet && s.BoundName().IsZero() {
		if _, err := p.machine.bindInet(s, 0); err != nil {
			return err
		}
	}
	switch dest.Family() {
	case meter.AFInet:
		host, port := dest.Inet()
		target := p.machine.cluster.machineByHost(host)
		if target == nil {
			return fmt.Errorf("%w: host %d", ErrHostUnreach, host)
		}
		if target == p.machine {
			if rs := target.lookupPort(SockDgram, port); rs != nil {
				rs.deliverDgram(data, s.BoundName(), p.machine.clock.Now())
			}
			return nil
		}
		netName, srcHost := "", uint32(0)
		target.mu.Lock()
		for _, nn := range target.netOrder {
			if h, ok := p.machine.hostIDs[nn]; ok {
				netName, srcHost = nn, h
				break
			}
		}
		var dstHost uint32
		if netName != "" {
			dstHost = target.hostIDs[netName]
		}
		target.mu.Unlock()
		if netName == "" {
			return fmt.Errorf("%w: no shared network with %s", ErrHostUnreach, target.name)
		}
		n, err := p.machine.cluster.Network(netName)
		if err != nil {
			return err
		}
		if len(data) > netsim.MaxDatagram {
			return ErrMsgSize
		}
		return n.Send(netsim.Datagram{
			Src:     netsim.Addr{Net: netName, Host: srcHost, Port: s.port},
			Dst:     netsim.Addr{Net: netName, Host: dstHost, Port: port},
			SrcName: s.BoundName(),
			SentAt:  p.machine.clock.Now(),
			Data:    data,
		})
	case meter.AFUnix:
		if rs := p.machine.lookupUnix(dest.Path()); rs != nil && rs.typ == SockDgram {
			rs.deliverDgram(data, s.BoundName(), p.machine.clock.Now())
		}
		return nil
	default:
		return ErrAfNoSupport
	}
}

// Recv receives data: the next datagram, or up to max stream bytes
// ("As many bytes as possible are delivered for each read without
// regard for whether or not the bytes originated from the same
// message", section 3.1). A stream whose peer has gone returns io.EOF
// once drained. Recv generates the receivecall event when the call is
// made and the receive event when data is returned.
func (p *Process) Recv(fd, max int) ([]byte, error) {
	data, _, err := p.RecvFrom(fd, max)
	return data, err
}

// RecvFrom is Recv plus the source's name, meaningful for datagrams.
func (p *Process) RecvFrom(fd, max int) ([]byte, meter.Name, error) {
	return p.recvFrom(fd, max, nil, false)
}

// TryRecvFrom is RecvFrom that never blocks: with nothing to read it
// fails with ErrWouldBlock. Event-driven tasks (Machine.SpawnTask) use
// it to drain a socket and then park instead of holding a worker.
func (p *Process) TryRecvFrom(fd, max int) ([]byte, meter.Name, error) {
	return p.recvFrom(fd, max, nil, true)
}

// RecvTimeout is RecvFrom with a deadline: if nothing arrives within d
// the call fails with ErrTimedOut. It stands in for 4.2BSD's
// SO_RCVTIMEO; the meterdaemon's hardened exchanges use it so a reply
// lost to a crash or partition cannot block a request forever.
func (p *Process) RecvTimeout(fd, max int, d time.Duration) ([]byte, meter.Name, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	return p.recvFrom(fd, max, t.C, false)
}

func (p *Process) recvFrom(fd, max int, timeout <-chan time.Time, nonblock bool) ([]byte, meter.Name, error) {
	if err := p.enter(); err != nil {
		return nil, meter.Name{}, err
	}
	e, err := p.fd(fd)
	if err != nil {
		return nil, meter.Name{}, err
	}
	if e.sock == nil {
		// Plain file/stream descriptor: not IPC, not metered.
		if e.r == nil {
			return nil, meter.Name{}, ErrBadFD
		}
		buf := make([]byte, max)
		n, rerr := e.r.Read(buf)
		if n > 0 {
			return buf[:n], meter.Name{}, nil
		}
		return nil, meter.Name{}, rerr
	}
	s := e.sock
	if max <= 0 {
		return nil, meter.Name{}, fmt.Errorf("%w: recv of %d bytes", ErrInval, max)
	}
	p.emit(&meter.RecvCall{PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id})
	for {
		if err := p.checkpoint(); err != nil {
			return nil, meter.Name{}, err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, meter.Name{}, ErrBadFD
		}
		if s.typ == SockDgram {
			if len(s.dgrams) > 0 {
				dg := s.dgrams[0]
				s.dgrams = s.dgrams[1:]
				s.releaseLocked(len(dg.data))
				s.mu.Unlock()
				data := dg.data
				if len(data) > max {
					// A datagram is read as a complete message; excess
					// bytes are discarded, as recv does.
					data = data[:max]
				}
				p.emitRecv(s, len(data), dg.src)
				return data, dg.src, nil
			}
		} else {
			if !s.connected {
				s.mu.Unlock()
				return nil, meter.Name{}, ErrNotConn
			}
			if len(s.recvBuf) > 0 {
				n := len(s.recvBuf)
				if n > max {
					n = max
				}
				data := append([]byte(nil), s.recvBuf[:n]...)
				s.recvBuf = s.recvBuf[n:]
				s.releaseLocked(n)
				s.mu.Unlock()
				// Like the send side, a read on a connection carries no
				// source name; the analysis recovers it from the
				// connection-establishment events.
				p.emitRecv(s, n, meter.Name{})
				return data, meter.Name{}, nil
			}
			if s.peerClosed {
				s.mu.Unlock()
				return nil, meter.Name{}, io.EOF
			}
		}
		if nonblock {
			s.mu.Unlock()
			return nil, meter.Name{}, ErrWouldBlock
		}
		w := getWaiter()
		s.waiters.push(w)
		s.mu.Unlock()
		err := p.await(w.ch, timeout)
		s.unpark(w)
		if err != nil {
			return nil, meter.Name{}, err
		}
	}
}

func (p *Process) emitRecv(s *Socket, n int, src meter.Name) {
	p.emit(&meter.Recv{
		PID: uint32(p.pid), PC: p.nextPC(), Sock: s.id,
		MsgLength: uint32(n), SourceNameLen: nameLen(src), SourceName: src,
	})
}

// Read is the read() system call: on a socket it is a receive (the
// paper treats the varieties of read and recv as the same meter
// event); on a plain descriptor it reads file data.
func (p *Process) Read(fd, max int) ([]byte, error) {
	return p.Recv(fd, max)
}

// Readv is the scatter variant of read. Section 3.1: read, readv,
// recv, recvfrom and recvmsg "are only slight variations of one
// another, and thus we may assume that the program always calls
// read()" — all five produce the same receive meter event. Readv
// fills the given buffers in order and returns the total bytes read
// from a single receive.
func (p *Process) Readv(fd int, bufs [][]byte) (int, error) {
	max := 0
	for _, b := range bufs {
		max += len(b)
	}
	if max == 0 {
		return 0, fmt.Errorf("%w: readv with no buffer space", ErrInval)
	}
	data, err := p.Recv(fd, max)
	if err != nil {
		return 0, err
	}
	off := 0
	for _, b := range bufs {
		off += copy(b, data[off:])
		if off == len(data) {
			break
		}
	}
	return len(data), nil
}

// RecvMsg is the recvmsg() variant: identical to RecvFrom (one
// receive meter event).
func (p *Process) RecvMsg(fd, max int) ([]byte, meter.Name, error) {
	return p.RecvFrom(fd, max)
}

// Writev is the gather variant of write: the buffers are sent as one
// message, producing a single send meter event, like the paper's
// write/writev/send/sendmsg family.
func (p *Process) Writev(fd int, bufs [][]byte) (int, error) {
	var data []byte
	for _, b := range bufs {
		data = append(data, b...)
	}
	return p.Write(fd, data)
}

// SendMsg is the sendmsg() variant: identical to Send for connected
// sockets.
func (p *Process) SendMsg(fd int, data []byte) (int, error) {
	return p.Send(fd, data)
}

// Write is the write() system call: on a socket it is a send; on a
// plain descriptor it writes through (unmetered: it is not IPC).
func (p *Process) Write(fd int, data []byte) (int, error) {
	e, err := p.fd(fd)
	if err != nil {
		return 0, err
	}
	if e.sock != nil {
		return p.Send(fd, data)
	}
	if err := p.enter(); err != nil {
		return 0, err
	}
	if e.w == nil {
		return 0, ErrBadFD
	}
	return e.w.Write(data)
}

// Printf formats to the process's standard output.
func (p *Process) Printf(format string, args ...any) {
	_, _ = p.Write(1, []byte(fmt.Sprintf(format, args...)))
}

// SocketPair creates a pair of connected stream sockets. The paper:
// "socketpair() is not treated differently from a pair of socket
// creates followed by separate connects and accepts; all four messages
// are produced" (section 3.2) — so metering emits two socket events
// plus a connect and an accept, and the sockets carry internally
// generated unique names (section 4.1).
func (p *Process) SocketPair() (int, int, error) {
	if err := p.enter(); err != nil {
		return -1, -1, err
	}
	m := p.machine
	a := m.newSocket(meter.AFPair, SockStream)
	b := m.newSocket(meter.AFPair, SockStream)
	m.mu.Lock()
	m.nextPairID++
	aName := meter.PairName(m.nextPairID)
	m.nextPairID++
	bName := meter.PairName(m.nextPairID)
	m.mu.Unlock()
	a.boundName, b.boundName = aName, bName
	a.bound, b.bound = true, true
	a.peer, b.peer = b, a
	a.peerName, b.peerName = bName, aName
	a.connected, b.connected = true, true

	fd1 := p.installFD(&fdEntry{sock: a})
	fd2 := p.installFD(&fdEntry{sock: b})

	p.emit(&meter.SocketCrt{PID: uint32(p.pid), PC: p.nextPC(), Sock: a.id, Domain: uint32(meter.AFPair), SockType: SockStream})
	p.emit(&meter.SocketCrt{PID: uint32(p.pid), PC: p.nextPC(), Sock: b.id, Domain: uint32(meter.AFPair), SockType: SockStream})
	p.emit(&meter.Connect{
		PID: uint32(p.pid), PC: p.nextPC(), Sock: a.id,
		SockNameLen: meter.NameSize, PeerNameLen: meter.NameSize,
		SockName: aName, PeerName: bName,
	})
	p.emit(&meter.Accept{
		PID: uint32(p.pid), PC: p.nextPC(), Sock: b.id, NewSock: b.id,
		SockNameLen: meter.NameSize, PeerNameLen: meter.NameSize,
		SockName: bName, PeerName: aName,
	})
	return fd1, fd2, nil
}

// Dup duplicates a descriptor.
func (p *Process) Dup(fd int) (int, error) {
	if err := p.enter(); err != nil {
		return -1, err
	}
	e, err := p.fd(fd)
	if err != nil {
		return -1, err
	}
	cp := *e
	if cp.sock != nil {
		cp.sock.ref()
	}
	nfd := p.installFD(&cp)
	if cp.sock != nil {
		p.emit(&meter.Dup{PID: uint32(p.pid), PC: p.nextPC(), Sock: cp.sock.id, NewSock: cp.sock.id})
	}
	return nfd, nil
}

// Close releases a descriptor; the last reference destroys the socket.
func (p *Process) Close(fd int) error {
	if err := p.enter(); err != nil {
		return err
	}
	p.mu.Lock()
	if fd < 0 || fd >= len(p.fds) || p.fds[fd] == nil {
		p.mu.Unlock()
		return ErrBadFD
	}
	e := p.fds[fd]
	p.fds[fd] = nil
	p.mu.Unlock()
	if e.sock != nil {
		id := e.sock.id
		e.sock.unref()
		p.emit(&meter.DestSocket{PID: uint32(p.pid), PC: p.nextPC(), Sock: id})
	}
	return nil
}

// Fork creates a child process running the given body. The child
// gains access to the parent's sockets via a copied descriptor table,
// and inherits the meter socket and meter flags of the parent
// (sections 3.1 and 3.2), with a fresh buffer of unsent messages.
func (p *Process) Fork(child Program) (int, error) {
	if err := p.enter(); err != nil {
		return -1, err
	}
	m := p.machine

	c := m.newProcess(SpawnSpec{UID: p.uid, Name: p.name, Args: p.args, PPID: p.pid})
	p.mu.Lock()
	// Replace the default stdio slots with a copy of the parent's
	// descriptor table (the default entries hold no sockets, so there
	// is nothing to release).
	c.fds = make([]*fdEntry, len(p.fds))
	for i, e := range p.fds {
		if e == nil {
			continue
		}
		cp := *e
		if cp.sock != nil {
			cp.sock.ref()
		}
		c.fds[i] = &cp
	}
	if p.meterSock != nil {
		p.meterSock.ref()
		c.meterSock = p.meterSock
		c.meterFlags = p.meterFlags
		c.meterBuf = m.newMeterBuffer(p.meterSock)
	}
	p.mu.Unlock()

	m.wg.Add(1)
	go c.run(child)
	p.emit(&meter.Fork{PID: uint32(p.pid), PC: p.nextPC(), NewPID: uint32(c.pid)})
	return c.pid, nil
}

// Exec replaces the process image with the executable at path. On
// success it runs the program to completion and then terminates the
// process with the program's status; it returns only on error.
func (p *Process) Exec(path string, args ...string) error {
	if err := p.enter(); err != nil {
		return err
	}
	progName, err := p.machine.fs.Executable(path, p.uid)
	if err != nil {
		return err
	}
	prog := p.machine.cluster.program(progName)
	if prog == nil {
		return fmt.Errorf("%w: program %q not registered", ErrInval, progName)
	}
	p.mu.Lock()
	p.name = path
	p.args = append([]string(nil), args...)
	p.mu.Unlock()
	panic(exitPanic{status: prog(p)})
}

// Exit terminates the process with the given status.
func (p *Process) Exit(status int) {
	if p.detached {
		p.finish(status, ReasonNormal)
		return
	}
	panic(exitPanic{status: status})
}

// Compute burns d of CPU time — the paper's "internal events"
// (computation), visible to the monitor only through the procTime
// header field of surrounding communication events. With a positive
// Config.ComputeWallScale it also consumes real time, so concurrent
// processes interleave.
func (p *Process) Compute(d time.Duration) {
	_ = p.checkpoint()
	if scale := p.machine.cluster.cfg.ComputeWallScale; scale > 0 && d > 0 {
		time.Sleep(time.Duration(float64(d) * scale))
	}
	p.charge(d)
}

// Select blocks until at least one of the given descriptors is ready
// for reading, and returns the ready subset. The standard filter uses
// it to multiplex its meter connections.
//
// The seed kernel built a []reflect.SelectCase per loop iteration and
// slept in reflect.Select — two channel boxings per descriptor per
// wakeup. Now every watched socket gets an intrusive waiter node
// pointing at one pooled wake channel: the call parks on all sockets
// first, then collects readiness, so a state change between check and
// sleep fires the channel rather than being lost, and the steady-state
// cost is two small slice allocations regardless of descriptor count
// (gated by TestSelectReadyAllocs).
func (p *Process) Select(fds []int) ([]int, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	if len(fds) == 0 {
		return nil, fmt.Errorf("%w: select with no descriptors", ErrInval)
	}
	socks := make([]*Socket, len(fds))
	for i, fd := range fds {
		s, err := p.sockFD(fd)
		if err != nil {
			return nil, fmt.Errorf("select fd %d: %w", fd, err)
		}
		socks[i] = s
	}
	for {
		if err := p.checkpoint(); err != nil {
			return nil, err
		}
		sp := getSelectParking(len(socks))
		var ready []int
		for i, s := range socks {
			s.mu.Lock()
			s.waiters.push(&sp.nodes[i])
			if s.readyLocked() {
				ready = append(ready, fds[i])
			}
			s.mu.Unlock()
		}
		var waitErr error
		if len(ready) == 0 {
			waitErr = p.await(sp.ch, nil)
		}
		for i, s := range socks {
			s.mu.Lock()
			s.waiters.remove(&sp.nodes[i])
			s.mu.Unlock()
		}
		putSelectParking(sp)
		if len(ready) > 0 {
			return ready, nil
		}
		if waitErr != nil {
			return nil, waitErr
		}
	}
}

// SocketOf returns the socket object behind a descriptor. The
// meterdaemon uses it to hand a gateway socket to SpawnSpec.Stdio and
// to read bound names; it is not part of the 4.2BSD surface.
func (p *Process) SocketOf(fd int) (*Socket, error) {
	return p.sockFD(fd)
}

// SocketName returns the name bound to the socket at fd (zero if
// unbound) — the getsockname() of 4.2BSD.
func (p *Process) SocketName(fd int) (meter.Name, error) {
	s, err := p.sockFD(fd)
	if err != nil {
		return meter.Name{}, err
	}
	return s.BoundName(), nil
}

// ReadFile reads a file on the local machine with the process's
// credentials. File access is not IPC and generates no meter events.
func (p *Process) ReadFile(path string) ([]byte, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	return p.machine.fs.Read(path, p.uid)
}

// AppendFile appends to a file on the local machine.
func (p *Process) AppendFile(path string, data []byte) error {
	if err := p.enter(); err != nil {
		return err
	}
	return p.machine.fs.Append(path, p.uid, data)
}
