// Package workloads provides the distributed computations the
// examples and benchmarks run under the monitor: a stream ping-pong
// pair, a datagram echo server, and the distributed traveling-salesman
// computation the paper cites as the tool's first real use (Lai &
// Miller 84, referenced in section 5).
package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dpm/internal/core"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
)

// ErrConnectTimeout marks a connectRetry that exhausted its budget.
// The last connect failure is wrapped alongside it, so callers can
// errors.Is against both the timeout and the underlying cause.
var ErrConnectTimeout = errors.New("workloads: connect retries exhausted")

// connectBudget bounds how long connectRetry keeps dialing; a variable
// so tests can shrink it.
var connectBudget = 10 * time.Second

// connectRetry dials (host, port), retrying with exponential backoff
// plus jitter while the server is still coming up (or the fabric is
// misbehaving). It returns the connected descriptor, or an error
// wrapping ErrConnectTimeout and the last failure once the budget is
// spent.
func connectRetry(p *kernel.Process, host string, port uint16) (int, error) {
	hostID, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), host)
	if err != nil {
		return -1, err
	}
	name := meter.InetName(hostID, port)
	const (
		baseDelay = time.Millisecond
		maxDelay  = 100 * time.Millisecond
	)
	deadline := time.Now().Add(connectBudget)
	delay := baseDelay
	var lastErr error
	for {
		fd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil {
			return -1, err
		}
		err = p.Connect(fd, name)
		if err == nil {
			return fd, nil
		}
		lastErr = err
		_ = p.Close(fd)
		if time.Now().After(deadline) {
			return -1, fmt.Errorf("%w: %s:%d after %v: %w",
				ErrConnectTimeout, host, port, connectBudget, lastErr)
		}
		time.Sleep(delay + time.Duration(rand.Int63n(int64(delay))))
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// maxMsg bounds one length-prefixed message. The largest any workload
// sends is the TSP distance matrix, at most five bytes a distance: 64
// KiB holds one of 100 cities, far past what the branch and bound
// solves.
const maxMsg = 64 << 10

// errMsgSize is what a message larger than maxMsg fails with, on either
// end of the stream.
var errMsgSize = errors.New("workloads: message too large")

// writeMsg sends one length-prefixed message on a stream socket.
func writeMsg(p *kernel.Process, fd int, payload []byte) error {
	if len(payload) > maxMsg {
		return fmt.Errorf("%w: %d bytes", errMsgSize, len(payload))
	}
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := p.Send(fd, append(hdr, payload...)); err != nil {
		return err
	}
	return nil
}

// msgReader reads length-prefixed messages from one stream socket,
// carrying coalesced bytes across reads (streams concatenate
// messages, section 3.1).
type msgReader struct {
	p   *kernel.Process
	fd  int
	buf []byte
}

func newMsgReader(p *kernel.Process, fd int) *msgReader {
	return &msgReader{p: p, fd: fd}
}

// read returns the next complete message. A length word past maxMsg
// fails it as soon as its four bytes are in.
func (r *msgReader) read() ([]byte, error) {
	for {
		if c := obs.NewCursor(r.buf, errMsgSize); c.Remaining() >= 4 {
			n := int(c.U32())
			if n > maxMsg {
				return nil, fmt.Errorf("%w: %d bytes", errMsgSize, n)
			}
			if n <= c.Remaining() {
				msg := slices.Clone(c.Take(n))
				r.buf = r.buf[c.Off():]
				return msg, nil
			}
		}
		data, err := r.p.Recv(r.fd, 8192)
		if err != nil {
			return nil, err
		}
		r.buf = append(r.buf, data...)
	}
}

// PingPongPort is the ponger's well-known port.
const PingPongPort = 7000

// RegisterPingPong installs "pinger" and "ponger" on every machine of
// the system. The ponger accepts one connection, reads a message,
// computes for a while, and replies; the pinger (args: server machine,
// optional round count) drives it.
func RegisterPingPong(s *core.System) error {
	if err := s.RegisterWorkload("ponger", PongerMain); err != nil {
		return err
	}
	return s.RegisterWorkload("pinger", PingerMain)
}

// PongerMain is the server half of the ping-pong computation. args:
// optional round count.
func PongerMain(p *kernel.Process) int {
	rounds := argInt(p.Args(), 0, 1)
	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return 1
	}
	if err := p.BindPort(lfd, PingPongPort); err != nil {
		return 1
	}
	if err := p.Listen(lfd, 4); err != nil {
		return 1
	}
	cfd, _, err := p.Accept(lfd)
	if err != nil {
		return 1
	}
	r := newMsgReader(p, cfd)
	for i := 0; i < rounds; i++ {
		data, err := r.read()
		if err != nil {
			return 1
		}
		p.Compute(5 * time.Millisecond)
		if err := writeMsg(p, cfd, append([]byte("re: "), data...)); err != nil {
			return 1
		}
	}
	return 0
}

// PingerMain is the client half. args: server machine, optional round
// count.
func PingerMain(p *kernel.Process) int {
	args := p.Args()
	server := "green"
	if len(args) > 0 && args[0] != "" {
		server = args[0]
	}
	rounds := argInt(args, 1, 1)
	fd, err := connectRetry(p, server, PingPongPort)
	if err != nil {
		return 1
	}
	r := newMsgReader(p, fd)
	for i := 0; i < rounds; i++ {
		p.Compute(5 * time.Millisecond)
		if err := writeMsg(p, fd, []byte(fmt.Sprintf("ping %d", i))); err != nil {
			return 1
		}
		if _, err := r.read(); err != nil {
			return 1
		}
	}
	return 0
}

func argInt(args []string, idx, def int) int {
	if idx >= len(args) {
		return def
	}
	var v int
	if _, err := fmt.Sscanf(args[idx], "%d", &v); err != nil || v < 1 {
		return def
	}
	return v
}

// EchoPort is the datagram echo server's well-known port.
const EchoPort = 7500

// EchoServerMain is a long-running datagram echo server — the kind of
// "system server" the acquire command exists for (section 4.3). It
// echoes every datagram back to its source and exits on "quit".
func EchoServerMain(p *kernel.Process) int {
	fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return 1
	}
	if err := p.BindPort(fd, EchoPort); err != nil {
		return 1
	}
	for {
		data, src, err := p.RecvFrom(fd, 4096)
		if err != nil {
			return 0
		}
		if string(data) == "quit" {
			return 0
		}
		p.Compute(time.Millisecond)
		if _, err := p.SendTo(fd, data, src); err != nil {
			return 1
		}
	}
}

// EchoClientMain sends datagrams to an echo server and awaits the
// echoes. args: server machine, message count.
func EchoClientMain(p *kernel.Process) int {
	args := p.Args()
	server := "red"
	if len(args) > 0 && args[0] != "" {
		server = args[0]
	}
	count := argInt(args, 1, 5)
	hostID, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), server)
	if err != nil {
		return 1
	}
	dest := meter.InetName(hostID, EchoPort)
	fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return 1
	}
	if err := p.BindPort(fd, 0); err != nil {
		return 1
	}
	for i := 0; i < count; i++ {
		msg := []byte(fmt.Sprintf("echo %d", i))
		if _, err := p.SendTo(fd, msg, dest); err != nil {
			return 1
		}
		if _, err := p.Recv(fd, 4096); err != nil {
			return 1
		}
	}
	return 0
}

// RegisterEcho installs the echo server and client programs.
func RegisterEcho(s *core.System) error {
	if err := s.RegisterWorkload("echoserver", EchoServerMain); err != nil {
		return err
	}
	return s.RegisterWorkload("echoclient", EchoClientMain)
}
