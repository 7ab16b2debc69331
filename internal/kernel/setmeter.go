package kernel

import (
	"fmt"

	"dpm/internal/meter"
)

// Special argument values for Setmeter, from the setmeter(2) manual
// page (Appendix C) and section 4.1. SELF and NO_CHANGE are the man
// page's -1. The paper also names a NONE value that turns all flags
// off (for the flags argument that is simply 0) and closes the meter
// connection (for the socket argument); since descriptor 0 is a valid
// descriptor, this reproduction uses -2 for the socket argument's
// NONE.
const (
	Self      = -1 // proc argument: the calling process
	NoChange  = -1 // flags/socket argument: leave unchanged
	FlagsNone = 0  // flags argument: all flags off
	SockNone  = -2 // socket argument: close the meter connection
)

// newMeterBuffer builds the per-process buffer of unsent meter
// messages, delivering batches over the given meter socket. Each flush
// is one kernelSend of the whole batch, so the filter's Recv sees a
// maximal contiguous run of frames and can process the run with a
// single batched flush of its own sinks; the stream delivery copies
// the bytes, letting the buffer recycle the batch storage. A batch the
// socket cannot deliver (the filter died between buffering and flush)
// is counted message-by-message in the cluster's fault stats.
func (m *Machine) newMeterBuffer(sock *Socket) *meter.Buffer {
	b := meter.NewBuffer(meter.DefaultBufferCount, func(batch []byte) {
		if sock.kernelSend(batch) {
			return
		}
		if msgs, _, err := meter.DecodeStream(batch); err == nil && len(msgs) > 0 {
			m.faults.meterDrops.Add(int64(len(msgs)))
		} else {
			m.faults.meterDrops.Add(1)
		}
	})
	b.SetObs(m.obs.Counter("meter.events"), m.obs.Counter("meter.flushes"),
		m.obs.Counter("meter.flush_bytes"))
	return b
}

// Setmeter marks a process for metering (the system call the paper
// adds to the 4.2BSD kernel; Appendix C).
//
//   - proc is the pid of the process to be metered, or Self.
//   - flags is the new meter flag mask (replacing the previous mask),
//     FlagsNone to turn all flags off, or NoChange.
//   - sockFD is a descriptor, in the calling process's table, of a
//     connected stream socket over which meter messages will be sent;
//     SockNone closes the existing meter connection; NoChange keeps it.
//
// A user can request metering only for processes belonging to that
// user (EPERM otherwise; the superuser can meter anything). The given
// socket is duplicated for the metered process but not placed in that
// process's descriptor table, so the process is not able to send
// messages through it and metering stays invisible. If a new meter
// socket is given to a process that already has one, the old socket's
// pending messages are flushed and the old socket is closed.
func (p *Process) Setmeter(proc int, flags int, sockFD int) error {
	if err := p.enter(); err != nil {
		return err
	}
	target := p
	if proc != Self {
		t, err := p.machine.Proc(proc)
		if err != nil {
			return err
		}
		target = t
	}
	if p.uid != 0 && p.uid != target.uid {
		return fmt.Errorf("%w: process %d does not belong to caller", ErrPerm, target.pid)
	}

	// Validate the socket argument before mutating anything.
	var newSock *Socket
	switch sockFD {
	case NoChange, SockNone:
	default:
		s, err := p.sockFD(sockFD)
		if err != nil {
			return err
		}
		// "The socket provided must be a stream socket in the Internet
		// domain. Any other socket will result in a negative return
		// value and an error status. The socket must be connected to
		// be used, though this is not checked."
		if s.typ != SockStream || s.domain != meter.AFInet {
			return fmt.Errorf("%w: meter socket must be an Internet stream socket", ErrInval)
		}
		newSock = s
	}

	target.mu.Lock()
	cur := target.meter.Load()
	next := *cur
	if flags != NoChange {
		next.flags = meter.Flag(uint32(flags))
	}
	var replaced *meterState // the connection SockNone or a new socket ends
	switch sockFD {
	case NoChange:
	case SockNone:
		replaced, next.sock, next.buf = cur, nil, nil
	default:
		newSock.ref() // duplicated for the metered process, hidden from its table
		replaced = cur
		next.sock, next.buf = newSock, p.machine.newMeterBuffer(newSock)
	}
	target.meter.Store(&next)
	target.mu.Unlock()

	if replaced != nil && replaced.sock != nil {
		replaced.buf.Flush()
		replaced.sock.unref()
	}
	return nil
}
