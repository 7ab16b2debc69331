package workloads

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"dpm/internal/core"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// This file is the traffic generator for cluster-scale simulations:
// a rate-driven datagram source and a counting sink, plus a small
// fan-out/fan-in microservice call tree registered as ordinary
// workload programs. The scale soak and the fabric benchmarks drive
// thousands of sources and sinks against the monitor's filters; each
// is an ordinary process, one goroutine while it lives.

// TrafficStats is the shared scoreboard a fleet of sources and sinks
// reports into.
type TrafficStats struct {
	Sent     atomic.Int64
	Received atomic.Int64
}

// NewTrafficSource returns a program that sends perSec (> 0) datagrams
// a second to dest until its process is killed. Payloads carry a
// sequence number so a sink can spot them; sends that fail because the
// destination is unreachable or an interface is down are ordinary
// datagram loss: the source backs off and goes on.
func NewTrafficSource(perSec float64, dest meter.Name, payload int, stats *TrafficStats) kernel.Program {
	gap := time.Duration(float64(time.Second) / perSec)
	return func(p *kernel.Process) int {
		fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if err := p.BindPort(fd, 0); err != nil {
			return 1
		}
		buf := make([]byte, max(payload, 8))
		killed := p.KillChan()
		tick := time.NewTimer(0)
		defer tick.Stop()
		for seq := uint64(0); ; seq++ {
			// After a kill the next SendTo unwinds the process.
			select {
			case <-tick.C:
			case <-killed:
			}
			binary.BigEndian.PutUint64(buf, seq)
			next := gap
			if _, err := p.SendTo(fd, buf, dest); err != nil {
				next = 50 * time.Millisecond // let the fault heal
			} else {
				stats.Sent.Add(1)
			}
			tick.Reset(next)
		}
	}
}

// NewTrafficSink returns a program that binds port and counts every
// datagram delivered to it until its process is killed.
func NewTrafficSink(port uint16, stats *TrafficStats) kernel.Program {
	return func(p *kernel.Process) int {
		fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
		if err != nil {
			return 1
		}
		if err := p.BindPort(fd, port); err != nil {
			return 1
		}
		for {
			if _, _, err := p.RecvFrom(fd, 4096); err != nil {
				return 1
			}
			stats.Received.Add(1)
		}
	}
}

// Fan-out/fan-in microservice call tree: a frontend that scatters one
// request to a tier of backends and gathers every reply before
// answering — the traffic skeleton of section 3's distributed
// programs, where one logical operation crosses several machines.

// FanPort is the backend tier's well-known port.
const FanPort = 7700

// BackendMain answers each request datagram with a reply to its
// source, until killed. args: optional port override.
func BackendMain(p *kernel.Process) int {
	port := uint16(argInt(p.Args(), 0, FanPort))
	fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return 1
	}
	if err := p.BindPort(fd, port); err != nil {
		return 1
	}
	for {
		data, src, err := p.RecvFrom(fd, 4096)
		if err != nil {
			return 0
		}
		p.Compute(time.Millisecond) // the "service work"
		if _, err := p.SendTo(fd, data, src); err != nil {
			return 0
		}
	}
}

// FrontendMain fans one request out to every backend machine named in
// its arguments and waits for all replies (fan-in), repeating for the
// round count in the last argument. Exit status is the number of
// rounds that timed out short of a full reply set.
func FrontendMain(p *kernel.Process) int {
	args := p.Args()
	if len(args) < 2 {
		return 1
	}
	backends := args[:len(args)-1]
	rounds := argInt(args, len(args)-1, 5)
	cluster := p.Machine().Cluster()
	dests := make([]meter.Name, 0, len(backends))
	for _, b := range backends {
		hostID, _, err := cluster.ResolveFrom(p.Machine(), b)
		if err != nil {
			return 1
		}
		dests = append(dests, meter.InetName(hostID, FanPort))
	}
	fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return 1
	}
	if err := p.BindPort(fd, 0); err != nil {
		return 1
	}
	short := 0
	req, rep := make([]byte, 8), make([]byte, 4096)
	for r := 0; r < rounds; r++ {
		binary.BigEndian.PutUint64(req, uint64(r))
		for _, d := range dests {
			if _, err := p.SendTo(fd, req, d); err != nil {
				return 1
			}
		}
		// Fan-in: gather one reply per backend; datagrams are lossy, so
		// a timeout ends the round rather than the program.
		for got := 0; got < len(dests); got++ {
			t := time.NewTimer(2 * time.Second)
			_, err := p.RecvInto(fd, rep, t.C)
			t.Stop()
			if err != nil {
				short++
				break
			}
		}
	}
	return short
}

// RegisterTraffic installs the fan-out/fan-in call-tree programs.
func RegisterTraffic(s *core.System) error {
	if err := s.RegisterWorkload("fan-backend", BackendMain); err != nil {
		return err
	}
	return s.RegisterWorkload("fan-frontend", FrontendMain)
}
