package workloads

import (
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"dpm/internal/core"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// This file is the traffic-shape generator for cluster-scale
// simulations: shaped datagram sources and sinks built as kernel
// *tasks* (event-driven, no goroutine per process), plus a small
// fan-out/fan-in microservice call tree registered as ordinary
// workload programs. The scale soak and the fabric benchmarks drive
// thousands of these against the monitor's filters; a laptop-sized
// host only survives that because each source is a struct on the
// scheduler's wheel, not a goroutine in a sleep loop.

// Shape maps elapsed run time to an offered load in datagrams/second.
// Implementations must be safe for concurrent use (one Shape is
// typically shared by every source on a machine class).
type Shape interface {
	Rate(elapsed time.Duration) float64
}

// Steady offers a constant rate.
type Steady struct {
	PerSec float64
}

func (s Steady) Rate(time.Duration) float64 { return s.PerSec }

// Diurnal sweeps sinusoidally between Base and Peak over Period — the
// compressed day/night load curve of a long-running service.
type Diurnal struct {
	Base, Peak float64
	Period     time.Duration
}

func (d Diurnal) Rate(elapsed time.Duration) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	phase := float64(elapsed%d.Period) / float64(d.Period)
	return d.Base + (d.Peak-d.Base)*0.5*(1-math.Cos(2*math.Pi*phase))
}

// Bursts offers Base load with storms of BurstRate lasting Length at
// the start of every Every interval — retry stampedes and cron storms.
type Bursts struct {
	Base, BurstRate float64
	Every, Length   time.Duration
}

func (b Bursts) Rate(elapsed time.Duration) float64 {
	if b.Every <= 0 {
		return b.Base
	}
	if elapsed%b.Every < b.Length {
		return b.BurstRate
	}
	return b.Base
}

// TrafficStats is the shared scoreboard a fleet of sources and sinks
// reports into.
type TrafficStats struct {
	Sent     atomic.Int64
	Received atomic.Int64
}

// NewTrafficTask returns a kernel.TaskFunc that sends shaped datagram
// traffic to dest until its process is killed. Payloads carry a
// sequence number so a sink can spot them; sends that fail because the
// fabric is congested or partitioned are ordinary datagram loss and do
// not stop the source.
func NewTrafficTask(shape Shape, dest meter.Name, payload int, stats *TrafficStats) kernel.TaskFunc {
	if payload < 8 {
		payload = 8
	}
	var (
		fd    int
		ready bool
		start time.Time
		seq   uint64
		buf   = make([]byte, payload)
	)
	return func(t *kernel.Task) kernel.Poll {
		p := t.Proc()
		if !ready {
			var err error
			if fd, err = p.Socket(meter.AFInet, kernel.SockDgram); err != nil {
				return kernel.PollDone
			}
			if err := p.BindPort(fd, 0); err != nil {
				return kernel.PollDone
			}
			start = time.Now()
			ready = true
		}
		rate := shape.Rate(time.Since(start))
		if rate <= 0 {
			return t.Sleep(100 * time.Millisecond)
		}
		binary.BigEndian.PutUint64(buf, seq)
		seq++
		if _, err := p.SendTo(fd, buf, dest); err != nil {
			if errors.Is(err, kernel.ErrKilled) || errors.Is(err, kernel.ErrExited) {
				return kernel.PollDone
			}
			// Unreachable destination or downed interface: back off and
			// let the fault heal.
			return t.Sleep(50 * time.Millisecond)
		}
		if stats != nil {
			stats.Sent.Add(1)
		}
		return t.Sleep(time.Duration(float64(time.Second) / rate))
	}
}

// NewSinkTask returns a kernel.TaskFunc that binds port and counts
// every datagram delivered to it, parking between arrivals.
func NewSinkTask(port uint16, stats *TrafficStats) kernel.TaskFunc {
	var (
		fd    int
		ready bool
	)
	return func(t *kernel.Task) kernel.Poll {
		p := t.Proc()
		if !ready {
			var err error
			if fd, err = p.Socket(meter.AFInet, kernel.SockDgram); err != nil {
				return kernel.PollDone
			}
			if err := p.BindPort(fd, port); err != nil {
				return kernel.PollDone
			}
			ready = true
		}
		for {
			_, _, err := p.TryRecvFrom(fd, 4096)
			switch {
			case err == nil:
				if stats != nil {
					stats.Received.Add(1)
				}
			case errors.Is(err, kernel.ErrWouldBlock):
				return t.Park(fd)
			default:
				return kernel.PollDone
			}
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
