package controller

// Scatter-gather fan-out over persistent daemon sessions. The
// controller keeps one supervised session per machine (daemon
// package, session.go) and broadcasts multi-machine commands —
// status, stats, setflags, startjob, stopjob — concurrently instead of
// machine by machine: results gather into per-host slots, a machine
// that cannot answer contributes an error slot within the retry
// policy's deadline, and the merged report is degraded rather than
// hung.

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"dpm/internal/daemon"
	"dpm/internal/obs"
)

// errClosed fails an exchange attempted after the controller's exit.
var errClosed = errors.New("controller: shut down")

// session returns the controller's persistent session to host's
// daemon, dialing one on first use. An unknown host and a controller
// that has shut down are errors, not sessions.
func (c *Controller) session(host string) (*daemon.Session, error) {
	if _, err := c.cluster.Machine(host); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	if s, ok := c.sessions[host]; ok {
		return s, nil
	}
	s := daemon.DialSession(c.cmd, host, c.sessionCfg)
	c.sessions[host] = s
	return s, nil
}

// SetSessionConfig tunes sessions dialed from now on; tests and soaks
// shorten the liveness timings.
func (c *Controller) SetSessionConfig(cfg daemon.SessionConfig) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sessionCfg = cfg
}

// closeSessions retires every session; part of controller exit.
func (c *Controller) closeSessions() {
	c.mu.Lock()
	sess := c.sessions
	c.sessions = make(map[string]*daemon.Session)
	c.mu.Unlock()
	for _, s := range sess {
		s.Close()
	}
}

// hostResult is one slot of a broadcast: the reply or the error that
// stands in for it.
type hostResult struct {
	Host string
	Rep  *daemon.Reply
	Err  error
}

// target is one fan-out destination: the host whose daemon receives
// the request, a label the report names the slot by, and the request.
// The label and host differ when several filters (distinct targets)
// live on one machine — an aggregate query fans out per filter, not per
// host — or when several processes of a job do.
type target struct {
	Label string
	Host  string
	Req   daemon.Message
}

// broadcast fans req out to every host concurrently and gathers the
// replies into per-host slots, returned in hosts order so report
// output stays deterministic. Each slot is bounded by the exchange
// retry policy, so the gather always completes; a broadcast with any
// failed slot counts under broadcast.degraded.
func (s *scratch) broadcast(hosts []string, req daemon.Message) []hostResult {
	for _, h := range hosts {
		s.targets = append(s.targets, target{Label: h, Host: h, Req: req})
	}
	return s.scatter()
}

// scatter is the general scatter-gather: each of s.targets' requests to
// its host, slots in target order, labels naming the slots. The
// degraded discipline is broadcast's: every slot resolves within the
// retry policy's deadline, error slots included. The slots are s's:
// they, and the replies in them, last until s.release.
func (s *scratch) scatter() []hostResult {
	s.out = slices.Grow(s.out[:0], len(s.targets))[:len(s.targets)]
	if s.run == nil {
		s.run = func() {
			defer s.wg.Done()
			s.exchange(int(s.next.Add(1)))
		}
	}
	s.next.Store(0)
	for i := 1; i < len(s.targets); i++ {
		s.wg.Add(1)
		go s.run() // each takes the next target
	}
	if len(s.targets) > 0 {
		s.exchange(0) // the first on this goroutine, while the rest run
	}
	s.wg.Wait()
	for _, r := range s.out {
		if r.Err != nil {
			s.c.machine.Obs().Counter("broadcast.degraded").Inc()
			break
		}
	}
	return s.out
}

// exchange fills slot i with target i's reply or error.
func (s *scratch) exchange(i int) {
	t := &s.targets[i]
	rep, err := s.c.exchange(t.Host, t.Req)
	s.out[i] = hostResult{Host: t.Label, Rep: rep, Err: err}
}

// scratch is one command's working storage: the words of its line, the
// processes it acts on and their states, its requests, and the targets
// and result slots of its broadcast, with the goroutine body that
// exchanges them. Commands run concurrently, so each takes its own from
// scratchFree and gives it back, arrays and all, with release.
type scratch struct {
	c       *Controller
	words   []string
	procs   []*JobProc
	from    []State
	reqs    []daemon.ProcReq
	create  daemon.CreateReq
	text    []byte // the create's path and token
	targets []target
	out     []hostResult
	wg      sync.WaitGroup
	next    atomic.Int64 // the last target a goroutine took
	run     func()
}

// scratchFree holds scratches between commands, weighed by their
// arrays' slots. In a test binary a scratch given back has its slots
// overwritten, so that a command still reading them reads no reply.
var scratchFree = &obs.FreeList[*scratch]{Name: "scratch", Count: 16, Bytes: 1 << 20,
	Size: func(s *scratch) int {
		return 64 * (cap(s.words) + cap(s.procs) + cap(s.reqs) + cap(s.targets) + cap(s.out))
	},
	New: func(int) *scratch { return new(scratch) },
	Poison: func(s *scratch) {
		for out, i := s.out[:cap(s.out)], 0; i < len(out); i++ {
			out[i] = hostResult{Err: errReleased}
		}
		obs.PoisonBytes(s.text)
	}}

var errReleased = errors.New("controller: scratch used after release")

// scratch takes a command's working storage.
func (c *Controller) scratch() *scratch {
	s := scratchFree.Take(0, c.scratches)
	s.c = c
	return s
}

// release gives back every slot's reply (daemon.Reply.Release), then s,
// holding nothing the command pointed at.
func (s *scratch) release() {
	for _, r := range s.out {
		r.Rep.Release()
	}
	c := s.c
	*s = scratch{words: empty(s.words), procs: empty(s.procs), from: s.from[:0], reqs: empty(s.reqs),
		text: s.text[:0], targets: empty(s.targets), out: empty(s.out), run: s.run}
	scratchFree.Put(s, c.scratches)
}

// empty clears v and returns it with length 0.
func empty[T any](v []T) []T {
	clear(v)
	return v[:0]
}
