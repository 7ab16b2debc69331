package controller

// Scatter-gather fan-out over persistent daemon sessions. The
// controller keeps one supervised session per machine (daemon
// package, session.go) and broadcasts multi-machine commands —
// status, stats, startjob, setflags — concurrently instead of
// machine by machine: results gather into per-host slots, a machine
// that cannot answer contributes an error slot within the retry
// policy's deadline, and the merged report is degraded rather than
// hung.

import (
	"errors"
	"sync"

	"dpm/internal/daemon"
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
// the request, and a label the report names the slot by. The label and
// host differ when several filters (distinct targets) live on one
// machine — an aggregate query fans out per filter, not per host.
type target struct {
	Label string
	Host  string
}

// broadcast fans one request per host out concurrently and gathers
// the replies into per-host slots, returned in hosts order so report
// output stays deterministic. Each slot is bounded by the exchange
// retry policy, so the gather always completes; a broadcast with any
// failed slot counts under broadcast.degraded.
func (c *Controller) broadcast(hosts []string, mk func(host string) *daemon.WireMsg) []hostResult {
	ts := make([]target, len(hosts))
	for i, h := range hosts {
		ts[i] = target{Label: h, Host: h}
	}
	return c.broadcastTargets(ts, func(t target) *daemon.WireMsg { return mk(t.Host) })
}

// broadcastTargets is the general scatter-gather: one request per
// target, slots in target order, labels naming the slots. The degraded
// discipline is broadcast's: every slot resolves within the retry
// policy's deadline, error slots included.
func (c *Controller) broadcastTargets(targets []target, mk func(t target) *daemon.WireMsg) []hostResult {
	out := make([]hostResult, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t target) {
			defer wg.Done()
			rep, err := c.exchange(t.Host, mk(t))
			out[i] = hostResult{Host: t.Label, Rep: rep, Err: err}
		}(i, t)
	}
	wg.Wait()
	for _, r := range out {
		if r.Err != nil {
			c.machine.Obs().Counter("broadcast.degraded").Inc()
			break
		}
	}
	return out
}
