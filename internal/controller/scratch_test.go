package controller

import "dpm/internal/daemon"

// broadcast and broadcastTargets run a scratch's broadcast in a scratch
// of their own, which release does not give back: the tests read the
// slots as long as they like, and the collector takes the scratch.
func (c *Controller) broadcast(hosts []string, req daemon.Message) []hostResult {
	return c.scratch().broadcast(hosts, req)
}

func (c *Controller) broadcastTargets(targets []target) []hostResult {
	s := c.scratch()
	s.targets = append(s.targets, targets...)
	return s.scatter()
}

// release gives back every slot's reply (daemon.Reply.Release).
func release(res []hostResult) {
	for _, r := range res {
		r.Rep.Release()
	}
}
