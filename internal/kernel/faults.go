package kernel

import "fmt"

// This file is the machine-level half of the fault-injection layer
// (the link-level half lives in netsim). The paper's fabric already
// loses and reorders datagrams (section 3.1); a monitor aimed at
// production also has to survive the larger faults — a machine losing
// power, a network splitting — so the simulation can inject them and
// the control plane's degradation can be tested rather than assumed.

// FaultStats is a snapshot of the cluster's fault accounting.
type FaultStats struct {
	// Crashes and Restarts count CrashMachine/RestartMachine calls
	// that took effect.
	Crashes  int64
	Restarts int64
	// MeterDisabled counts processes whose metering the kernel switched
	// off after their filter died (the degradation of section 3.2's
	// mechanism: drop trace data rather than wedge the computation).
	MeterDisabled int64
	// MeterDrops counts meter messages discarded instead of being
	// delivered to a dead or unconnected filter.
	MeterDrops int64
}

// FaultStats returns the current fault counters. Since the obs
// migration each fault is counted on the machine where it happened
// (the faults.* counters in that machine's registry); this remains the
// cluster-wide view, summing across machines.
func (c *Cluster) FaultStats() FaultStats {
	c.mu.Lock()
	machines := append([]*Machine(nil), c.byID...)
	c.mu.Unlock()
	var fs FaultStats
	for _, m := range machines {
		fs.Crashes += m.faults.crashes.Load()
		fs.Restarts += m.faults.restarts.Load()
		fs.MeterDisabled += m.faults.meterDisabled.Load()
		fs.MeterDrops += m.faults.meterDrops.Load()
	}
	return fs
}

// CrashMachine simulates the machine losing power: every process on it
// is killed (goroutine-backed processes unwind at their next system
// call and flush pending meter messages, which reach their filters
// only where those filters are still alive), and the machine detaches
// from every network, so datagrams addressed to it vanish and new
// stream connections to it are refused. The machine stays down —
// refusing spawns and connections — until RestartMachine.
func (c *Cluster) CrashMachine(name string) error {
	m, err := c.Machine(name)
	if err != nil {
		return err
	}
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if m.Down() {
		return fmt.Errorf("%w: %s already crashed", ErrMachineDown, name)
	}
	m.down.Store(true)
	m.faults.crashes.Inc()

	// Kill everything. Detached processes (driven by an external
	// caller, no goroutine) are finished here directly; goroutine
	// processes unwind asynchronously.
	for _, p := range m.Procs() {
		p.signal(SIGKILL)
		if p.detached {
			p.finish(-1, ReasonKilled)
		}
	}

	// Pull the interfaces.
	for nn, h := range m.hostIDs {
		if n, err := c.Network(nn); err == nil {
			n.Detach(h)
		}
	}
	return nil
}

// RestartMachine reboots a crashed machine: it reattaches to its
// networks under the same addresses and accepts spawns again. The
// process table starts empty — rebooting does not resurrect processes,
// so whoever ran a meterdaemon on the machine must reinstall it (in
// this reproduction, core.System.RestartMachine does).
func (c *Cluster) RestartMachine(name string) (*Machine, error) {
	m, err := c.Machine(name)
	if err != nil {
		return nil, err
	}
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if !m.Down() {
		return nil, fmt.Errorf("kernel: machine %q is not down", name)
	}
	for nn, h := range m.hostIDs {
		n, err := c.Network(nn)
		if err != nil {
			return nil, err
		}
		if err := n.Attach(h, m); err != nil {
			return nil, err
		}
	}
	m.down.Store(false)
	m.faults.restarts.Inc()
	return m, nil
}

// streamCutHook runs after a link between two hosts is newly cut on
// any network (netsim.SetCutHook, installed by AddNetwork). Stream
// bytes are not routed through the datagram fabric, so a cut cannot
// drop them in transit; instead, when the machines behind the cut are
// left with no shared network carrying traffic, every established
// stream between them is reset — as a real partition outlasting the
// TCP retransmit timers resets connections. Readers drain what already
// arrived and then see EOF; writers see EPIPE. Healing the partition
// does not resurrect severed connections.
func (c *Cluster) streamCutHook(hostA, hostB uint32) {
	ma := c.machineByHost(hostA)
	mb := c.machineByHost(hostB)
	if ma == nil || mb == nil || ma == mb {
		return
	}
	if c.machinesReachable(ma, mb) {
		return // another shared network still joins them
	}
	for _, s := range ma.streamsTo(mb) {
		s.sever()
	}
	for _, s := range mb.streamsTo(ma) {
		s.sever()
	}
}

// machinesReachable reports whether any shared network can currently
// carry traffic between two machines.
func (c *Cluster) machinesReachable(ma, mb *Machine) bool {
	for _, nn := range ma.netOrder {
		hb, ok := mb.HostIDOn(nn)
		if !ok {
			continue
		}
		ha := ma.hostIDs[nn]
		n, err := c.Network(nn)
		if err == nil && n.Reachable(ha, hb) {
			return true
		}
	}
	return false
}

// checkStreamPath decides whether a new stream connection from machine
// `from` can reach `host`, an address of machine `target`. Established
// streams are carried by paired socket buffers rather than the
// datagram fabric, but *establishing* one requires a path between the
// machines, so connect consults the fabric's reachability. (Once
// established, a stream is severed by streamCutHook if a partition
// later isolates the two machines.)
func (c *Cluster) checkStreamPath(from, target *Machine, host uint32) error {
	if target.Down() {
		return fmt.Errorf("%w: %s is down", ErrHostUnreach, target.name)
	}
	c.mu.Lock()
	n := c.networks[c.hostNet[host]]
	c.mu.Unlock()
	if n == nil {
		return nil
	}
	srcHost, ok := from.HostIDOn(n.Name())
	if !ok {
		// No address on the destination network: the connection is
		// routed through a gateway whose links the simulation does not
		// model, so only the target's own state gates it.
		return nil
	}
	if !n.Reachable(srcHost, host) {
		return fmt.Errorf("%w: %s unreachable from %s", ErrHostUnreach, target.name, from.name)
	}
	return nil
}
