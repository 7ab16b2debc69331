package kernel

import (
	"fmt"
	"sync"
	"time"

	"dpm/internal/clock"
	"dpm/internal/fsys"
	"dpm/internal/netsim"
	"dpm/internal/obs"
)

// Config carries cluster-wide simulation parameters.
type Config struct {
	// ComputeWallScale, when positive, makes Compute(d) also sleep
	// d*scale of real time. By default compute is purely virtual
	// (instantaneous in wall time), which is fast but means processes
	// on different machines do not interleave realistically; workloads
	// whose *timing* is under study (pipelines, starvation) set a
	// small scale (e.g. 0.01) so execution paces out.
	ComputeWallScale float64
	// DgramQueueCap bounds each socket's queue of undelivered
	// datagrams: deliveries beyond it are shed (counted in
	// mem.shed_dgrams) so one unread socket cannot grow a machine's
	// footprint without limit. Zero uses DefaultDgramQueueCap; a
	// negative value removes the bound.
	DgramQueueCap int
}

// DefaultDgramQueueCap is the per-socket datagram queue budget used
// when Config.DgramQueueCap is zero. At the fabric's 8 KiB maximum
// datagram it bounds one socket at 32 MiB, but typical meter-sized
// datagrams keep a full queue in the hundreds of kilobytes.
const DefaultDgramQueueCap = 4096

// syscallCost is the machine-clock and CPU time charged per system
// call: a few thousand syscalls add up to the tenths-of-seconds the
// paper's cpuTime examples show.
const syscallCost = 200 * time.Microsecond

// Cluster is the whole simulated installation: machines, the networks
// joining them, and the registry of programs that executable files
// refer to.
type Cluster struct {
	cfg Config

	mu       sync.Mutex
	machines map[string]*Machine
	byID     []*Machine
	networks map[string]*netsim.Network
	programs map[string]Program
	hostToM  map[uint32]*Machine
	hostNet  map[uint32]string // host id -> network it is an address on
	nextHost uint32

	wg sync.WaitGroup // all process goroutines across all machines
}

// NewCluster returns an empty cluster.
func NewCluster(cfg Config) *Cluster {
	return &Cluster{
		cfg:      cfg,
		machines: make(map[string]*Machine),
		networks: make(map[string]*netsim.Network),
		programs: make(map[string]Program),
		hostToM:  make(map[uint32]*Machine),
		hostNet:  make(map[uint32]string),
	}
}

// AddNetwork creates a network in the cluster. The cluster installs a
// cut hook so that partitioning the network also resets established
// stream connections between machines left with no path to each other
// (see streamCutHook in faults.go).
func (c *Cluster) AddNetwork(name string, opts ...netsim.Option) *netsim.Network {
	n := netsim.New(name, opts...)
	n.SetCutHook(c.streamCutHook)
	c.mu.Lock()
	c.networks[name] = n
	c.mu.Unlock()
	return n
}

// Networks returns every network in the cluster.
func (c *Cluster) Networks() []*netsim.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*netsim.Network, 0, len(c.networks))
	for _, n := range c.networks {
		out = append(out, n)
	}
	return out
}

// Network returns a network by name.
func (c *Cluster) Network(name string) (*netsim.Network, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.networks[name]
	if !ok {
		return nil, fmt.Errorf("kernel: no network %q", name)
	}
	return n, nil
}

// AddMachine creates a machine attached to the given networks (which
// must already exist). The machine id is its creation order, starting
// at 1; meter message headers carry it.
func (c *Cluster) AddMachine(name string, clk *clock.MachineClock, networks ...string) (*Machine, error) {
	if clk == nil {
		clk = clock.New()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.machines[name]; ok {
		return nil, fmt.Errorf("kernel: machine %q already exists", name)
	}
	reg := obs.NewRegistry()
	m := &Machine{
		name:      name,
		id:        uint16(len(c.byID) + 1),
		cluster:   c,
		clock:     clk,
		fs:        fsys.New(),
		obs:       reg,
		faults:    newMachineFaults(reg),
		mem:       newMachineMem(reg),
		procs:     make(map[int]*Process),
		accounts:  make(map[int]string),
		hostIDs:   make(map[string]uint32),
		ports:     make(map[portKey]*Socket),
		unixSocks: make(map[string]*Socket),
		nextPort:  ephemeralBase,
		wg:        &c.wg,
	}
	for _, nn := range networks {
		n, ok := c.networks[nn]
		if !ok {
			return nil, fmt.Errorf("kernel: no network %q", nn)
		}
		c.nextHost++
		host := c.nextHost
		if err := n.Attach(host, m); err != nil {
			return nil, err
		}
		m.hostIDs[nn] = host
		m.netOrder = append(m.netOrder, nn)
		c.hostToM[host] = m
		c.hostNet[host] = nn
	}
	c.machines[name] = m
	c.byID = append(c.byID, m)
	return m, nil
}

// Machine returns a machine by host name.
func (c *Cluster) Machine(name string) (*Machine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.machines[name]
	if !ok {
		return nil, fmt.Errorf("kernel: no machine %q", name)
	}
	return m, nil
}

// Machines returns the machines in creation (id) order.
func (c *Cluster) Machines() []*Machine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Machine(nil), c.byID...)
}

// machineByHost maps a network host id back to its machine.
func (c *Cluster) machineByHost(host uint32) *Machine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hostToM[host]
}

// RegisterProgram installs a program in the cluster-wide registry;
// executable files refer to programs by this name.
func (c *Cluster) RegisterProgram(name string, p Program) {
	c.mu.Lock()
	c.programs[name] = p
	c.mu.Unlock()
}

func (c *Cluster) program(name string) Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.programs[name]
}

// ResolveFrom constructs, from machine `from`'s point of view, the
// address of `host`. This is the paper's rule for exchanging socket
// names across machines: because a multi-homed host has a different
// address on each network, "the literal name of the host and the
// number of the port are exchanged. The receiving process then
// constructs the socket name using its own host address for the
// specified machine" (section 3.5.4). The returned host id is the
// target's address on a network shared with `from` (or the target's
// primary address when from is nil or shares no network — the
// "gateway" case).
func (c *Cluster) ResolveFrom(from *Machine, host string) (uint32, *Machine, error) {
	target, err := c.Machine(host)
	if err != nil {
		return 0, nil, err
	}
	if from != nil {
		for _, nn := range from.netOrder {
			if h, ok := target.HostIDOn(nn); ok {
				return h, target, nil
			}
		}
	}
	return target.PrimaryHostID(), target, nil
}

// Rcp copies a file between machines, as the controller did with the
// rcp utility when a file was not present on a target machine
// (section 3.5.3).
func (c *Cluster) Rcp(srcMachine, srcPath, dstMachine, dstPath string, uid int) error {
	src, err := c.Machine(srcMachine)
	if err != nil {
		return err
	}
	dst, err := c.Machine(dstMachine)
	if err != nil {
		return err
	}
	return fsys.Copy(src.fs, srcPath, dst.fs, dstPath, uid)
}

// dgramQueueCap returns the per-socket datagram queue budget; <= 0
// means unbounded.
func (c *Cluster) dgramQueueCap() int {
	if c.cfg.DgramQueueCap != 0 {
		return c.cfg.DgramQueueCap
	}
	return DefaultDgramQueueCap
}

// Shutdown kills every live process, waits for their goroutines, and
// closes the networks, so a simulation never leaks goroutines.
func (c *Cluster) Shutdown() {
	for _, m := range c.Machines() {
		for _, p := range m.Procs() {
			p.signal(SIGKILL)
		}
	}
	c.wg.Wait()
	c.mu.Lock()
	nets := make([]*netsim.Network, 0, len(c.networks))
	for _, n := range c.networks {
		nets = append(nets, n)
	}
	c.mu.Unlock()
	for _, n := range nets {
		n.Close()
	}
}
