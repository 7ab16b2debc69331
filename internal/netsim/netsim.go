// Package netsim simulates the internetwork connecting the machines of
// the monitored cluster.
//
// The paper's model of communication (section 3.1) distinguishes only
// two transport semantics: datagrams ("delivery ... is not guaranteed,
// though it is likely. Nor is the order ... guaranteed") and streams
// (reliable, ordered byte streams). Section 3.5.4 additionally notes
// that a host may be a member of two or more networks, with a different
// address on each, which is why socket names must be exchanged as
// (literal host name, port) rather than as addresses.
//
// Network reproduces the datagram side: an addressed fabric that can
// drop, delay, and reorder datagrams under a seeded random source.
// Stream connections are reliable and ordered by definition, so the
// kernel implements them as directly paired socket buffers; no paper
// claim depends on stream timing, and keeping streams synchronous keeps
// the simulation deterministic. Partitions still reach streams: the
// cut hook (SetCutHook) lets the kernel reset established connections
// crossing a cut, the way a long partition resets real TCP sessions.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Errors reported by the fabric.
var (
	ErrNoHost   = errors.New("netsim: no such host on network (EHOSTUNREACH)")
	ErrClosed   = errors.New("netsim: network closed")
	ErrTooBig   = errors.New("netsim: datagram exceeds maximum size (EMSGSIZE)")
	ErrAttached = errors.New("netsim: host id already attached")
	ErrNetDown  = errors.New("netsim: network is down (ENETDOWN)")
)

// MaxDatagram is the largest datagram the fabric will carry, matching
// the common 4.2BSD UDP limit order of magnitude.
const MaxDatagram = 8192

// Addr is a network-layer address: which network, which host on it,
// and which port. A multi-homed machine has one Addr per attached
// network (paper section 3.5.4).
type Addr struct {
	Net  string
	Host uint32
	Port uint16
}

func (a Addr) String() string {
	return fmt.Sprintf("%s/%d:%d", a.Net, a.Host, a.Port)
}

// Datagram is one unreliable message in flight. SrcName carries the
// sender's full socket name (section 3.1: recvfrom reports the source)
// as its sixteen sockaddr bytes, which the fabric treats as opaque and
// delivers as they were sent. SentAt is the sending machine's
// clock reading at transmission; the receiving kernel uses it for
// clock gossip.
type Datagram struct {
	Src     Addr
	Dst     Addr
	SrcName [16]byte
	SentAt  time.Duration
	Data    []byte
}

// Endpoint receives datagrams addressed to one host. The kernel of
// each machine implements this for each network it attaches to.
// DeliverDatagram may be called from fabric goroutines; implementations
// must be safe for concurrent use and must not block for long.
type Endpoint interface {
	DeliverDatagram(dg Datagram)
}

// Network is one broadcast-domain of the simulated internetwork.
type Network struct {
	name string

	mu      sync.Mutex
	eps     map[uint32]Endpoint
	rng     *rand.Rand
	loss    float64
	reorder float64
	latency time.Duration
	jitter  time.Duration
	held    *Datagram // datagram held back for reordering
	closed  bool
	down    bool                 // whole network administratively down
	cuts    map[linkKey]struct{} // severed host pairs (partitions)
	cutHook func(a, b uint32)    // called after a link is newly cut

	fab *fabric // batched delayed-delivery machinery (fabric.go), lazily built
}

// linkKey identifies one bidirectional host pair, order-normalized.
type linkKey struct{ a, b uint32 }

func link(a, b uint32) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// Option configures a Network.
type Option func(*Network)

// WithLoss sets the independent per-datagram drop probability.
func WithLoss(rate float64) Option {
	return func(n *Network) { n.loss = rate }
}

// WithReorder sets the probability that a datagram is held back and
// delivered after the next datagram to the same network.
func WithReorder(rate float64) Option {
	return func(n *Network) { n.reorder = rate }
}

// WithLatency sets a fixed delivery delay plus a uniform jitter bound.
// The default is synchronous delivery, which keeps tests deterministic.
func WithLatency(latency, jitter time.Duration) Option {
	return func(n *Network) { n.latency, n.jitter = latency, jitter }
}

// WithSeed seeds the fabric's random source so loss and reordering are
// reproducible.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// New returns a network with the given name. Without options it is
// perfectly reliable and synchronous.
func New(name string, opts ...Option) *Network {
	n := &Network{
		name: name,
		eps:  make(map[uint32]Endpoint),
		rng:  rand.New(rand.NewSource(1)),
		cuts: make(map[linkKey]struct{}),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// Attach registers an endpoint as the given host id on this network.
func (n *Network) Attach(host uint32, ep Endpoint) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.eps[host]; ok {
		return fmt.Errorf("%w: %d", ErrAttached, host)
	}
	n.eps[host] = ep
	return nil
}

// Detach removes a host from the network.
func (n *Network) Detach(host uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, host)
}

// Partition severs the link between two hosts: datagrams between them
// are silently lost (the sender cannot tell a cut from congestion) and
// the kernel refuses new stream connections across it. The cut is
// bidirectional. Partitioning is idempotent and undone by Heal or
// SetLinkDown(a, b, false).
func (n *Network) Partition(hostA, hostB uint32) {
	n.SetLinkDown(hostA, hostB, true)
}

// PartitionNets splits the network into two sides: every link from a
// host in a to a host in b is cut — the classic split-brain fault.
// Links within each side are untouched.
func (n *Network) PartitionNets(a, b []uint32) {
	n.mu.Lock()
	var cut [][2]uint32
	for _, ha := range a {
		for _, hb := range b {
			if ha == hb {
				continue
			}
			if _, dup := n.cuts[link(ha, hb)]; dup {
				continue
			}
			n.cuts[link(ha, hb)] = struct{}{}
			cut = append(cut, [2]uint32{ha, hb})
		}
	}
	hook := n.cutHook
	n.mu.Unlock()
	if hook != nil {
		for _, pair := range cut {
			hook(pair[0], pair[1])
		}
	}
}

// SetLinkDown cuts (down=true) or restores (down=false) the link
// between two hosts.
func (n *Network) SetLinkDown(hostA, hostB uint32, down bool) {
	n.mu.Lock()
	var hook func(a, b uint32)
	if down {
		if _, dup := n.cuts[link(hostA, hostB)]; !dup {
			n.cuts[link(hostA, hostB)] = struct{}{}
			hook = n.cutHook
		}
	} else {
		delete(n.cuts, link(hostA, hostB))
	}
	n.mu.Unlock()
	if hook != nil {
		hook(hostA, hostB)
	}
}

// SetCutHook registers a function called whenever a link between two
// hosts is newly cut (Partition, SetLinkDown, PartitionNets). The
// kernel uses it to reset established stream connections crossing the
// cut — a partition must break live connections, not only refuse new
// ones. The hook runs outside the network's lock and may call back
// into the network (Reachable). Healing has no hook: datagrams resume
// on their own and severed streams stay severed.
func (n *Network) SetCutHook(fn func(a, b uint32)) {
	n.mu.Lock()
	n.cutHook = fn
	n.mu.Unlock()
}

// SetDown takes the whole network down (or back up). While down, Send
// fails with ErrNetDown — the local interface is gone, so unlike a
// partition the sender can tell.
func (n *Network) SetDown(down bool) {
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
}

// Heal removes every partition and brings the network back up.
// Datagrams lost while the faults were active stay lost.
func (n *Network) Heal() {
	n.mu.Lock()
	n.cuts = make(map[linkKey]struct{})
	n.down = false
	n.mu.Unlock()
}

// Reachable reports whether traffic can currently flow between two
// attached hosts. The kernel consults it before establishing a stream
// connection across the fabric.
func (n *Network) Reachable(hostA, hostB uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.down {
		return false
	}
	if _, cut := n.cuts[link(hostA, hostB)]; cut {
		return false
	}
	_, aOK := n.eps[hostA]
	_, bOK := n.eps[hostB]
	return aOK && bOK
}

// Send injects a datagram into the fabric. It returns an error only
// for local conditions (unknown destination host, oversize datagram,
// closed or downed network); silent loss in transit is, as on a real
// network, not reported to the sender. A datagram crossing a
// partitioned link is such a silent loss.
func (n *Network) Send(dg Datagram) error {
	if len(dg.Data) > MaxDatagram {
		return ErrTooBig
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.down {
		n.mu.Unlock()
		return ErrNetDown
	}
	ep, ok := n.eps[dg.Dst.Host]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrNoHost, dg.Dst)
	}
	if _, cut := n.cuts[link(dg.Src.Host, dg.Dst.Host)]; cut {
		n.mu.Unlock()
		return nil // lost at the cut
	}
	if n.loss > 0 && n.rng.Float64() < n.loss {
		n.mu.Unlock()
		return nil // lost in transit
	}
	// Reordering: hold this datagram back and release it after the
	// next one passes through. At most two leave here, this one and the
	// one held: an array, so that a send allocates no slice.
	toDeliver, count := [2]delivery{{ep, dg}}, 1
	if n.held != nil {
		heldEp := n.eps[n.held.Dst.Host]
		if _, cut := n.cuts[link(n.held.Src.Host, n.held.Dst.Host)]; cut {
			heldEp = nil // the link was cut while the datagram was held
		}
		if heldEp != nil {
			toDeliver[1], count = delivery{heldEp, *n.held}, 2
		}
		n.held = nil
	} else if n.reorder > 0 && n.rng.Float64() < n.reorder {
		held := dg
		n.held = &held
		n.mu.Unlock()
		return nil
	}
	delay := n.latency
	if n.jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	n.mu.Unlock()

	for _, d := range toDeliver[:count] {
		n.deliver(d, delay)
	}
	return nil
}

type delivery struct {
	ep Endpoint
	dg Datagram
}

func (n *Network) deliver(d delivery, delay time.Duration) {
	if delay <= 0 {
		d.ep.DeliverDatagram(d.dg)
		return
	}
	n.mu.Lock()
	if n.closed {
		// Racing a concurrent Close: the network vanished with the
		// datagram in flight, an ordinary silent loss.
		n.mu.Unlock()
		return
	}
	if n.fab == nil {
		n.fab = newFabric()
	}
	n.fab.enqueue(d.ep, d.dg, delay)
	n.mu.Unlock()
}

// Flush releases any datagram currently held back for reordering.
// The kernel calls it when a socket closes so no datagram is stranded.
func (n *Network) Flush() {
	n.mu.Lock()
	held := n.held
	n.held = nil
	var ep Endpoint
	if held != nil {
		ep = n.eps[held.Dst.Host]
	}
	n.mu.Unlock()
	if held != nil && ep != nil {
		ep.DeliverDatagram(*held)
	}
}

// Close shuts the network down, flushes every delayed datagram still
// parked in the delivery fabric's timer wheel (in due order), and
// waits for those deliveries to finish, so no goroutine outlives the
// simulation.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.held = nil
	fb := n.fab
	n.fab = nil
	n.mu.Unlock()
	if fb != nil {
		fb.close()
	}
}
