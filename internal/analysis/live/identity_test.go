package live

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// The byte-identity harness for the stats path, after the one in
// internal/query: every section payload a collector captures over a
// seeded stream, the merged payloads of the same stream split over
// three collectors, the merged snapshot's wire bytes and its rendered
// report, reduced to sha256 digests and compared with the digests
// committed in testdata/identity.digests. A change that claims "no
// section, snapshot or rendered byte moves" regenerates nothing: the
// digests were written at the commit before it and must still match
// after it. Only a change that means to alter a payload runs
//
//	go test ./internal/analysis/live/ -run TestSectionsByteIdentical -update-identity
//
// and says in its description which lines moved and why.
var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/identity.digests from this build's payloads")

const identityFile = "testdata/identity.digests"

const (
	identityMachines = 8
	identityProcs    = 5200
	identityCaptures = 20
	identityBatch    = 97 // entries per apply, deliberately not a divisor of anything
)

// identityStream builds the seeded op log: identityProcs processes
// over identityMachines machines, pids drawn at random so that cells
// are created out of (machine, pid) order on every machine, each
// process living through a socket, named datagrams, an occasional
// stream connection, receives, forks and — for all but a few — a
// termination, with cpuTime jittered around a global clock so first
// and last observations arrive out of order too.
func identityStream(seed int64) []tapEntry {
	rng := rand.New(rand.NewSource(seed))
	type proc struct {
		machine uint16
		pid     uint32
		left    int // events before termination
		conn    bool
	}
	var out []tapEntry
	var live []*proc
	used := map[uint64]bool{}
	created := 0
	clock := int64(100)
	emit := func(kind meter.Type, p *proc, sock, aux uint32) *tapEntry {
		clock += int64(rng.Intn(4))
		cpu := clock + int64(rng.Intn(11)) - 5
		out = append(out, tapEntry{kind: uint8(kind), machine: p.machine, pid: p.pid, sock: sock, aux: aux,
			cpu: cpu, proc: int64(rng.Intn(500))})
		return &out[len(out)-1]
	}
	for created < identityProcs || len(live) > 120 {
		if created < identityProcs && (len(live) < 40 || rng.Intn(8) == 0) {
			p := &proc{machine: uint16(rng.Intn(identityMachines)), pid: uint32(1 + rng.Intn(60000)), left: 2 + rng.Intn(16)}
			if used[procKey(p.machine, p.pid)] {
				continue
			}
			used[procKey(p.machine, p.pid)] = true
			created++
			live = append(live, p)
			emit(meter.EvSocket, p, 3, 0)
			continue
		}
		i := rng.Intn(len(live))
		p := live[i]
		if p.left == 0 {
			emit(meter.EvTermProc, p, 0, uint32(rng.Intn(2)))
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		p.left--
		peer := live[rng.Intn(len(live))]
		switch rng.Intn(10) {
		case 0, 1, 2:
			e := emit(meter.EvSend, p, 3, uint32(1+rng.Intn(1<<uint(rng.Intn(14)))))
			e.name1 = meter.InetName(uint32(peer.machine), uint16(2000+rng.Intn(4)))
		case 3, 4:
			e := emit(meter.EvRecv, p, 3, uint32(1+rng.Intn(4096)))
			e.name1 = meter.InetName(uint32(peer.machine), uint16(2000+rng.Intn(4)))
		case 5:
			emit(meter.EvRecvCall, p, 3, 0)
		case 6:
			emit(meter.EvFork, p, 0, uint32(1+rng.Intn(60000)))
		case 7:
			if p.conn || peer.conn || peer == p {
				emit(meter.EvSocket, p, 4, 0)
				break
			}
			p.conn, peer.conn = true, true
			cn := meter.InetName(uint32(p.machine), uint16(p.pid))
			sn := meter.InetName(uint32(peer.machine), uint16(peer.pid))
			e := emit(meter.EvConnect, p, 5, 0)
			e.name1, e.name2 = cn, sn
			e = emit(meter.EvAccept, peer, 6, 7)
			e.name1, e.name2 = sn, cn
			n := uint32(1 + rng.Intn(900))
			emit(meter.EvSend, p, 5, n)
			emit(meter.EvRecv, peer, 7, n)
		case 8:
			// An unnamed send on an unconnected socket: unknown peer.
			emit(meter.EvSend, p, 9, uint32(rng.Intn(100)))
		case 9:
			// A type the operators only count.
			emit(meter.EvDup, p, 3, 8)
		}
	}
	return out
}

// identityDigests computes every digest line, in file order.
func identityDigests(t *testing.T) []string {
	t.Helper()
	stream := identityStream(20261002)
	var lines []string
	sum := func(key string, data []byte) {
		lines = append(lines, fmt.Sprintf("%s\t%x", key, sha256.Sum256(data)))
	}
	batches := (len(stream) + identityBatch - 1) / identityBatch
	feed := func(name string, cfg Config) {
		c := NewCollector(cfg)
		defer c.Close()
		every := batches / identityCaptures
		for b := 0; b < batches; b++ {
			c.apply(stream[b*identityBatch : min((b+1)*identityBatch, len(stream))])
			if (b+1)%every == 0 || b == batches-1 {
				sum(fmt.Sprintf("%s@%04d comm", name, b+1), c.captureComm())
				sum(fmt.Sprintf("%s@%04d par", name, b+1), c.capturePar())
				sum(fmt.Sprintf("%s@%04d match", name, b+1), c.captureMatch())
			}
		}
		if n := len(c.procs); name == "full" && n != identityProcs {
			t.Fatalf("stream created %d cells, want %d", n, identityProcs)
		}
	}
	feed("full", Config{})
	// Both tables overflow: later processes fold into the overflow
	// cell, later pairs into (unknown, unknown).
	feed("overflow", Config{MaxProcs: 700, MaxPairs: 20})

	// The same stream dealt batch by batch to three collectors — every
	// process is seen by several — then merged the way the controller
	// merges machines: snapshot, marshal, parse, Merge, render. Clocks
	// and machine labels are pinned so the bytes are the sections' own.
	regs := [3]*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	var colls [3]*Collector
	for i := range colls {
		colls[i] = NewCollector(Config{Obs: regs[i]})
		defer colls[i].Close()
	}
	var merged *obs.Snapshot
	for round, upto := range []int{batches / 3, batches} {
		from := 0
		if round == 1 {
			from = batches / 3
		}
		for b := from; b < upto; b++ {
			colls[b%3].apply(stream[b*identityBatch : min((b+1)*identityBatch, len(stream))])
		}
		merged = nil
		for i, reg := range regs {
			snap := reg.Snapshot()
			snap.TakenUnixNano = int64(1_700_000_000_000_000_000 + i)
			snap.Machine = fmt.Sprintf("m%d", i)
			wire := snap.MarshalBinary()
			sum(fmt.Sprintf("split@%d snapshot %d", round, i), wire)
			parsed, err := obs.ParseSnapshot(wire)
			if err != nil {
				t.Fatal(err)
			}
			var text strings.Builder
			parsed.Render(&text)
			sum(fmt.Sprintf("split@%d render %d", round, i), []byte(text.String()))
			if merged == nil {
				merged = parsed
			} else {
				merged.Merge(parsed)
			}
		}
		for _, sec := range merged.Sections {
			sum(fmt.Sprintf("split@%d merged %s", round, sec.Name), sec.Data)
		}
		sum(fmt.Sprintf("split@%d merged snapshot", round), merged.MarshalBinary())
		var text strings.Builder
		merged.Render(&text)
		sum(fmt.Sprintf("split@%d merged render", round), []byte(text.String()))
	}
	// The mergers directly, in the other association.
	for name, merge := range map[string]obs.SectionMerger{SectionComm: mergeCommPayload, SectionPar: mergeParPayload, SectionMatch: mergeMatchPayload} {
		var caps [3][]byte
		for i, c := range colls {
			switch name {
			case SectionComm:
				caps[i] = c.captureComm()
			case SectionPar:
				caps[i] = c.capturePar()
			case SectionMatch:
				caps[i] = c.captureMatch()
			}
		}
		bc, err := merge(caps[2], caps[1])
		if err != nil {
			t.Fatal(err)
		}
		abc, err := merge(bc, caps[0])
		if err != nil {
			t.Fatal(err)
		}
		if want := merged.Section(name).Data; string(abc) != string(want) {
			t.Errorf("%s: c+b then a differs from the snapshot merge", name)
		}
	}
	return lines
}

func TestSectionsByteIdentical(t *testing.T) {
	lines := identityDigests(t)
	if *updateIdentity {
		if err := os.WriteFile(identityFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(identityFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	i := 0
	for sc := bufio.NewScanner(f); sc.Scan(); i++ {
		if i >= len(lines) {
			t.Fatalf("committed digest %q has no counterpart", sc.Text())
		}
		if sc.Text() != lines[i] {
			t.Errorf("digest moved:\n  committed %s\n  computed  %s", sc.Text(), lines[i])
		}
	}
	if i != len(lines) {
		t.Errorf("%d digests committed, %d computed", i, len(lines))
	}
}
