package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"dpm/internal/filter"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/store"
)

// ingest_flood: closed loop, write-only. Two flooder processes on two
// leaf machines send datagrams to an unmetered catcher as fast as the
// kernel lets them, in rounds: a job of two flooders unmetered, then
// the same job metered with the default buffering. The metered job
// pushes every send through kernel meter, meter stream, filter
// pipeline, store and flat log; nothing reads while it runs. After it
// the user fetches the new part of the flat log with getlog.
const (
	floodPort = 7700
	// floodBatch sends are timed together inside the flooder. One
	// flooder's run in one job gives one latency sample: the mean of its
	// batches, per 1 000 sends. Single batches do not make steady
	// samples: with two flooders, a catcher and the filter on two cores a
	// flooder is either running, descheduled for a scheduler quantum, or
	// (metered) stalled by the meter stream's flow control, so batch
	// times have several modes and their median jumps between them.
	floodBatch = 5_000

	// Metered sends per flooder per budget second. At the seed the
	// metered path sustains 250-370 k records/s on the 2-core reference
	// host, so the 96 k metered records per budget second take about a
	// third of the budget; the unmetered jobs, the getlogs, collecting
	// this process's garbage and verification take the rest.
	floodPerSecond = 48_000
	// floodRoundSends is what one flooder sends in one job. Two
	// flooders' worth is 50 000 records, 6.9 MB of flat log (a getlog
	// reply must fit the daemon wire's 16 MiB message bound).
	floodRoundSends = 25_000
	// An unmetered job is shorter: it only has to say what a send costs
	// without the meter.
	floodUnmeteredSends = 10_000
	// floodEpochRounds rounds share a cluster; see runIngestFlood.
	floodEpochRounds = 24
	// floodStats is how many times the user asks for cluster-wide stats
	// once the flood is over.
	floodStats = 200

	floodFlooders = 2
)

var ingestMachines = []string{"leaf0", "leaf1", "sink", "filt", "spare", "ctl"}

// flood is the state the flooder programs share with the harness.
type flood struct {
	// lengths is the seeded payload-length sequence, 32..95 bytes so
	// every record's text has the same width and only the values move
	// with the seed.
	lengths [1024]uint8
	// batchNS[slot] receives the duration of each floodBatch sends of one
	// flooder's run, and began[slot] when the run began.
	batchNS [][]int64
	began   []time.Time
}

// flooderMain: args are catcher machine, sends, slot.
func (f *flood) flooderMain(p *kernel.Process) int {
	n, slot := argInt(p, 1), argInt(p, 2)
	if n < 0 || slot < 0 || slot >= len(f.batchNS) {
		return 2
	}
	to, err := destName(p, arg(p, 0), floodPort)
	if err != nil {
		return 1
	}
	fd, err := dgramSocket(p, 0)
	if err != nil {
		return 1
	}
	var payload [96]byte
	out := f.batchNS[slot][:0]
	start := time.Now()
	f.began[slot] = start
	for i := 0; i < n; i++ {
		if _, err := p.SendTo(fd, payload[:f.lengths[i&1023]], to); err != nil {
			return 1
		}
		if (i+1)%floodBatch == 0 {
			now := time.Now()
			out = append(out, now.Sub(start).Nanoseconds())
			start = now
		}
	}
	f.batchNS[slot] = out
	return 0
}

type ingestRig struct {
	*rig
	fl *flood
}

func setupIngest(cfg runConfig, slots int) (*ingestRig, error) {
	r, err := boot(cfg.tr, ingestMachines...)
	if err != nil {
		return nil, err
	}
	fl := &flood{batchNS: make([][]int64, slots), began: make([]time.Time, slots)}
	rng := cfg.rng(1)
	for i := range fl.lengths {
		fl.lengths[i] = uint8(32 + rng.Intn(64))
	}
	for i := range fl.batchNS {
		fl.batchNS[i] = make([]int64, 0, floodRoundSends/floodBatch)
	}
	if err := r.sys.RegisterWorkload("flooder", fl.flooderMain); err == nil {
		err = r.sys.RegisterWorkload("catcher", catcherMain)
	}
	if err == nil {
		err = r.script(
			"filter f filt",
			"newjob catch f",
			"addprocess catch sink catcher "+strconv.Itoa(floodPort),
			"startjob catch",
		)
	}
	if err != nil {
		r.shutdown()
		return nil, err
	}
	return &ingestRig{rig: r, fl: fl}, nil
}

// floodPhase runs one job of two flooders and waits until the filter's
// store holds wantRecords more records than before. It returns the
// phase's cost from startjob to store-visible.
func (r *ingestRig) floodPhase(job string, sends, firstSlot int, flags string, wantRecords int64) (phase, error) {
	cmds := []string{"newjob " + job + " f"}
	if flags != "" {
		cmds = append(cmds, "setflags "+job+" "+flags)
	}
	for i := 0; i < floodFlooders; i++ {
		cmds = append(cmds, fmt.Sprintf("addprocess %s leaf%d flooder sink %d %d", job, i, sends, firstSlot+i))
	}
	if err := r.script(cmds...); err != nil {
		return phase{}, err
	}
	base := r.counter("filt", "store.appends")
	sp := r.tr.begin("bench", "flood."+job, 0)
	before := readUsage()
	r.exec("startjob " + job)
	if err := awaitJob(r.ctl, job, 150*time.Second); err != nil {
		return phase{}, err
	}
	if err := r.waitCounter("filt", "store.appends", base+wantRecords, 30*time.Second); err != nil {
		return phase{}, err
	}
	ph := readUsage().since(before)
	sp.end()
	return ph, r.script("removejob " + job)
}

// runSample turns one flooder run's batch durations into one sample:
// its mean time per 1 000 sends.
func (f *flood) runSample(s *samples, slot int) {
	var total time.Duration
	for _, ns := range f.batchNS[slot] {
		total += time.Duration(ns)
	}
	s.add(total*1000/time.Duration(floodBatch*len(f.batchNS[slot])), f.began[slot].Add(total))
}

// floodPerRound is what one metered round puts into the filter: every
// send and one termination record per flooder.
const floodPerRound = floodFlooders * (floodRoundSends + 1)

// epoch runs n rounds on this cluster, numbered from first, and checks
// what they left in the filter's two sinks.
func (r *ingestRig) epoch(o *outcome, first, n int, corrupt bool) error {
	fl := r.fl
	for i := 0; i < n; i++ {
		round, slot := first+i, 2*floodFlooders*i
		if _, err := r.floodPhase(fmt.Sprintf("unmetered%d", round), floodUnmeteredSends, slot, "", 0); err != nil {
			return err
		}
		ph, err := r.floodPhase(fmt.Sprintf("metered%d", round), floodRoundSends, slot+floodFlooders, "send termproc", floodPerRound)
		if err != nil {
			return err
		}
		o.addRound(floodPerRound, ph)
		for f := 0; f < floodFlooders; f++ {
			fl.runSample(o.class("send_unmetered"), slot+f)
			fl.runSample(o.class("send_metered"), slot+floodFlooders+f)
		}
		// After each round the user fetches the new part of the trace,
		// as the paper's user does with getlog (section 3.4). The flood
		// has left this process a heap of hundreds of megabytes; whether
		// the runtime collects it during this getlog or the next is chance
		// and costs 100-400 ms, so it is collected first.
		runtime.GC()
		out, d := r.timed("getlog", "getlog f flood.log")
		o.attempted++
		if out != "" {
			o.fail(1, "getlog after round %d: %s", round, firstLine(out))
			continue
		}
		o.class("getlog").add(d, time.Now())
	}
	want := int64(n) * floodPerRound
	o.attempted += int(want)
	perLeaf := make(map[string]int64)
	for _, leaf := range []string{"leaf0", "leaf1"} {
		id := r.machine(leaf).ID()
		perLeaf[fmt.Sprintf("SEND machine=%d", id)] = int64(n * floodRoundSends)
		perLeaf[fmt.Sprintf("TERMPROC machine=%d", id)] = int64(n)
	}
	verifySinks(r.rig, o, "filt", "f", want, perLeaf, corrupt)
	// One more getlog brings whatever the log's writer still held back;
	// the copy on the controller's machine must then be the filter's
	// log, byte for byte.
	r.exec("getlog f flood.log")
	log, err := r.readLog("filt", "f", want)
	if fetched := r.resultFile("flood.log"); err != nil || !bytes.Equal(fetched, log) {
		o.fail(1, "getlog fetched %d bytes, the log has %d (%v)", len(fetched), len(log), err)
	}
	return nil
}

func runIngestFlood(cfg runConfig) (*outcome, error) {
	rounds := max(cfg.scaled(floodPerSecond)/floodRoundSends, 1)
	setup := func() (*ingestRig, error) { return setupIngest(cfg, 2*floodFlooders*min(rounds, floodEpochRounds)) }
	r, took, err := timeSetups(cfg.setups, setup)
	if err != nil {
		return nil, err
	}
	defer func() { r.shutdown() }()
	o := newOutcome()
	o.setups = took
	// The filter's log and segments are byte slices that grow by
	// reallocation, every few rounds and then by tens of megabytes, and
	// the write path has a fast and a slow gait it changes between from
	// round to round: one round costs five times another. The whole
	// phase is steady where its rounds are not, and so is the mean of the
	// flooders' send times where their median is not.
	o.wholePhase = true
	o.class("send_unmetered").parts = true
	o.class("send_metered").parts = true
	// A getlog moves megabytes from slice to slice and computes little.
	// In six sets of ten runs its time was steadier as the clock read it
	// (8-12 % between quartiles) than divided by the host's slowness
	// (9-17 %), which follows what slows computing.
	o.class("getlog").asRead = true

	// An epoch is floodEpochRounds rounds on one cluster. The next epoch
	// gets a new one, so that this process's heap stays below a gigabyte
	// however long the run.
	var want int64
	for first := 0; first < rounds; first += floodEpochRounds {
		if first > 0 {
			r.shutdown()
			var again []setupRun
			if r, again, err = timeSetups(1, setup); err != nil {
				return nil, err
			}
			o.setups = append(o.setups, again...)
		}
		n := min(floodEpochRounds, rounds-first)
		if err := r.epoch(o, first, n, cfg.corruptReference); err != nil {
			return nil, err
		}
		want += int64(n) * floodPerRound
	}

	o.extra["meter_overhead_x"] = metric{Unit: "x", N: o.ops["send_metered"].n(),
		Value: ratio(mean(o.ops["send_metered"].ms), mean(o.ops["send_unmetered"].ms))}

	// With the flood over and the store at its largest, a user asks the
	// cluster how it is doing. The flood leaves the Go runtime a heap of
	// hundreds of megabytes to sweep and return; that is the harness's
	// process, not the monitor's doing, so it is collected first.
	runtime.GC()
	for i := 0; i < floodStats; i++ {
		out, d := r.timed("stats", "stats")
		o.attempted++
		if !statsComplete(out, len(ingestMachines)) {
			o.fail(1, "stats after the flood: %s", firstLine(out))
			continue
		}
		o.class("stats").add(d, time.Now())
	}
	fl := r.fl
	o.opHash = hashBytes(fl.lengths[:])
	o.refHash = uint64(want)
	if cfg.tr != nil {
		leaf0 := r.machine("leaf0")
		mid := leaf0.Clock().NowMillis() / 2
		o.metered, o.kept = float64(want), float64(want)
		probeLayers(o, probeInput{
			r: r.rig, filterMachine: "filt", filterName: "f", scale: cfg.probeScale(),
			events: sendEvents(4096, []uint16{leaf0.ID(), r.machine("leaf1").ID()},
				func(i int) uint32 { return uint32(fl.lengths[i&1023]) },
				meter.InetName(r.machine("sink").PrimaryHostID(), floodPort)),
			// Scans and aggregates over a store this size outlast the
			// session's retry deadline on the seed; only the pruned
			// point query is replayed.
			pointRules: fmt.Sprintf("machine=%d,cpuTime>=%d,cpuTime<%d,type=1", leaf0.ID(), mid, mid+mixPointWindowMS),
		})
	}
	return o, nil
}

// verifySinks checks a filter's two sinks against each other and
// against what was sent: the store must hold want records, the flat
// log want lines, and the log's per-type-and-machine counts must equal
// perKey. It reads the store through store.OpenReader, not through a
// controller query: at flood size a query exhausts the session's retry
// deadline on the seed. It also records what the two sinks weigh.
// corrupt raises the expectation by one record, which must fail.
func verifySinks(r *rig, o *outcome, machine, filterName string, want int64, perKey map[string]int64, corrupt bool) {
	log, logErr := r.readLog(machine, filterName, want)
	if corrupt {
		want++
	}
	rd, err := store.OpenReader(store.NewFsysBackend(r.machine(machine).FS(), r.sys.UID, filter.StorePath(filterName)))
	if err != nil {
		o.fail(int(want), "open store: %v", err)
		return
	}
	var stored int64
	for _, shard := range rd.Shards() {
		for _, seg := range shard {
			if seg.Sealed {
				stored += int64(seg.Index.Count)
				continue
			}
			s, err := seg.Load()
			if err != nil {
				o.problem("load %s: %v", seg.Name, err)
				continue
			}
			stored += int64(len(s.Recs))
		}
	}
	if stored != want {
		o.fail(int(abs(want-stored)), "store holds %d records, want %d", stored, want)
	}
	if logErr != nil {
		o.fail(int(want), "read flat log: %v", logErr)
		return
	}
	counts, lines := countLog(log)
	if lines != want {
		o.fail(int(abs(want-lines)), "flat log holds %d records, want %d", lines, want)
	}
	for key, n := range perKey {
		if counts[key] != n {
			o.problem("flat log has %d of %q, want %d", counts[key], key, n)
		}
	}
	storeBytes, _ := r.diskBytes(machine, filterName)
	o.diskBytes += storeBytes + int64(len(log))
	o.diskRecords += lines
}

// countLog counts a flat log's lines by their first two fields, the
// record type and the machine, without parsing the rest.
func countLog(log []byte) (map[string]int64, int64) {
	counts := make(map[string]int64)
	var lines int64
	for len(log) > 0 {
		line := log
		if i := bytes.IndexByte(log, '\n'); i >= 0 {
			line, log = log[:i], log[i+1:]
		} else {
			log = nil
		}
		if len(line) == 0 {
			continue
		}
		lines++
		end := len(line)
		if sp := bytes.IndexByte(line, ' '); sp >= 0 {
			if sp2 := bytes.IndexByte(line[sp+1:], ' '); sp2 >= 0 {
				end = sp + 1 + sp2
			}
		}
		counts[string(line[:end])]++
	}
	return counts, lines
}

func abs[T int | int64](v T) T {
	if v < 0 {
		return -v
	}
	return v
}
