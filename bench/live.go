package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/trace"
)

// live_mixed: open loop, writes beside reads, for exactly the budget.
// Four paced sources send on an absolute schedule while their catcher
// is metered too; the filter's template keeps the sends and discards
// their pid (Figure 3.4). Meanwhile a prober sends one uniquely sized
// datagram every 50 ms and a poller asks the controller for it until
// it is there (freshness), and a reader asks every 25 ms, in turn, for
// stats, a recent-window point query, stats, a recent-window aggregate.
// Every latency runs from the operation's due time.
const (
	livePort = 7702

	liveSources            = 4
	liveSendsPerSourceTick = 4 // 2000 sends/s per source
	liveTick               = 2 * time.Millisecond
	liveProbeEvery         = 50 * time.Millisecond
	liveProbeBase          = 200 // probe k is liveProbeBase+k bytes long; sources send 64
	liveProbeTimeout       = 2 * time.Second
	// A probe is found by the first poll that reads the store after its
	// record got there, and a poll takes 2-7 ms: asked for at once, a
	// probe's freshness is one poll or two, and the share of each jumps
	// with small changes of the pipeline's latency. So probe k is first
	// asked for liveProbeStagger*(k mod 16)/16 after it was sent. Over
	// sixteen probes the first poll then starts at every phase of a
	// poll's length, and measured freshness rises evenly with the
	// latency, at the price of reading half a stagger longer than it is.
	liveProbeStagger = 4 * time.Millisecond
	liveReadEvery    = 25 * time.Millisecond
	liveReadTries    = 4
	// Machine time is charged per system call and gossiped with every
	// message, so the whole cluster runs at the pace of its busiest
	// machine: the catcher's 8 000 receives a second make about 1.6 s of
	// machine time per second. A 600 ms window of machine time is then
	// about 375 ms of wall time, some 750 sends of one source.
	liveRecentMS = 600
	// The reader starts once there is a window's worth to read.
	liveReadWarmup          = 200 * time.Millisecond
	liveTemplate            = "type=1, pid=#*\n"
	liveTemplatePath        = "/usr/live.templates"
	liveSourcePayload       = 64
	liveMaxProbePayloadSize = 4096
)

var liveMachines = []string{"src0", "src1", "src2", "src3", "sink", "prb", "filt", "ctl"}

// pacing is the state the paced programs share with the harness.
type pacing struct {
	start    time.Time
	ticks    int
	probes   int
	lateNS   [liveSources][]int64 // how late each tick started
	probeC0  []int64              // the prober's machine clock just before probe k
	probeOut chan int             // probe numbers, in order, once sent
}

func sleepUntil(t time.Time) time.Duration {
	d := time.Until(t)
	if d > 0 {
		time.Sleep(d)
		return 0
	}
	return -d
}

// sourceMain: args are catcher machine, source number.
func (l *pacing) sourceMain(p *kernel.Process) int {
	src := argInt(p, 1)
	if src < 0 || src >= liveSources {
		return 2
	}
	to, err := destName(p, arg(p, 0), livePort)
	if err != nil {
		return 1
	}
	fd, err := dgramSocket(p, 0)
	if err != nil {
		return 1
	}
	var payload [liveSourcePayload]byte
	late := l.lateNS[src][:0]
	for tick := 0; tick < l.ticks; tick++ {
		late = append(late, sleepUntil(l.start.Add(time.Duration(tick)*liveTick)).Nanoseconds())
		for i := 0; i < liveSendsPerSourceTick; i++ {
			if _, err := p.SendTo(fd, payload[:], to); err != nil {
				return 1
			}
		}
	}
	l.lateNS[src] = late
	return 0
}

// proberMain: arg is the catcher machine.
func (l *pacing) proberMain(p *kernel.Process) int {
	to, err := destName(p, arg(p, 0), livePort)
	if err != nil {
		return 1
	}
	fd, err := dgramSocket(p, 0)
	if err != nil {
		return 1
	}
	payload := make([]byte, liveMaxProbePayloadSize)
	defer close(l.probeOut)
	for k := 0; k < l.probes; k++ {
		sleepUntil(l.start.Add(time.Duration(k) * liveProbeEvery))
		l.probeC0[k] = p.Machine().Clock().NowMillis()
		if _, err := p.SendTo(fd, payload[:liveProbeBase+k], to); err != nil {
			return 1
		}
		l.probeOut <- k
	}
	return 0
}

type liveRig struct {
	*rig
	l *pacing
}

func setupLive(cfg runConfig) (*liveRig, error) {
	r, err := boot(cfg.tr, liveMachines...)
	if err != nil {
		return nil, err
	}
	duration := time.Duration(cfg.seconds * float64(time.Second))
	l := &pacing{
		ticks:  int(duration / liveTick),
		probes: int(duration / liveProbeEvery),
	}
	for i := range l.lateNS {
		l.lateNS[i] = make([]int64, 0, l.ticks)
	}
	l.probeC0 = make([]int64, l.probes)
	// Sized to every send, so the prober never waits for the poller.
	l.probeOut = make(chan int, l.probes)
	for name, prog := range map[string]kernel.Program{"source": l.sourceMain, "prober": l.proberMain, "catcher": catcherMain} {
		if err == nil {
			err = r.sys.RegisterWorkload(name, prog)
		}
	}
	if err == nil {
		err = r.machine("filt").FS().Create(liveTemplatePath, r.sys.UID, fsys.PrivateMode, []byte(liveTemplate))
	}
	if err == nil {
		cmds := []string{
			"filter f filt filter /etc/meter/descriptions " + liveTemplatePath,
			"newjob catch f", "setflags catch receive",
			"addprocess catch sink catcher " + strconv.Itoa(livePort), "startjob catch",
			"newjob probe f", "setflags probe send immediate", "addprocess probe prb prober sink",
			"newjob src f", "setflags src send",
		}
		for i := 0; i < liveSources; i++ {
			cmds = append(cmds, fmt.Sprintf("addprocess src src%d source sink %d", i, i))
		}
		err = r.script(cmds...)
	}
	if err != nil {
		r.shutdown()
		return nil, err
	}
	return &liveRig{rig: r, l: l}, nil
}

// liveRead is one reader operation with what it needs to be checked.
type liveRead struct {
	class   string
	machine int   // point queries: the machine asked about
	since   int64 // lower cpuTime bound
	data    []byte
	took    time.Duration
	done    time.Time
	retries int
}

// ask is one controller command from a client that shares the
// controller with others: it removes the result file first, so that a
// command that failed cannot be mistaken for one that answered with
// the previous result, then runs the command and reads the file back.
func (r *liveRig) ask(class, cmd, dest string) []byte {
	if dest != "" {
		_ = r.home.FS().Remove("/usr/"+dest, r.sys.UID) // absent before the first answer
	}
	sp := r.tr.begin("controller", class, 0)
	r.ctl.Exec(cmd)
	sp.end()
	return r.resultFile(dest)
}

// liveAnswered reports whether a read came back with records: a table
// with at least one row, or at least one record line.
func liveAnswered(class string, data []byte) bool {
	if class == "agg" {
		rows, err := parseAggTable(data)
		return err == nil && len(rows) > 0
	}
	return len(data) > 0
}

func runLiveMixed(cfg runConfig) (*outcome, error) {
	r, took, err := timeSetups(cfg.setups,
		func() (*liveRig, error) { return setupLive(cfg) })
	if err != nil {
		return nil, err
	}
	defer r.shutdown()
	o := newOutcome()
	o.setups = took
	l := r.l
	duration := time.Duration(l.ticks) * liveTick
	prober := int(r.machine("prb").ID())

	l.start = time.Now().Add(20 * time.Millisecond)
	before := readUsage()
	if err := r.script("startjob src", "startjob probe"); err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	// The poller: one probe at a time, asked for until it is there.
	fresh := o.class("freshness")
	var probeFailed, probeWrong, polls int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range l.probeOut {
			due := l.start.Add(time.Duration(k) * liveProbeEvery)
			sleepUntil(due.Add(liveProbeStagger * time.Duration(k*5%16) / 16))
			cmd := fmt.Sprintf("query f probe machine=%d,msgLength=%d,cpuTime>=%d", prober, liveProbeBase+k, l.probeC0[k])
			for {
				polls++
				found := bytes.Count(r.ask("freshness_poll", cmd, "probe"), []byte{'\n'})
				if found == 1 {
					now := time.Now()
					fresh.add(now.Sub(due), now)
					break
				}
				if found > 1 {
					probeWrong++
					break
				}
				if time.Since(due) > liveProbeTimeout {
					probeFailed++
					break
				}
			}
		}
	}()
	// The reader: stats, a point query, stats, an aggregate, in turn.
	reads := make([]liveRead, 0, int(duration/liveReadEvery)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			due := l.start.Add(liveReadWarmup + time.Duration(i)*liveReadEvery)
			if due.Sub(l.start) >= duration {
				return
			}
			sleepUntil(due)
			src := r.machine(fmt.Sprintf("src%d", i/4%liveSources))
			rd := liveRead{machine: int(src.ID()), since: max(src.Clock().NowMillis()-liveRecentMS, 0)}
			var cmd, dest string
			switch i % 4 {
			case 1:
				rd.class, dest = "query_point", "recent"
				cmd = fmt.Sprintf("query f recent machine=%d,cpuTime>=%d,type=1", rd.machine, rd.since)
			case 3:
				rd.class, dest = "agg", "recentagg"
				cmd = fmt.Sprintf("query f recentagg cpuTime>=%d agg count by machine", rd.since)
			default:
				rd.class, cmd = "stats", "stats"
			}
			// A query that finds nothing where the sources are writing
			// has hit the store mid-maintenance (see README, "retries");
			// the user asks again.
			for try := 0; try < liveReadTries; try++ {
				rd.data = r.ask(rd.class, cmd, dest)
				if dest == "" || liveAnswered(rd.class, rd.data) {
					break
				}
				rd.retries++
			}
			rd.done = time.Now()
			rd.took = rd.done.Sub(due)
			reads = append(reads, rd)
		}
	}()

	if err := awaitJob(r.ctl, "src", duration+60*time.Second); err != nil {
		return nil, err
	}
	if err := awaitJob(r.ctl, "probe", 60*time.Second); err != nil {
		return nil, err
	}
	wg.Wait()
	sends := int64(liveSources * l.ticks * liveSendsPerSourceTick)
	drops := int64(0)
	for _, m := range liveMachines {
		drops += r.counter(m, "faults.meter_drops")
	}
	kept := sends + int64(l.probes) - drops
	if err := r.waitCounter("filt", "store.appends", kept, 30*time.Second); err != nil {
		o.problem("drain: %v", err)
	}
	o.addRound(float64(kept), readUsage().since(before))
	o.openLoop = true
	// Nearly all that is allocated here is allocated by the commands (a
	// query reads every segment of the store), and how many polls a probe
	// needs moves with the host's speed: allocation is counted per
	// command, not per record.
	commands := polls
	for i := range reads {
		commands += 1 + reads[i].retries
	}
	o.rounds[0].allocUnits = float64(commands)
	terminalText := r.term.take()

	o.attempted = int(sends) + l.probes + len(reads)
	o.fail(int(drops), "%d meter messages dropped", drops)
	o.fail(probeFailed, "%d probes not queryable within %v", probeFailed, liveProbeTimeout)
	o.fail(probeWrong, "%d probes returned more than once", probeWrong)
	retries := r.checkReads(o, reads, terminalText)

	perKey := map[string]int64{fmt.Sprintf("SEND machine=%d", prober): int64(l.probes)}
	for i := 0; i < liveSources; i++ {
		perKey[fmt.Sprintf("SEND machine=%d", r.machine(fmt.Sprintf("src%d", i)).ID())] = int64(l.ticks * liveSendsPerSourceTick)
	}
	verifySinks(r.rig, o, "filt", "f", kept, perKey, cfg.corruptReference)

	var late []float64
	for _, src := range l.lateNS {
		for _, ns := range src {
			late = append(late, float64(ns)/1e6)
		}
	}
	o.extra["generator_late_ms_p99"] = metric{Value: quantile(late, 0.99), Unit: "ms", N: len(late)}
	o.extra["read_retries"] = metric{Value: float64(retries), Unit: "count", N: len(reads)}
	o.extra["freshness_ms_p99"] = metric{Value: fresh.p(0.99), Unit: "ms", N: fresh.n()}
	o.extra["filter_kept_share"] = metric{
		Value: ratio(float64(r.counter("filt", "filter.kept")), float64(r.counter("filt", "filter.received"))), Unit: "share", N: int(kept)}
	o.opHash = hashBytes([]byte(fmt.Sprintf("%d sends %d probes %d reads", sends, l.probes, len(reads))))
	o.refHash = uint64(kept)
	if cfg.tr != nil {
		src0, sink := r.machine("src0"), r.machine("sink")
		since := max(src0.Clock().NowMillis()-liveRecentMS, 0)
		// The event mix: each source's send and the catcher's receipt
		// of it, alternating.
		events := sendEvents(4096, []uint16{src0.ID(), r.machine("src1").ID(), r.machine("src2").ID(), r.machine("src3").ID()},
			func(int) uint32 { return liveSourcePayload }, meter.InetName(sink.PrimaryHostID(), livePort))
		for i := 1; i < len(events); i += 2 {
			events[i].Header.Machine = sink.ID()
			events[i].Body = &meter.Recv{PID: 2, PC: uint32(4 * i), Sock: 5, MsgLength: liveSourcePayload,
				SourceNameLen: meter.NameSize, SourceName: meter.InetName(src0.PrimaryHostID(), 1024)}
		}
		o.metered, o.kept = float64(2*(sends+int64(l.probes))), float64(kept)
		probeLayers(o, probeInput{
			r: r.rig, filterMachine: "filt", filterName: "f", scale: cfg.probeScale(), events: events, template: liveTemplate,
			pointRules: fmt.Sprintf("machine=%d,cpuTime>=%d,type=1", src0.ID(), since),
			scanRules:  fmt.Sprintf("msgLength>=%d", liveProbeBase),
			aggRules:   fmt.Sprintf("cpuTime>=%d", since), aggSpec: "agg count by machine",
		})
	}
	return o, nil
}

// checkReads validates the reader's answers. The store moves under the
// reader, so there is no single right answer to compare with; what can
// be checked is that every record returned satisfies the query, that
// a window the sources were writing into is not empty, and that every
// stats command heard from every machine. It returns how many reads
// had to be asked again.
func (r *liveRig) checkReads(o *outcome, reads []liveRead, terminalText string) (retries int) {
	machines := make(map[string]bool)
	for _, m := range liveMachines {
		machines[strconv.Itoa(int(r.machine(m).ID()))] = true
	}
	wantStats := 0
	for i := range reads {
		rd := &reads[i]
		retries += rd.retries
		if err := r.checkRead(rd, machines); err != nil {
			o.fail(1, "%v", err)
			continue
		}
		if rd.class == "stats" {
			wantStats++
		}
		o.class(rd.class).add(rd.took, rd.done)
	}
	all := fmt.Sprintf("stats: %d/%d machines reporting", len(liveMachines), len(liveMachines))
	if got := strings.Count(terminalText, all); got != wantStats {
		o.fail(abs(wantStats-got), "%d of %d stats commands heard from every machine", got, wantStats)
	}
	return retries
}

func (r *liveRig) checkRead(rd *liveRead, machines map[string]bool) error {
	switch rd.class {
	case "agg":
		rows, err := parseAggTable(rd.data)
		if err != nil || len(rows) == 0 {
			return fmt.Errorf("recent aggregate since %d: %d rows, %v", rd.since, len(rows), err)
		}
		for _, row := range rows {
			if machine, _, _ := strings.Cut(row, "="); !machines[machine] {
				return fmt.Errorf("recent aggregate names machine %s", machine)
			}
		}
	case "query_point":
		if len(rd.data) == 0 {
			return fmt.Errorf("recent window of machine %d since %d is empty", rd.machine, rd.since)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(rd.data, []byte{'\n'}), []byte{'\n'}) {
			e, err := trace.ParseOne(line)
			if err != nil || e.Machine != rd.machine || e.Type != meter.EvSend || e.CPUTime < rd.since {
				return fmt.Errorf("recent window of machine %d since %d returned %q", rd.machine, rd.since, line)
			}
		}
	}
	return nil
}
