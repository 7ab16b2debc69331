package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// query_mix: closed loop, read-only, one client. Set-up preloads two
// stores on two machines through the real ingest path; then one
// controller executes a seeded sequence of point queries, scans,
// grouped and top-k aggregates and cluster-wide stats, one after the
// other. Nothing is ingested while it reads.
const (
	mixPort = 7701

	mixLeaves        = 8 // leaves 0-3 feed f1, 4-7 feed f2
	mixSendsPerLeaf  = 4000
	mixLengthLow     = 16 // message lengths cycle 16..2015
	mixLengthSpan    = 2000
	mixPointWindowMS = 50

	// Operations per budget second, by class: half point queries, the
	// rest split between scans, the two aggregates and stats. At the
	// seed one budget second of these takes about 0.8 s.
	mixPointPerSecond    = 16
	mixScanPerSecond     = 5
	mixAggGroupPerSecond = 4
	mixAggTopKPerSecond  = 4
	mixStatsPerSecond    = 3
)

var mixMachines = []string{
	"leaf0", "leaf1", "leaf2", "leaf3", "leaf4", "leaf5", "leaf6", "leaf7",
	"fa", "fb", "sink", "ctl",
}

// sender is the preload program's shared state: each leaf's
// message-length walk, fixed by the seed.
type sender struct {
	start, step [mixLeaves]int
}

// senderMain: args are catcher machine, sends, leaf number. Each send
// is preceded by a little computation so the records spread over
// seconds of machine time, which is what windows and time ranges
// select on.
func (s *sender) senderMain(p *kernel.Process) int {
	n, leaf := argInt(p, 1), argInt(p, 2)
	if n < 0 || leaf < 0 || leaf >= mixLeaves {
		return 2
	}
	to, err := destName(p, arg(p, 0), mixPort)
	if err != nil {
		return 1
	}
	fd, err := dgramSocket(p, 0)
	if err != nil {
		return 1
	}
	payload := make([]byte, mixLengthLow+mixLengthSpan)
	for i := 0; i < n; i++ {
		p.Compute(800 * time.Microsecond)
		length := mixLengthLow + (s.start[leaf]+i*s.step[leaf])%mixLengthSpan
		if _, err := p.SendTo(fd, payload[:length], to); err != nil {
			return 1
		}
	}
	return 0
}

func noopMain(*kernel.Process) int { return 0 }

// mixOp is one operation of the sequence with its reference answer.
type mixOp struct {
	class string
	cmd   string
	rules string   // the query's rule argument, as the controller takes it
	spec  string   // the aggregate specification, "" for record queries
	dest  string   // result file, "" for stats
	want  answer   // record queries
	rows  []string // aggregate queries
	// drawn is what the seed alone decided about the operation (class,
	// target, where in the leaf's time span, threshold): machine clocks
	// are not reproducible, so the concrete cpuTime bounds in cmd are not
	// either.
	drawn string
}

type mixRig struct {
	*rig
	ops []mixOp
	// records preloaded, and the bytes they take on the two filters'
	// file systems.
	records int64
	disk    int64
	refs    [2][]refRecord
}

func filterOfLeaf(leaf int) int { return leaf / (mixLeaves / 2) }

func setupQueryMix(cfg runConfig) (*mixRig, error) {
	r, err := boot(cfg.tr, mixMachines...)
	if err != nil {
		return nil, err
	}
	m := &mixRig{rig: r}
	if err := m.preload(cfg); err != nil {
		r.shutdown()
		return nil, err
	}
	return m, nil
}

func (m *mixRig) preload(cfg runConfig) error {
	snd := &sender{}
	rng := cfg.rng(2)
	for i := range snd.start {
		snd.start[i] = rng.Intn(mixLengthSpan)
		snd.step[i] = 2*rng.Intn(400) + 201 // odd and not a multiple of 5: coprime with 2000
		for snd.step[i]%5 == 0 {
			snd.step[i] += 2
		}
	}
	for name, prog := range map[string]kernel.Program{"sender": snd.senderMain, "catcher": catcherMain, "noop": noopMain} {
		if err := m.sys.RegisterWorkload(name, prog); err != nil {
			return err
		}
	}
	cmds := []string{
		"filter f1 fa", "filter f2 fb",
		"newjob catch f1", "addprocess catch sink catcher " + strconv.Itoa(mixPort), "startjob catch",
		// Leaf k's sender should be process k+2 of its machine, so that
		// the eight senders have eight pids for top-k to rank.
		"newjob pad f1",
	}
	for leaf := 0; leaf < mixLeaves; leaf++ {
		for i := 0; i < leaf; i++ {
			cmds = append(cmds, fmt.Sprintf("addprocess pad leaf%d noop", leaf))
		}
	}
	cmds = append(cmds, "startjob pad",
		"newjob j1 f1", "setflags j1 send termproc",
		"newjob j2 f2", "setflags j2 send termproc")
	for leaf := 0; leaf < mixLeaves; leaf++ {
		cmds = append(cmds, fmt.Sprintf("addprocess j%d leaf%d sender sink %d %d", filterOfLeaf(leaf)+1, leaf, mixSendsPerLeaf, leaf))
	}
	cmds = append(cmds, "startjob j1", "startjob j2")
	if err := m.script(cmds...); err != nil {
		return err
	}
	perFilter := int64(mixLeaves / 2 * (mixSendsPerLeaf + 1))
	for _, fm := range []string{"fa", "fb"} {
		if err := m.waitCounter(fm, "store.appends", perFilter, 60*time.Second); err != nil {
			return err
		}
	}
	for _, job := range []string{"pad", "j1", "j2"} {
		if err := waitJob(m.ctl, job, 60*time.Second); err != nil {
			return err
		}
	}
	if err := m.script("removejob pad", "removejob j1", "removejob j2"); err != nil {
		return err
	}
	for i, f := range []struct{ machine, name string }{{"fa", "f1"}, {"fb", "f2"}} {
		log, err := m.readLog(f.machine, f.name, perFilter)
		if err != nil {
			return err
		}
		if m.refs[i], err = parseReference(log); err != nil {
			return err
		}
		if int64(len(m.refs[i])) != perFilter {
			return fmt.Errorf("preload: %s logged %d records, want %d", f.name, len(m.refs[i]), perFilter)
		}
		storeBytes, logBytes := m.diskBytes(f.machine, f.name)
		m.disk += storeBytes + logBytes
		m.records += perFilter
	}
	m.buildOps(cfg)
	return nil
}

// buildOps generates the seeded operation sequence and answers every
// operation from the flat logs.
func (m *mixRig) buildOps(cfg runConfig) {
	rng := cfg.rng(3)
	both := append(append([]refRecord(nil), m.refs[0]...), m.refs[1]...)
	type span struct{ lo, hi int64 }
	spans := make(map[int]span)
	for i := range both {
		rec := &both[i]
		s, ok := spans[rec.machine]
		if !ok || rec.cpuTime < s.lo {
			s.lo = rec.cpuTime
		}
		if !ok || rec.cpuTime > s.hi {
			s.hi = rec.cpuTime
		}
		spans[rec.machine] = s
	}
	var ops []mixOp
	for i := 0; i < cfg.scaled(mixPointPerSecond); i++ {
		leaf, at := rng.Intn(mixLeaves), rng.Float64()
		f := filterOfLeaf(leaf)
		machine := int(m.machine(fmt.Sprintf("leaf%d", leaf)).ID())
		s := spans[machine]
		a := s.lo + int64(at*float64(max(s.hi-s.lo-mixPointWindowMS, 1)))
		rules := fmt.Sprintf("machine=%d,cpuTime>=%d,cpuTime<%d,type=1", machine, a, a+mixPointWindowMS)
		ops = append(ops, mixOp{
			class: "query_point", dest: "qpoint", rules: rules,
			drawn: fmt.Sprintf("point leaf%d %.6f", leaf, at),
			cmd:   fmt.Sprintf("query f%d qpoint %s", f+1, rules),
			want: selectRef(m.refs[f], func(r *refRecord) bool {
				return r.machine == machine && r.cpuTime >= a && r.cpuTime < a+mixPointWindowMS && r.typ == meter.EvSend
			}),
		})
	}
	for i := 0; i < cfg.scaled(mixScanPerSecond); i++ {
		f := rng.Intn(2)
		// About one length in a hundred is this long: unprunable, and
		// nearly every record is decoded and rejected.
		x := mixLengthLow + mixLengthSpan - 15 - rng.Intn(10)
		rules := fmt.Sprintf("msgLength>=%d", x)
		ops = append(ops, mixOp{
			class: "query_scan", dest: "qscan", rules: rules,
			drawn: fmt.Sprintf("scan f%d %d", f+1, x),
			cmd:   fmt.Sprintf("query f%d qscan %s", f+1, rules),
			want:  selectRef(m.refs[f], func(r *refRecord) bool { return r.hasLen && r.msgLen >= x }),
		})
	}
	groupRows := groupRef(both,
		func(r *refRecord) (string, bool) {
			return fmt.Sprintf("%d,%d", r.cpuTime/1000*1000, r.machine), true
		},
		func(*refRecord) int64 { return 1 }, 0)
	for i := 0; i < cfg.scaled(mixAggGroupPerSecond); i++ {
		ops = append(ops, mixOp{class: "agg_group", dest: "qgroup", rows: groupRows,
			spec: "agg count by machine window 1s", drawn: "agg_group",
			cmd: "query all qgroup agg count by machine window 1s"})
	}
	topRows := groupRef(both,
		func(r *refRecord) (string, bool) { return strconv.Itoa(r.pid), r.typ == meter.EvSend },
		func(r *refRecord) int64 { return int64(r.msgLen) }, 10)
	for i := 0; i < cfg.scaled(mixAggTopKPerSecond); i++ {
		ops = append(ops, mixOp{class: "agg_topk", dest: "qtopk", rows: topRows,
			rules: "type=1", spec: "top 10 pid by sum(msgLength)", drawn: "agg_topk",
			cmd: "query all qtopk type=1 top 10 pid by sum(msgLength)"})
	}
	for i := 0; i < cfg.scaled(mixStatsPerSecond); i++ {
		ops = append(ops, mixOp{class: "stats", cmd: "stats", drawn: "stats"})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if cfg.corruptReference {
		ops[0].want.crc++
		ops[0].rows = append(ops[0].rows, "corrupt")
	}
	m.ops = ops
}

var matchedRE = regexp.MustCompile(`matched=(\d+)`)

// check compares one finished operation — what the controller printed
// and the result file it left — with the reference.
func (m *mixRig) check(op *mixOp, out string, data []byte) error {
	if op.class == "stats" {
		if !statsComplete(out, len(mixMachines)) {
			return fmt.Errorf("stats: %s", firstLine(out))
		}
		return nil
	}
	if op.rows != nil {
		if !strings.Contains(out, "2/2 filters reporting") {
			return fmt.Errorf("%s: %s", op.cmd, firstLine(out))
		}
		rows, err := parseAggTable(data)
		if err != nil {
			return fmt.Errorf("%s: %w", op.cmd, err)
		}
		if !sameRows(rows, op.rows) {
			return fmt.Errorf("%s: table %v, reference %v", op.cmd, rows, op.rows)
		}
		return nil
	}
	mm := matchedRE.FindStringSubmatch(out)
	if mm == nil {
		return fmt.Errorf("%s: %s", op.cmd, firstLine(out))
	}
	if got := answerOfFile(data); mm[1] != strconv.Itoa(op.want.matched) || got != op.want {
		return fmt.Errorf("%s: matched=%s file=%+v, reference %+v", op.cmd, mm[1], got, op.want)
	}
	return nil
}

func runQueryMix(cfg runConfig) (*outcome, error) {
	m, took, err := timeSetups(cfg.setups,
		func() (*mixRig, error) { return setupQueryMix(cfg) })
	if err != nil {
		return nil, err
	}
	defer m.shutdown()
	o := newOutcome()
	o.setups = took
	o.diskBytes, o.diskRecords = m.disk, m.records

	// The loop only runs and reads back; answers are checked after the
	// clock stops, so checking is not charged to the monitor.
	type done struct {
		out  string
		data []byte
		took time.Duration
		at   time.Time
	}
	results := make([]done, len(m.ops))
	before := readUsage()
	for i := range m.ops {
		op := &m.ops[i]
		out, d := m.timed(op.class, op.cmd)
		results[i] = done{out, m.resultFile(op.dest), d, time.Now()}
	}
	o.addRound(float64(len(m.ops)), readUsage().since(before))
	for i := range m.ops {
		op, res := &m.ops[i], results[i]
		o.attempted++
		if err := m.check(op, res.out, res.data); err != nil {
			o.fail(1, "%v", err)
			continue
		}
		o.class(op.class).add(res.took, res.at)
	}

	o.extra["agg_topk_ms_p50"] = metric{Value: o.class("agg_topk").p(0.5), Unit: "ms", N: o.class("agg_topk").n()}

	// The operation sequence as the seed drew it, and the reference
	// answers that do not depend on machine clocks: how many records
	// each scan matches, and the top-k table.
	var seq, ref strings.Builder
	for _, op := range m.ops {
		seq.WriteString(op.drawn + "\n")
		switch op.class {
		case "query_scan":
			fmt.Fprintf(&ref, "%d\n", op.want.matched)
		case "agg_topk":
			fmt.Fprintf(&ref, "%v\n", op.rows)
		}
	}
	o.opHash, o.refHash = hashBytes([]byte(seq.String())), hashBytes([]byte(ref.String()))
	if cfg.tr != nil {
		// Replay the first f1 operation of each class against f1's
		// store; the write-side probes get the preload's event mix.
		in := probeInput{r: m.rig, filterMachine: "fa", filterName: "f1", scale: cfg.probeScale(),
			events: sendEvents(4096, []uint16{m.machine("leaf0").ID(), m.machine("leaf1").ID()},
				func(i int) uint32 { return uint32(mixLengthLow + i*207%mixLengthSpan) },
				meter.InetName(m.machine("sink").PrimaryHostID(), mixPort))}
		for _, op := range m.ops {
			onF1 := strings.HasPrefix(op.cmd, "query f1 ")
			switch {
			case op.class == "query_point" && onF1 && in.pointRules == "":
				in.pointRules = op.rules
			case op.class == "query_scan" && onF1 && in.scanRules == "":
				in.scanRules = op.rules
			case op.class == "agg_group" && in.aggSpec == "":
				in.aggRules, in.aggSpec = op.rules, op.spec
			}
		}
		probeLayers(o, in)
	}
	return o, nil
}
