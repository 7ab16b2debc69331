package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the budget the
// workload sizes below were chosen for.
const defaultSeconds = 25

// untracedSetups is how often an untraced run of the declared length
// sets its workload up to report a median set-up time; shorter runs do
// it in proportion.
const untracedSetups = 15

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	ledger   string
	spans    string
	// corrupt flips one reference answer in every workload; the smoke
	// test uses it to see the harness fail.
	corrupt bool
}

// metricDef names a metric of BENCHMARK.json. The tables below are the
// program's copy of that file's metric lists; the smoke test holds the
// two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the monitor would see, reported by every
// workload. op_a, op_b and op_c are the three operations a workload's
// user waits for; which they are is in each workloadDef.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"units_per_s", "1/s", "higher"},
	{"cpu_us_per_unit", "us", "lower"},
	{"alloc_bytes_per_unit", "B", "lower"},
	{"disk_bytes_per_record", "B", "lower"},
	{"op_a_ms", "ms", "lower"},
	{"op_b_ms", "ms", "lower"},
	{"op_c_ms", "ms", "lower"},
}

// workloadDef is one workload: its reason, its unit of work, and the
// operation classes behind the generic latency metrics.
type workloadDef struct {
	name string
	why  string
	// unit is what units_per_s, cpu_us_per_unit and
	// alloc_bytes_per_unit count; throughput is the workload's own name
	// for units_per_s.
	unit       string
	throughput string
	// allocUnit is what alloc_bytes_per_unit counts where that is not
	// unit.
	allocUnit string
	// ops are the operation classes reported as op_a, op_b, op_c.
	ops [3]string
	run func(runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{
		name:       "ingest_flood",
		why:        "closed loop, write-only: the whole data path at saturation with the read side idle; op_a/b/c = 1000 sends metered, 1000 unmetered, getlog of a round",
		unit:       "record",
		throughput: "ingest_records_per_s",
		ops:        [3]string{"send_metered", "send_unmetered", "getlog"},
		run:        runIngestFlood,
	},
	{
		name:       "query_mix",
		why:        "closed loop, read-only, one client over two preloaded stores: controller, session, daemon, query, agg and store-read do the work; op_a/b/c = point query, unprunable scan, grouped aggregate",
		unit:       "op",
		throughput: "read_ops_per_s",
		ops:        [3]string{"query_point", "query_scan", "agg_group"},
		run:        runQueryMix,
	},
	{
		name:       "live_mixed",
		why:        "open loop, 16 k records/s offered beside reads: the store is appended and queried at once and grows from empty; op_a/b/c = freshness (send to queryable), recent point query, recent aggregate",
		unit:       "record",
		allocUnit:  "command",
		throughput: "kept_records_per_s",
		ops:        [3]string{"freshness", "query_point", "agg"},
		run:        runLiveMixed,
	},
	{
		name:       "control_churn",
		why:        "closed loop, control path: short six-process jobs created, started, awaited, removed in sequence; commands, sessions, daemons, process creation work; op_a/b/c = job turnaround, addprocess, startjob",
		unit:       "job",
		throughput: "jobs_per_s",
		ops:        [3]string{"job_turnaround", "addprocess", "startjob"},
		run:        runControlChurn,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runResult is one workload run as written to result files.
type runResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	Problems    []string          `json:"problems,omitempty"`
	OpHash      string            `json:"op_hash"`
	RefHash     string            `json:"ref_hash"`
	Metrics     map[string]metric `json:"metrics"`
}

// environment tags a result with where and when it was measured.
type environment struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Date       string `json:"utc_date"`
}

// suiteResult is a result file. Claim stays last and null: this
// program measures, it claims nothing.
type suiteResult struct {
	Env   environment `json:"env"`
	Seed  int64       `json:"seed"`
	Runs  []runResult `json:"runs"`
	Claim *string     `json:"claim"`
}

func readEnvironment() environment {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Host:       host,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// endToEndMetrics names what an untraced outcome measured. Every time
// among the gated metrics is stated at the reference speed of the host
// (host.go); the same figure as the clock read it is kept beside it as
// raw.<name>.
func endToEndMetrics(def *workloadDef, o *outcome) map[string]metric {
	m := make(map[string]metric)
	h := o.host
	timed := func(name string, v metric, raw float64) {
		m[name] = v
		m["raw."+name] = metric{Value: raw, Unit: v.Unit, N: v.N}
	}
	slow := func(r round) float64 { return h.slowness(interval{r.from, r.to}) }
	per := "_per_" + def.unit

	// Booting a cluster is mostly waiting for goroutines to start and
	// answer (of the 10 ms it takes, this process computes for 2), and
	// measured against the host's speed that did not move with it;
	// preloading the stores of query_mix is work. So of a set-up only the
	// share the processors were busy is put at the reference speed.
	setupS, setupRaw := make([]float64, len(o.setups)), make([]float64, len(o.setups))
	for i, s := range o.setups {
		setupRaw[i] = s.to.Sub(s.from).Seconds()
		busy := min(ratio(s.cpu.Seconds(), setupRaw[i]), 1)
		setupS[i] = setupRaw[i] * (1 - busy + busy/h.slowness(s.interval))
	}
	timed("setup_s", metric{Value: median(setupS), Unit: "s", N: len(setupS)}, median(setupRaw))
	one := func(round) float64 { return 1 }
	units := func(r round) float64 { return r.units }
	seconds := func(scale func(round) float64) func(round) float64 {
		return func(r round) float64 { return r.wall.Seconds() / scale(r) }
	}
	cpuUS := func(scale func(round) float64) func(round) float64 {
		return func(r round) float64 { return float64(r.cpu.Nanoseconds()) / 1e3 / scale(r) }
	}
	if o.openLoop {
		m["units_per_s"] = metric{Unit: "1/s", N: len(o.rounds), Alias: def.throughput, Value: o.overRounds(units, seconds(one))}
	} else {
		timed("units_per_s", metric{Unit: "1/s", N: len(o.rounds), Alias: def.throughput,
			Value: o.overRounds(units, seconds(slow))}, o.overRounds(units, seconds(one)))
	}
	timed("cpu_us_per_unit", metric{Unit: "us", N: len(o.rounds), Alias: "cpu_us" + per,
		Value: o.overRounds(cpuUS(slow), units)}, o.overRounds(cpuUS(one), units))
	allocUnit := def.allocUnit
	if allocUnit == "" {
		allocUnit = def.unit
	}
	m["alloc_bytes_per_unit"] = metric{Unit: "B", N: len(o.rounds), Alias: "alloc_bytes_per_" + allocUnit,
		Value: o.overRounds(func(r round) float64 { return float64(r.alloc) }, func(r round) float64 {
			if r.allocUnits > 0 {
				return r.allocUnits
			}
			return r.units
		})}
	m["disk_bytes_per_record"] = metric{Value: ratio(float64(o.diskBytes), float64(o.diskRecords)), Unit: "B", N: int(o.diskRecords)}
	m["host_slowness_x"] = metric{Value: h.overall(), Unit: "x", N: h.bursts()}
	for i, slot := range []string{"op_a", "op_b", "op_c"} {
		s := o.class(def.ops[i])
		alias := def.ops[i] + "_ms_mid"
		if s.parts {
			alias = def.ops[i] + "_ms_mean"
		}
		timed(slot+"_ms", metric{Value: s.typical(s.atReference(h)), Unit: "ms", N: s.n(), Alias: alias}, s.typical(s.ms))
		// The median and the tail as the clock read them inform; on a
		// shared host they are too unsteady to gate.
		m[def.ops[i]+"_ms_p50"] = metric{Value: s.p(0.5), Unit: "ms", N: s.n()}
		m[def.ops[i]+"_ms_p95"] = metric{Value: s.p(0.95), Unit: "ms", N: s.n()}
	}
	// Cluster-wide stats is asked for on every workload but gates none:
	// a sub-millisecond fan-out whose median moves by a third from run
	// to run on a shared two-core host.
	st := o.class("stats")
	m["stats_ms_p50"] = metric{Value: st.p(0.5), Unit: "ms", N: st.n()}
	for name, v := range o.extra {
		m[name] = v
	}
	return m
}

// execute runs one workload once and names its results. A traced run
// reports the per-layer metrics instead of the end-to-end ones; base is
// the untraced run of the same size it is compared with.
func execute(def *workloadDef, cfg runConfig, opt options, base *outcome) (runResult, *outcome, error) {
	host := startHostMeter()
	o, err := def.run(cfg)
	host.stop()
	if err != nil {
		return runResult{}, nil, fmt.Errorf("%s: %w", def.name, err)
	}
	o.host = host
	res := runResult{
		Workload:  def.name,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Traced:    cfg.tr != nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Problems:  o.problems,
		OpHash:    fmt.Sprintf("%016x", o.opHash),
		RefHash:   fmt.Sprintf("%016x", o.refHash),
	}
	res.Correct = len(o.problems) == 0 && o.failed == 0 && o.attempted > 0
	res.FailedShare = ratio(float64(o.failed), float64(o.attempted))
	if cfg.tr == nil {
		res.Metrics = endToEndMetrics(def, o)
	} else {
		res.Metrics = perLayerMetrics(def, o, base, cfg.tr)
		if opt.spans != "" {
			if err := cfg.tr.write(opt.spans, def.name); err != nil {
				return res, o, err
			}
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			res.Problems = append(res.Problems, name+" is not finite")
		}
	}
	return res, o, nil
}

// run is the program behind main: it returns the exit code.
func run(opt options, w io.Writer) (int, error) {
	defs := workloads
	if opt.workload != "" {
		def := findWorkload(opt.workload)
		if def == nil {
			return 2, fmt.Errorf("no workload %q", opt.workload)
		}
		defs = []workloadDef{*def}
	}
	if opt.seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	if opt.trace == 1 && opt.spans != "" {
		if err := os.WriteFile(opt.spans, nil, 0o644); err != nil {
			return 1, err
		}
	}
	suite := suiteResult{Env: readEnvironment(), Seed: opt.seed}
	ok := true
	var last runResult
	record := func(def *workloadDef, res runResult) {
		printRun(w, def, res)
		suite.Runs = append(suite.Runs, res)
		ok = ok && res.Correct
		last = res
	}
	for i := range defs {
		def := &defs[i]
		cfg := runConfig{seed: opt.seed, seconds: opt.seconds, corruptReference: opt.corrupt,
			setups: min(max(int(untracedSetups*opt.seconds/defaultSeconds), 1), untracedSetups)}
		if opt.workload != "" && opt.trace == 1 {
			// One invocation has one budget: a traced invocation spends
			// it on two half-length runs, untraced then traced.
			cfg.seconds /= 2
			cfg.setups = 1
		}
		res, untraced, err := execute(def, cfg, opt, nil)
		if err != nil {
			return 1, err
		}
		record(def, res)
		if opt.trace == 1 {
			cfg.tr, cfg.setups = newTracer(), 1
			if res, _, err = execute(def, cfg, opt, untraced); err != nil {
				return 1, err
			}
			record(def, res)
		}
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, suite); err != nil {
			return 1, err
		}
	}
	if opt.ledger != "" {
		if err := appendLedger(opt.ledger, suite); err != nil {
			return 1, err
		}
	}
	if opt.workload != "" {
		// The contract's last line: exactly these four keys, and only
		// the metrics BENCHMARK.json lists for this kind of run.
		listed := endToEnd
		if opt.trace == 1 {
			listed = perLayer
		}
		line := struct {
			Correct   bool                      `json:"correct"`
			Attempted int                       `json:"attempted"`
			Failed    int                       `json:"failed"`
			Metrics   map[string]contractMetric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, make(map[string]contractMetric)}
		for _, d := range listed {
			line.Metrics[d.name] = contractMetric{last.Metrics[d.name].Value, d.unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(w, "%s\n", b)
	} else {
		b, err := json.Marshal(struct {
			Runs  int     `json:"runs"`
			OK    bool    `json:"correct"`
			Claim *string `json:"claim"`
		}{len(suite.Runs), ok, nil})
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	if !ok {
		return 1, fmt.Errorf("a workload's output did not match its reference")
	}
	return 0, nil
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printRun prints every metric of a run by name, with its unit, its
// sample count and the workload's own name for it.
func printRun(w io.Writer, def *workloadDef, res runResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g %s: correct=%v attempted=%d failed=%d (failed_share=%g)\n",
		def.name, res.Seed, res.Seconds, mode, res.Correct, res.Attempted, res.Failed, res.FailedShare)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		alias := ""
		if m.Alias != "" {
			alias = " (" + m.Alias + ")"
		}
		fmt.Fprintf(w, "   %-44s %14.4f %-8s n=%d%s\n", n, m.Value, m.Unit, m.N, alias)
	}
	for _, warn := range budgetWarnings(res) {
		fmt.Fprintf(w, "   WARNING: %s\n", warn)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendLedger appends one line per run, each carrying the environment,
// so the file is a trajectory that survives being concatenated.
func appendLedger(path string, suite suiteResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range suite.Runs {
		row := struct {
			Env environment `json:"env"`
			runResult
		}{suite.Env, r}
		if err = enc.Encode(row); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
