// analyze runs the measurement system's analysis routines over a
// trace log and prints a report: communication statistics, the
// computation's structure, the parallelism achieved, per-process
// blocked time, and the deduced event ordering (paper sections 3.3 and
// 4.1).
//
//	analyze [-binary] [-json] [-snapshot snap.json] [file]
//
// With no file argument it reads standard input. -json emits the
// communication statistics and parallelism profile as JSON instead of
// the text report. -snapshot cross-checks the live streaming operators
// against the offline analysis: it loads an obs snapshot (the filter's
// shutdown export, or anything dpstat reads), decodes its live.comm,
// live.par and live.match sections, and reports any disagreement with
// the offline analysis of the trace — on a completed trace the two must
// agree exactly. A process the collector has retired is compared within
// its machine's summary; live.match is compared when nothing aged out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"reflect"

	"dpm/internal/analysis"
	"dpm/internal/analysis/live"
	"dpm/internal/cli"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// jsonReport is the -json output shape.
type jsonReport struct {
	Events      int64                 `json:"events"`
	Sends       int64                 `json:"sends"`
	Recvs       int64                 `json:"recvs"`
	BytesSent   int64                 `json:"bytes_sent"`
	BytesRecvd  int64                 `json:"bytes_recvd"`
	SizeHist    map[int]int64         `json:"size_hist,omitempty"`
	Procs       []analysis.ProcComm   `json:"procs"`
	Parallelism *analysis.Parallelism `json:"parallelism"`
	Consistency []string              `json:"consistency,omitempty"`
}

func main() {
	binary := flag.Bool("binary", false, "input is a raw meter byte stream")
	asJSON := flag.Bool("json", false, "emit communication and parallelism results as JSON")
	snapPath := flag.String("snapshot", "", "obs snapshot to cross-check live sections against the trace")
	timeline := flag.Bool("timeline", false, "append a per-process event timeline")
	validate := flag.Bool("validate", false, "append trace consistency diagnostics")
	dot := flag.Bool("dot", false, "print only the structure graph in Graphviz dot form")
	width := flag.Int("width", 72, "timeline width in columns")
	flag.Parse()

	var data []byte
	var err error
	switch flag.NArg() {
	case 0:
		data, err = io.ReadAll(os.Stdin)
	case 1:
		data, err = os.ReadFile(flag.Arg(0))
	default:
		log.Fatal("usage: analyze [-binary] [-json] [-snapshot snap.json] [file]")
	}
	if err != nil {
		log.Fatal(err)
	}
	var events []trace.Event
	if *binary {
		events, err = trace.ParseBinary(data)
	} else {
		events, err = trace.ParseLog(data)
	}
	if err != nil && !errors.Is(err, trace.ErrTruncated) {
		log.Fatal(err)
	} else if err != nil {
		log.Print(err) // the records before the tear are still printed
		defer os.Exit(1)
	}

	var findings []string
	if *snapPath != "" {
		snap, lerr := loadSnapshot(*snapPath)
		if lerr != nil {
			log.Fatalf("analyze: %s: %v", *snapPath, lerr)
		}
		findings = liveConsistency(snap, events)
	}

	if *dot {
		fmt.Print(analysis.Structure(events, analysis.MatchTrace(events, nil)).Dot())
		return
	}
	if *asJSON {
		if err := cli.WriteJSON(os.Stdout, buildJSON(events, findings)); err != nil {
			log.Fatal(err)
		}
		exitOnFindings(findings)
		return
	}
	report, err := analysis.Report(events, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
	if *timeline {
		fmt.Printf("\n%s", analysis.Timeline(events, *width))
	}
	if *validate {
		diags := analysis.Validate(events, nil)
		fmt.Printf("\nconsistency check: %d finding(s)\n", len(diags))
		for _, d := range diags {
			fmt.Printf("  %s\n", d)
		}
	}
	if *snapPath != "" {
		fmt.Printf("\nlive/offline consistency: %d finding(s)\n", len(findings))
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
		}
		exitOnFindings(findings)
	}
}

func exitOnFindings(findings []string) {
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// buildJSON lists the processes that communicated, as the text report
// does.
func buildJSON(events []trace.Event, findings []string) *jsonReport {
	st := analysis.Comm(events)
	out := &jsonReport{
		Events:      st.Events,
		Sends:       st.Sends,
		Recvs:       st.Recvs,
		BytesSent:   st.BytesSent,
		BytesRecvd:  st.BytesRecvd,
		Parallelism: analysis.MeasureParallelism(events),
		Consistency: findings,
	}
	for b, n := range st.SizeHist {
		if n != 0 {
			if out.SizeHist == nil {
				out.SizeHist = make(map[int]int64)
			}
			out.SizeHist[b] = n
		}
	}
	for _, p := range st.Procs {
		if p.Active() {
			out.Procs = append(out.Procs, p)
		}
	}
	return out
}

// loadSnapshot reads an obs snapshot in either export format: the JSON
// the filter writes at shutdown, or the binary wire form.
func loadSnapshot(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if s, jerr := obs.ParseSnapshotJSON(data); jerr == nil {
		return s, nil
	}
	return obs.ParseSnapshot(data)
}

// liveConsistency compares a snapshot's live-analysis sections against
// the offline analysis of the trace. The trace must be the same
// filter's log the snapshot's collector observed. Both sides are
// analysis.Fold and analysis.Matcher, one over the tap and one over the
// log, so on a completed stream they must agree exactly: a finding
// means a record reached one and not the other, or reached the
// collector more than a reordering window late. Matching is compared
// when nothing aged out of the collector's matcher, against the offline
// run before its end-of-trace Flush, which is what the collector's run
// is while the stream may still grow.
func liveConsistency(snap *obs.Snapshot, events []trace.Event) []string {
	var finds []string
	badf := func(format string, args ...any) { finds = append(finds, fmt.Sprintf(format, args...)) }
	section := func(name string) []byte {
		sec := snap.Section(name)
		switch {
		case sec == nil:
			badf("snapshot has no %s section", name)
		case sec.Version != live.SectionVersion:
			badf("%s is v%d, this tool reads v%d", name, sec.Version, live.SectionVersion)
		default:
			return sec.Data
		}
		return nil
	}

	if data := section(live.SectionComm); data != nil {
		if lc, err := live.DecodeComm(data); err != nil {
			badf("%s: %v", live.SectionComm, err)
		} else {
			compareComm(badf, lc, analysis.Comm(events))
		}
	}
	if data := section(live.SectionPar); data != nil {
		if lp, err := live.DecodePar(data); err != nil {
			badf("%s: %v", live.SectionPar, err)
		} else if curve, off := lp.Curve(), analysis.MeasureParallelism(events); !reflect.DeepEqual(curve, off) {
			badf("parallelism: live %+v, offline %+v", *curve, *off)
		}
	}
	if data := section(live.SectionMatch); data != nil {
		if lm, err := live.DecodeMatch(data); err != nil {
			badf("%s: %v", live.SectionMatch, err)
		} else if lm.AgedOut == 0 {
			off := analysis.CountMatches(events, nil)
			if lm.Conns != off.Conns || lm.StreamMatched != off.Stream || lm.DgramMatched != off.Dgram || lm.Pending != off.Pending {
				badf("matching: live %d conns, stream %d, dgram %d, pending %d; offline %d, %d, %d, %d",
					lm.Conns, lm.StreamMatched, lm.DgramMatched, lm.Pending, off.Conns, off.Stream, off.Dgram, off.Pending)
			}
		}
	}
	return finds
}

// compareComm reports where the live statistics l and the offline o
// differ: the totals; each process the collector still holds against
// the trace's row for it, both tables being in (machine, pid) order;
// and each machine's processes, open and retired, against the trace's
// rows of that machine, summed and counted.
func compareComm(badf func(string, ...any), l *live.CommState, o *analysis.CommStats) {
	if l.Events != o.Events {
		badf("events: live %d, offline %d", l.Events, o.Events)
	}
	if l.Totals != o.Totals {
		badf("totals: live %+v, offline %+v", l.Totals, o.Totals)
	}
	key := func(p *analysis.ProcComm) uint64 { return uint64(p.Machine)<<32 | uint64(p.PID) }
	op := o.Procs
	for _, p := range l.Procs {
		for len(op) > 0 && key(&op[0]) < key(&p) {
			op = op[1:]
		}
		switch {
		case len(op) == 0 || key(&op[0]) != key(&p):
			badf("proc %s: live only", p.Key())
		case op[0] != p:
			badf("proc %s: live %+v, offline %+v", p.Key(), p, op[0])
		}
	}
	lm, om := l.ByMachine(), (&live.CommState{CommStats: *o}).ByMachine()
	for len(lm) > 0 || len(om) > 0 {
		switch {
		case len(om) == 0 || len(lm) > 0 && lm[0].Machine < om[0].Machine:
			badf("machine m%d: live only", lm[0].Machine)
			lm = lm[1:]
		case len(lm) == 0 || om[0].Machine < lm[0].Machine:
			badf("machine m%d: offline only", om[0].Machine)
			om = om[1:]
		default:
			if lm[0] != om[0] {
				badf("machine m%d: live %+v, offline %+v", lm[0].Machine, lm[0], om[0])
			}
			lm, om = lm[1:], om[1:]
		}
	}
}
