// dpquery runs selection-rule queries against an event store directory
// offline — the out-of-band companion to the controller's query
// command, for stores copied off the cluster (or written by tests and
// tools through store.DirBackend).
//
//	dpquery -store dir [-no-prune] [-stats] [-report] [-json] [rule...]
//	dpquery -store dir -agg [-json] [rule...] 'agg ...'|'top ...'
//	dpquery -store dir -segments
//
// Each rule argument is one alternative (an OR line of a templates
// file) in the Figure 3.3/3.4 syntax, conditions comma-separated:
//
//	dpquery -store f1.store 'machine=2,cpuTime>=5000' 'type=4'
//
// With no rules every stored record is printed. Matching records print
// to standard output in trace-log format; -stats prints the pruning
// statistics to standard error, and -report replaces the record listing
// with the full analysis report over the matching records.
//
// With -agg, one argument must be an aggregate line in the extended
// syntax of docs/query.md ("agg count by machine window 1s", "top 10
// pid by sum(msgLength)"); the matching records fold into the
// aggregate where they are read and the rendered table (or, with
// -json, the machine-readable rows) is printed:
//
//	dpquery -store f1.store -agg 'type=4' 'agg sum(msgLength) by machine'
//
// -json switches either mode to machine-readable output: the matching
// records as a JSON array, or the aggregate result rows.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"dpm/internal/agg"
	"dpm/internal/analysis"
	"dpm/internal/cli"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// listSegments prints the physical layout of the store: one line per
// segment (tier, format — v3, the one a store reads —, record count,
// on-disk compression ratio). The record count costs a decode of the
// segment; one that does not decode to its end is listed with what did.
func listSegments(w io.Writer, rd *store.Reader) {
	d := store.AcquireDecoder()
	defer store.ReleaseDecoder(d)
	for sh, segs := range rd.Shards() {
		for _, rs := range segs {
			state := "unsealed"
			if rs.Sealed {
				state = "sealed"
			}
			raw, disk := rs.RawBytes(), rs.DiskBytes()
			ratio := 1.0
			if disk > 0 {
				ratio = float64(raw) / float64(disk)
			}
			st, _ := rs.ScanViews(d, func(store.Meta, *trace.View) {})
			fmt.Fprintf(w, "shard %d  %s  %s tier=%d v3  records=%d  raw=%d disk=%d ratio=%.2fx\n",
				sh, rs.Name, state, rs.Tier, st.Records, raw, disk, ratio)
		}
	}
}

func main() {
	dir := flag.String("store", "", "event store directory (required)")
	noPrune := flag.Bool("no-prune", false, "scan every segment, ignoring footer indexes")
	stats := flag.Bool("stats", false, "print scan statistics to standard error")
	report := flag.Bool("report", false, "print the analysis report instead of the records")
	segments := flag.Bool("segments", false, "list segments (tier, records, compression) and exit")
	aggregate := flag.Bool("agg", false, "aggregate mode: one argument is an 'agg ...' or 'top ...' line")
	asJSON := flag.Bool("json", false, "machine-readable JSON output")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: dpquery -store dir [-no-prune] [-stats] [-report] [-agg] [-json] [-segments] [rule...]")
		os.Exit(2)
	}

	rd, err := store.OpenReader(store.NewDirBackend(*dir))
	if err != nil {
		log.Fatal(err)
	}
	text := strings.Join(flag.Args(), "\n")

	if *segments {
		listSegments(os.Stdout, rd)
		return
	}

	if *aggregate {
		st, err := writeAggregate(os.Stdout, rd, text, *noPrune, *asJSON)
		if err != nil {
			log.Fatal(err)
		}
		if *stats {
			fmt.Fprintln(os.Stderr, st.String())
		}
		return
	}

	q, err := query.Compile(text)
	if err != nil {
		log.Fatal(err)
	}
	q.NoPrune = *noPrune
	st, err := writeRecords(os.Stdout, rd, q, *report, *asJSON)
	if err != nil {
		log.Fatal(err)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, st.String())
	}
}

// writeAggregate runs an aggregate query and writes its answer to w:
// the rendered table, or with asJSON the result rows.
func writeAggregate(w io.Writer, rd *store.Reader, text string, noPrune, asJSON bool) (query.Stats, error) {
	aq, err := agg.Compile(text)
	if err != nil {
		return query.Stats{}, err
	}
	aq.Sel.NoPrune = noPrune
	p, st, err := agg.Eval(rd, aq, agg.Options{})
	if err != nil {
		return st, err
	}
	if !asJSON {
		_, err = w.Write(p.AppendTable(nil, aq.Spec))
		return st, err
	}
	return st, cli.WriteJSON(w, struct {
		Spec    string    `json:"spec"`
		Rows    []agg.Row `json:"rows"`
		Records int64     `json:"records"`
		Skipped int64     `json:"skipped,omitempty"`
		Dropped int64     `json:"dropped,omitempty"`
	}{aq.Spec.String(), p.Rows(aq.Spec), p.Records, p.Skipped, p.Dropped})
}

// writeRecords runs a record query and writes its answer to w: the
// matching records' lines, or with report the analysis report over
// them, or with asJSON the records as a JSON array of trace events —
// both over the lines parsed back into events.
func writeRecords(w io.Writer, rd *store.Reader, q *query.Query, report, asJSON bool) (query.Stats, error) {
	res, err := query.Run(rd, q)
	if err != nil {
		return query.Stats{}, err
	}
	if !report && !asJSON {
		_, err = w.Write(res.Lines)
		return res.Stats, err
	}
	events, err := trace.ParseLog(res.Lines)
	if err != nil {
		return res.Stats, err
	}
	if asJSON && !report {
		return res.Stats, cli.WriteJSON(w, events)
	}
	text, err := analysis.Report(events, nil)
	if err == nil {
		_, err = io.WriteString(w, text)
	}
	return res.Stats, err
}
