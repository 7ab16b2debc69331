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
// segment (tier, format — v3 where each record is typed or text —,
// record count, the share of its records stored typed, which a scan
// does not parse, on-disk compression ratio) and, for block-compressed
// segments, one line per block with its zone map — the ranges the
// pruning decisions in query/agg are made from. The typed share costs a
// decode of the segment; one that does not decode to its end is listed
// with what did.
func listSegments(w io.Writer, rd *store.Reader) {
	d := store.AcquireDecoder()
	defer store.ReleaseDecoder(d)
	for sh, segs := range rd.Shards() {
		for _, rs := range segs {
			state := "unsealed"
			if rs.Sealed {
				state = "sealed"
			}
			format := fmt.Sprintf("v%d", rs.FormatVersion())
			raw, disk := rs.RawBytes(), rs.DiskBytes()
			ratio := 1.0
			if disk > 0 {
				ratio = float64(raw) / float64(disk)
			}
			st, _ := rs.ScanViews(d, nil, func(store.Meta, *trace.View, []byte) {})
			fmt.Fprintf(w, "shard %d  %s  %s tier=%d %s  records=%d typed=%d%%  raw=%d disk=%d ratio=%.2fx",
				sh, rs.Name, state, rs.Tier, format, st.Records, 100*st.Typed/max(st.Records, 1), raw, disk, ratio)
			blocks := rs.Blocks()
			if len(blocks) > 0 {
				fmt.Fprintf(w, "  blocks=%d", len(blocks))
			}
			fmt.Fprintln(w)
			for i, b := range blocks {
				fmt.Fprintf(w, "  block %d  records=%d raw=%d comp=%d  cpuTime=[%d..%d]  machines=%016x types=%08x\n",
					i, b.Index.Count, b.RawLen, b.CompLen, b.Index.MinTime, b.Index.MaxTime,
					b.Index.Machines, b.Index.Types)
			}
		}
	}
}

func main() {
	dir := flag.String("store", "", "event store directory (required)")
	noPrune := flag.Bool("no-prune", false, "scan every segment, ignoring footer indexes")
	stats := flag.Bool("stats", false, "print scan statistics to standard error")
	report := flag.Bool("report", false, "print the analysis report instead of the records")
	segments := flag.Bool("segments", false, "list segments (tier, compression, blocks, zone maps) and exit")
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
		aq, err := agg.Compile(text)
		if err != nil {
			log.Fatal(err)
		}
		aq.Sel.NoPrune = *noPrune
		p, st, err := agg.Eval(rd, aq, agg.Options{})
		if err != nil {
			log.Fatal(err)
		}
		res := agg.NewResult(aq.Spec, p)
		if *asJSON {
			if err := cli.WriteJSON(os.Stdout, res); err != nil {
				log.Fatal(err)
			}
		} else {
			res.Render(os.Stdout)
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
	res, err := query.Run(rd, q)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *report:
		text, err := analysis.Report(res.Events, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
	case *asJSON:
		if err := cli.WriteJSON(os.Stdout, res.Events); err != nil {
			log.Fatal(err)
		}
	default:
		var out []byte
		for i := range res.Events {
			out = append(res.Events[i].AppendFormat(out), '\n')
		}
		if _, err := os.Stdout.Write(out); err != nil {
			log.Fatal(err)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, res.Stats.String())
	}
}
