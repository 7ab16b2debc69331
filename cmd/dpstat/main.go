// dpstat inspects metrics snapshots offline — the files the filter and
// meterdaemon export at shutdown (filter.StatsPath, daemon.StatsPath)
// and anything saved from the controller's stats command.
//
//	dpstat snap.json [more.json...]         render the (merged) report
//	dpstat -json snap.json [more.json...]   re-emit the merge as JSON
//	dpstat -diff old.json new.json          per-metric deltas old → new
//
// Multiple snapshot arguments are merged before rendering, so a
// cluster's per-machine exports aggregate the same way the controller's
// stats command aggregates live machines. Files may hold either the
// JSON export format or the binary wire format (detected by magic).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"dpm/internal/cli"
	"dpm/internal/obs"

	// Link the live-analysis section mergers and renderers, so
	// snapshots carrying live.comm/live.par/live.match sections merge
	// key-wise and render as reports instead of opaque byte counts.
	_ "dpm/internal/analysis/live"
)

func main() {
	asJSON := flag.Bool("json", false, "emit the merged snapshot as JSON instead of a report")
	diff := flag.Bool("diff", false, "diff two snapshots (old new): per-metric deltas")
	flag.Parse()
	if flag.NArg() == 0 || (*diff && flag.NArg() != 2) {
		fmt.Fprintln(os.Stderr, "usage: dpstat [-json] snap.json [more.json...]")
		fmt.Fprintln(os.Stderr, "       dpstat -diff old.json new.json")
		os.Exit(2)
	}

	if *diff {
		oldS, err := load(flag.Arg(0))
		if err != nil {
			log.Fatalf("dpstat: %s: %v", flag.Arg(0), err)
		}
		newS, err := load(flag.Arg(1))
		if err != nil {
			log.Fatalf("dpstat: %s: %v", flag.Arg(1), err)
		}
		printDiff(oldS, newS)
		return
	}
	if err := run(os.Stdout, *asJSON, flag.Args()); err != nil {
		log.Fatalf("dpstat: %v", err)
	}
}

// run writes the report, or with asJSON the JSON form, of the merge of
// the snapshot files at paths to w.
func run(w io.Writer, asJSON bool, paths []string) error {
	snaps := make([]*obs.Snapshot, len(paths))
	for i, path := range paths {
		s, err := load(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		snaps[i] = s
	}
	merged := snaps[0]
	if len(snaps) > 1 {
		merged = new(obs.Snapshot)
		merged.MergeOf(snaps)
	}
	if asJSON {
		return cli.WriteJSON(w, merged)
	}
	merged.Render(w)
	return nil
}

// load reads one snapshot, accepting both formats: the binary wire
// encoding (leads with the "DPOB" magic) and the JSON export.
func load(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(string(data), "DPOB") {
		return obs.ParseSnapshot(data)
	}
	return obs.ParseSnapshotJSON(data)
}

// printDiff reports, per metric name, the old value, the new value,
// and the delta. Metrics present on only one side diff against zero;
// histogram rows diff the observation counts and show the new
// snapshot's quantiles.
func printDiff(oldS, newS *obs.Snapshot) {
	names := map[string]bool{}
	oldVals, newVals := map[string]int64{}, map[string]int64{}
	collect := func(s *obs.Snapshot, into map[string]int64) {
		for _, v := range s.Counters {
			into[v.Name] = v.Value
			names[v.Name] = true
		}
		for _, v := range s.Gauges {
			into[v.Name] = v.Value
			names[v.Name] = true
		}
	}
	collect(oldS, oldVals)
	collect(newS, newVals)
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		o, nv := oldVals[n], newVals[n]
		if o == nv {
			continue
		}
		fmt.Printf("%-40s %12d -> %-12d (%+d)\n", n, o, nv, nv-o)
	}
	oldHists := map[string]*obs.HistValue{}
	for i := range oldS.Hists {
		oldHists[oldS.Hists[i].Name] = &oldS.Hists[i]
	}
	for i := range newS.Hists {
		h := &newS.Hists[i]
		var oc int64
		if oh := oldHists[h.Name]; oh != nil {
			oc = oh.Count
		}
		if h.Count == oc {
			continue
		}
		fmt.Printf("%-40s %12d -> %-12d (%+d obs)  p50=%v p95=%v p99=%v\n",
			h.Name, oc, h.Count, h.Count-oc,
			durns(h.Quantile(0.50)), durns(h.Quantile(0.95)), durns(h.Quantile(0.99)))
	}
}

func durns(ns int64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}
