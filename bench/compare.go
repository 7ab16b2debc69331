package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain is `bench compare a.json b.json`: b judged against a by
// each end-to-end metric's direction and bound from BENCHMARK.json. A
// side is a result file (-out) or a ledger (-ledger); a ledger with
// several runs of a workload gives the side a median and a spread.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var sides [2][]runResult
	for i, path := range args {
		if sides[i], err = loadRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	return compareRuns(sp, sides[0], sides[1], w)
}

// loadRuns reads the untraced runs of a result file or a ledger.
func loadRuns(path string) ([]runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runResult
	var suite suiteResult
	if err := json.Unmarshal(data, &suite); err == nil && suite.Runs != nil {
		runs = suite.Runs
	} else {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var r runResult
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, r)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	untraced := runs[:0]
	for _, r := range runs {
		if !r.Traced {
			untraced = append(untraced, r)
		}
	}
	if len(untraced) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs", path)
	}
	return untraced, nil
}

// side is one workload's runs on one side of a comparison.
type side struct {
	values map[string][]float64
	failed float64 // worst failed share
}

func sidesOf(runs []runResult) map[string]*side {
	out := make(map[string]*side)
	for _, r := range runs {
		s := out[r.Workload]
		if s == nil {
			s = &side{values: make(map[string][]float64)}
			out[r.Workload] = s
		}
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		s.failed = max(s.failed, r.FailedShare)
	}
	return out
}

// spreadOf is the distance between the quartiles as a share of the
// median; with fewer than four runs, the whole range.
func spreadOf(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	if len(v) < 4 {
		return ratio(quantile(v, 1)-quantile(v, 0), median(v))
	}
	return ratio(quantile(v, 0.75)-quantile(v, 0.25), median(v))
}

// compareRuns prints one row per workload and metric and returns the
// exit code: 1 on a regression or a higher failed share.
func compareRuns(sp *spec, a, b []runResult, w io.Writer) int {
	sa, sb := sidesOf(a), sidesOf(b)
	var names []string
	for name := range sa {
		if sb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "spread", "verdict")
	for _, wl := range names {
		x, y := sa[wl], sb[wl]
		for _, m := range sp.EndToEnd {
			va, vb := x.values[m.Name], y.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // share of the base by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(spreadOf(va), spreadOf(vb))
			verdict := "ok"
			switch {
			case spread > m.Bound && separated(va, vb, m.Better):
				verdict = "ok (every run better)"
			case spread > m.Bound && !separated(vb, va, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %9.4f %7.3f %7.3f  %s\n", wl, m.Name, ma, mb, ratio(mb, ma), m.Bound, spread, verdict)
		}
		if y.failed > x.failed {
			fmt.Fprintf(w, "%-14s %-22s %14g %14g %9s %7d %7s  %s\n", wl, "failed_share", x.failed, y.failed, "", 0, "", "REGRESSION")
			code = 1
		}
	}
	return code
}

// separated reports whether every run of b reads better than every run
// of a.
func separated(a, b []float64, better string) bool {
	if better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}
