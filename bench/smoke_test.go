package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds is a budget small enough that all four workloads, traced
// and untraced, finish in a few seconds.
const smokeSeconds = 0.4

func smokeSuite(t *testing.T, opt options) (suiteResult, int) {
	t.Helper()
	opt.seconds = smokeSeconds
	opt.out = filepath.Join(t.TempDir(), "results.json")
	var stdout bytes.Buffer
	code, err := run(opt, &stdout)
	if code != 0 && err == nil {
		t.Fatalf("exit code %d without an error", code)
	}
	var suite suiteResult
	data, rerr := os.ReadFile(opt.out)
	if rerr != nil {
		t.Fatalf("no result file (run: %v): %v\n%s", err, rerr, stdout.String())
	}
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Errorf("result file does not end with a null claim")
	}
	return suite, code
}

// TestSmoke runs the whole suite traced at a tiny scale and checks it
// against BENCHMARK.json: every workload and every metric the file
// names is reported, finite, from a correct run with nothing failed.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	sameList := func(kind string, declared []specMetric, have []metricDef) {
		if len(declared) != len(have) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(declared), kind, len(have))
		}
		for i, d := range declared {
			if h := have[i]; d.Name != h.name || d.Unit != h.unit || d.Better != h.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, d, h)
			}
		}
	}
	sameList("end_to_end", sp.EndToEnd, endToEnd)
	sameList("per_layer", sp.PerLayer, perLayer)
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default %d", sp.RunSeconds, defaultSeconds)
	}

	suite, code := smokeSuite(t, options{seed: 1, trace: 1, spans: filepath.Join(t.TempDir(), "spans.jsonl")})
	if code != 0 {
		t.Fatalf("suite exit code %d", code)
	}
	if len(suite.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want an untraced and a traced one of each of %d workloads", len(suite.Runs), len(workloads))
	}
	for _, r := range suite.Runs {
		if !r.Correct || r.Failed != 0 || r.FailedShare != 0 || r.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		declared := sp.EndToEnd
		if r.Traced {
			declared = sp.PerLayer
		}
		for _, d := range declared {
			m, ok := r.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s traced=%v: no %s", r.Workload, r.Traced, d.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
				t.Errorf("%s: %s = %v", r.Workload, d.Name, m.Value)
			case !r.Traced && m.Value == 0:
				t.Errorf("%s: end-to-end metric %s is 0", r.Workload, d.Name)
			}
		}
	}
	if suite.Env.GoVersion == "" || suite.Env.NProc < 1 || suite.Env.Date == "" {
		t.Errorf("result is not tagged with its environment: %+v", suite.Env)
	}
}

// TestSeedDeterminesInputs: the same seed yields the same operation
// sequence and the same clock-independent reference answers, and
// another seed yields others.
func TestSeedDeterminesInputs(t *testing.T) {
	first, _ := smokeSuite(t, options{seed: 7})
	again, _ := smokeSuite(t, options{seed: 7})
	other, _ := smokeSuite(t, options{seed: 8})
	for i, r := range first.Runs {
		if a := again.Runs[i]; r.OpHash != a.OpHash || r.RefHash != a.RefHash {
			t.Errorf("%s: seed 7 gave ops %s/%s and references %s/%s", r.Workload, r.OpHash, a.OpHash, r.RefHash, a.RefHash)
		}
	}
	for i, name := range []string{"ingest_flood", "query_mix"} {
		if first.Runs[i].Workload != name || first.Runs[i].OpHash == other.Runs[i].OpHash {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", name)
		}
	}
}

// TestCorruptReferenceFails: with one reference answer flipped, every
// workload must report an incorrect run and the command must fail.
func TestCorruptReferenceFails(t *testing.T) {
	suite, code := smokeSuite(t, options{seed: 1, corrupt: true})
	if code == 0 {
		t.Errorf("exit code 0 with corrupted references")
	}
	for _, r := range suite.Runs {
		if r.Correct {
			t.Errorf("%s: correct with a corrupted reference", r.Workload)
		}
	}
}
