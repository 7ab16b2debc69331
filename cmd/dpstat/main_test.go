package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/report.golden from this build's output")

// TestReportGolden pins what dpstat prints for a hand-written JSON
// snapshot whose counters, gauges, histograms, buckets and sections are
// out of order (and hold a name twice): rendered alone, as it is, and
// merged with a second snapshot, as a report and as JSON. The golden
// was generated before dpstat merged through the snapshots' binary
// form; only a change that means to alter the output runs
//
//	go test ./cmd/dpstat/ -run TestReportGolden -update-golden
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range []struct {
		asJSON bool
		paths  []string
	}{
		{false, []string{"testdata/unordered.json"}},
		{true, []string{"testdata/unordered.json"}},
		{false, []string{"testdata/unordered.json", "testdata/ordered.json"}},
		{false, []string{"testdata/ordered.json", "testdata/unordered.json"}},
		{true, []string{"testdata/unordered.json", "testdata/ordered.json"}},
	} {
		fmt.Fprintf(&got, "=== json=%v %v\n", c.asJSON, c.paths)
		if err := run(&got, c.asJSON, c.paths); err != nil {
			t.Fatal(err)
		}
	}
	const golden = "testdata/report.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("dpstat output differs from %s:\n%s", golden, got.String())
	}
}
