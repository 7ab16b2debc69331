package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/store"
)

var updateAggGolden = flag.Bool("update-agg-golden", false, "rewrite testdata/agg.golden from this build's answers")

const aggGoldenFile = "testdata/agg.golden"

// TestAggregateGolden pins every byte of dpquery -agg's answers, as a
// table and with -json, over two checked-in stores, for each operator
// shape: windows, a top-k, percentiles, a rate, a two-field group and
// an empty answer. testdata/agg.golden was written before the partial
// became a sorted table and is regenerated only by a change that means
// to alter the output:
//
//	go test ./cmd/dpquery/ -run TestAggregateGolden -update-agg-golden
func TestAggregateGolden(t *testing.T) {
	var got bytes.Buffer
	for _, layout := range []string{"cap2k", "cap2k+archives"} {
		rd, err := store.OpenReader(store.NewDirBackend("../../internal/store/testdata/v3/" + layout))
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{
			"agg count by machine window 1s",
			"top 10 pid by sum(msgLength)",
			"agg p95(msgLength)",
			"type=1\nagg p50(msgLength) by machine window 2s",
			"agg rate",
			"agg rate by machine window 500ms",
			"agg sum(msgLength) by machine,pid",
			"agg min(pc) by type",
			"machine=99\nagg count by machine",
		} {
			for _, asJSON := range []bool{false, true} {
				fmt.Fprintf(&got, "=== %s %q json=%v\n", layout, text, asJSON)
				if _, err := writeAggregate(&got, rd, text, false, asJSON); err != nil {
					fmt.Fprintf(&got, "error: %v\n", err)
				}
			}
		}
	}
	if *updateAggGolden {
		if err := os.WriteFile(aggGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(aggGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("aggregate answers differ from %s:\n%s", aggGoldenFile, strings.TrimSpace(got.String()))
	}
}
