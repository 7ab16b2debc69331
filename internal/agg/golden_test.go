package agg

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/store"
)

var updatePartialGolden = flag.Bool("update-partial-golden", false, "rewrite testdata/partial.golden from this build's encodings")

const partialGoldenFile = "testdata/partial.golden"

// TestPartialGolden pins the DPAG bytes, version 1, of the partials
// Eval makes for each operator shape over one store, of the merge of
// two stores' partials, and of an empty partial, against
// testdata/partial.golden: one "spec<TAB>hex" line each. The file was
// written before the partial became a sorted table, and the wire bytes
// do not change with it; it is regenerated only by a change that means
// to alter the format:
//
//	go test ./internal/agg/ -run TestPartialGolden -update-partial-golden
func TestPartialGolden(t *testing.T) {
	one := buildStore(t, 400, store.Config{SegmentCap: 512})
	two := buildStore(t, 150, store.Config{SegmentCap: 1024, Shards: 2})
	var got bytes.Buffer
	line := func(name string, p *Partial) {
		fmt.Fprintf(&got, "%s\t%s\n", strings.ReplaceAll(name, "\n", " / "), hex.EncodeToString(p.MarshalBinary()))
	}
	for _, text := range []string{
		"agg count by machine window 1s",
		"top 10 pid by sum(msgLength)",
		"agg p95(msgLength)",
		"agg p50(msgLength) by machine window 250ms",
		"agg rate",
		"agg min(msgLength) by machine,pid",
		"agg max(msgLength) by type,machine,pid,sock",
		"machine=99\nagg count by machine",
	} {
		p, _ := eval(t, one, text)
		line(text, p)
		q, _ := eval(t, two, text)
		if err := p.Merge(q); err != nil {
			t.Fatal(err)
		}
		line(text+" (merged)", p)
	}
	aq, err := Compile("agg count by cpuTime")
	if err != nil {
		t.Fatal(err)
	}
	aq.Spec.MaxGroups = 7
	p, _, err := Eval(openReader(t, one), aq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	line("agg count by cpuTime (cap 7)", p)
	line("empty", NewPartial(mustSpec(t, "agg sum(msgLength) by machine")))
	if *updatePartialGolden {
		if err := os.WriteFile(partialGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(partialGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("partial encodings differ from %s:\n%s", partialGoldenFile, got.String())
	}
}
