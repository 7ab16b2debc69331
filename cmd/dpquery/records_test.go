package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpm/internal/query"
	"dpm/internal/store"
)

// recordRules are the rule sets the record output is pinned over: match
// everything, a header and a body test, '#' discards of numbers and of
// names, a name-to-name comparison, and alternatives.
var recordRules = []string{
	"",
	"machine=2",
	"pid=101,machine=#*",
	"sockName=#*,peerName=#*\nnewPid=#*",
	"sockName=peerName",
	"type=1,pid=103,cpuTime>4000\nmachine=5,type=9",
	"msgLength>=300,cpuTime=#*",
}

// TestRecordOutputsByteIdentical: over the checked-in stores, the
// text, -report and -json outputs of every rule set hash to what
// testdata/records.digests holds — written by the dpquery that still
// built a trace.Event per matching record, and not edited since. An
// output that failed is pinned by its error.
func TestRecordOutputsByteIdentical(t *testing.T) {
	f, err := os.Open("testdata/records.digests")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if key, sum, ok := strings.Cut(sc.Text(), "\t"); ok {
			want[key] = sum
		}
	}
	checked := 0
	// The keys name the stores the digests were first taken over, each
	// written in v1 or v2; the checked-in v3 files of the same layouts
	// answer alike.
	dirs := map[string]string{"v1/v1": "cap1k", "v1/v1+tail": "cap1k+tail", "v2/v2": "cap2k", "v2/v2+tail": "cap2k+tail", "v2/v2+archives": "cap2k+archives"}
	for _, layout := range []string{"v1/v1", "v1/v1+tail", "v2/v2", "v2/v2+tail", "v2/v2+archives"} {
		rd, err := store.OpenReader(store.NewDirBackend("../../internal/store/testdata/v3/" + dirs[layout]))
		if err != nil || rd.NumSegments() == 0 {
			t.Fatalf("%s: %d segments, %v", layout, rd.NumSegments(), err)
		}
		for ri, rules := range recordRules {
			for _, mode := range []string{"text", "report", "json"} {
				q, err := query.Compile(rules)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				got := ""
				if _, err := writeRecords(&out, rd, q, mode == "report", mode == "json"); err != nil {
					got = "error: " + err.Error()
				} else {
					got = fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
				}
				key := fmt.Sprintf("%s rules=%d %s", layout, ri, mode)
				if got != want[key] {
					t.Errorf("%s (%q): %s, committed %s", key, rules, got, want[key])
				}
				checked++
			}
		}
	}
	if checked != len(want) {
		t.Errorf("%d outputs committed, %d checked", len(want), checked)
	}
}
