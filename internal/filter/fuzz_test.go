package filter

import (
	"testing"

	"dpm/internal/meter"
)

// FuzzParseRules checks the selection-rule parser never panics and
// that accepted rule sets evaluate without panicking.
func FuzzParseRules(f *testing.F) {
	f.Add("machine=5, cpuTime<10000\n")
	f.Add("machine=#*, type=1, pid=#*, msgLength>=512\ntype=8, sockName=peerName\n")
	f.Add("a!=b, c>=#3")
	// Aggregate-syntax lines (the extended query grammar of
	// internal/agg) are not selection rules; they reach this parser when
	// a query text is mis-split, so it must reject them cleanly —
	// including truncated clauses, oversize k, and zero-width windows.
	f.Add("agg count by machine window 1s\n")
	f.Add("top 10 pid by sum(msgLength)\n")
	f.Add("agg count by\n")
	f.Add("agg count window\n")
	f.Add("top 10 pid by\n")
	f.Add("top 1000000 pid by count\n")
	f.Add("agg count window 0\n")
	f.Add("machine=3\nagg sum(msgLength) by machine,pid window 0ms\n")
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseRules([]byte(text))
		if err != nil {
			return
		}
		rec := sendRec(1, 2, 3, 4, 5, meter.Name{})
		keep, discards := rules.Select(rec)
		_ = keep
		_ = discards
	})
}

// FuzzParseDescriptions checks the descriptions parser on arbitrary
// input, and that accepted descriptions extract from arbitrary bytes
// without panicking.
func FuzzParseDescriptions(f *testing.F) {
	f.Add(StandardDescriptions, []byte{})
	// A field before the body, or of negative length: once a panic.
	fork := make([]byte, 40)
	fork[0], fork[20] = 40, 9
	f.Add("HEADER size\nFORK 9, pid,-4,4,10\n", fork)
	f.Add("HEADER size\nFORK 9, pid,8,-4,10\n", fork)
	f.Fuzz(func(t *testing.T, text string, raw []byte) {
		d, err := ParseDescriptions([]byte(text))
		if err != nil {
			return
		}
		_, _ = d.Extract(raw)
	})
}

// FuzzEngineProcess drives the whole filter engine on arbitrary meter
// streams.
func FuzzEngineProcess(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		eng, err := NewEngine([]byte(StandardDescriptions), nil)
		if err != nil {
			t.Fatal(err)
		}
		lines, rest, err := processLines(eng, stream)
		if err != nil {
			return
		}
		_ = lines
		if len(rest) > len(stream) {
			t.Fatal("rest grew")
		}
	})
}
