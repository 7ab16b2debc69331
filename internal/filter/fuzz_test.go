package filter

import (
	"bytes"
	"slices"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
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
// input, that the program refuses every description with a field of a
// width other than 2, 4 or 16 or not wholly inside the largest message
// body, and that what it accepts decodes arbitrary bytes without
// panicking.
func FuzzParseDescriptions(f *testing.F) {
	f.Add(StandardDescriptions, []byte{})
	// A field before the body, or of negative length: once a panic, now
	// refused at compile time.
	fork := make([]byte, 40)
	fork[0], fork[20] = 40, 9
	f.Add("HEADER size\nFORK 9, pid,-4,4,10\n", fork)
	f.Add("HEADER size\nFORK 9, pid,8,-4,10\n", fork)
	// An offset whose reach wraps below zero: once a panic on every
	// message of the type, now refused at compile time.
	send := make([]byte, 64)
	send[0], send[20] = 64, 1
	f.Add("HEADER size\nSEND 1, pid,9223372036854775807,4,10\n", send)
	f.Add("HEADER size\nSEND 1, pid,0,4,10 destName,9223372036854775800,16,16\n", send)
	f.Fuzz(func(t *testing.T, text string, raw []byte) {
		d, err := ParseDescriptions([]byte(text))
		if err != nil {
			return
		}
		prog, err := CompileProgram(d, nil)
		for _, ev := range d.events {
			for _, fd := range ev.Fields {
				inBody := fd.Offset >= 0 && fd.Offset <= maxBody-fd.Length
				if err == nil && (fd.Length != 2 && fd.Length != 4 && fd.Length != meter.NameSize || !inBody) {
					t.Fatalf("field %+v of %s compiled", fd, ev.Name)
				}
			}
		}
		if err != nil {
			return
		}
		var (
			h meter.Header
			s trace.Slots
		)
		_, _ = prog.decode(raw, &h, &s)
	})
}

// FuzzEngineProcess drives the whole filter engine on arbitrary meter
// streams, seeded with Appendix A messages of every body type. A batch
// recycled as batchFree recycles them — filled from another stream,
// reset and overwritten — comes out of ProcessBatch byte for byte as a
// fresh one does: the same lines, line ends and store records.
func FuzzEngineProcess(f *testing.F) {
	f.Add([]byte{})
	msgs := corpusMessages()
	for _, m := range msgs {
		f.Add(m)
	}
	f.Add(bytes.Join(msgs, nil))
	dirty := typingStream()
	proto, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		recycled := new(Batch)
		if _, err := proto.Clone().ProcessBatch(dirty, recycled); err != nil {
			t.Fatal(err)
		}
		recycled.StoreRecs()
		recycled.Reset()
		batchFree.Poison(recycled)
		var fresh Batch
		rest, err := proto.Clone().ProcessBatch(stream, &fresh)
		rest2, err2 := proto.Clone().ProcessBatch(stream, recycled)
		if len(rest) > len(stream) || (err == nil) != (err2 == nil) || !bytes.Equal(rest, rest2) {
			t.Fatalf("fresh batch: rest %d, %v; recycled: rest %d, %v", len(rest), err, len(rest2), err2)
		}
		if !bytes.Equal(fresh.Lines, recycled.Lines) || !slices.Equal(fresh.ends, recycled.ends) {
			t.Fatalf("a recycled batch's lines differ from a fresh one's:\n%q\n%q", recycled.Lines, fresh.Lines)
		}
		want, got := fresh.StoreRecs(), recycled.StoreRecs()
		if len(want) != len(got) {
			t.Fatalf("%d store records from a recycled batch, %d from a fresh one", len(got), len(want))
		}
		for i := range want {
			if got[i].Meta != want[i].Meta || !bytes.Equal(got[i].Line, want[i].Line) ||
				(got[i].Slots == nil) != (want[i].Slots == nil) || got[i].Slots != nil && *got[i].Slots != *want[i].Slots {
				t.Fatalf("store record %d of a recycled batch differs from a fresh one's", i)
			}
		}
	})
}
