package main

import (
	"fmt"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestSegmentsSmoke: -segments lists every segment, one line each, with
// its payload version and its records.
func TestSegmentsSmoke(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.NewDirBackend(dir), store.Config{
		Shards: 2, SegmentCap: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		m := store.Meta{Machine: uint16(i % 4), PID: uint32(100 + i%8), Type: 9, Time: uint32(i * 10)}
		s := new(trace.Slots)
		s.Reset(0)
		s.SetVal(0, uint64(m.PID))
		s.SetVal(1, uint64(16384+i%5))
		s.SetVal(2, uint64(200+i))
		line := s.AppendLine(nil, meter.EvFork, int(m.Machine), int64(m.Time))
		if err := st.AppendBatch([]store.BatchRec{{Meta: m, Line: line, Slots: s}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := store.OpenReader(store.NewDirBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	listSegments(&out, rd)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	segments, records := 0, 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "shard ") {
			continue
		}
		segments++
		var n int
		at := strings.Index(line, "records=")
		if _, err := fmt.Sscanf(line[max(at, 0):], "records=%d ", &n); err != nil || at < 0 {
			t.Fatalf("segment line %q: %v", line, err)
		}
		records += n
		if !strings.Contains(line, " sealed tier=0 v3 ") {
			t.Errorf("segment line %q: want a sealed v3 segment", line)
		}
	}
	if segments != rd.NumSegments() || records != 300 || len(lines) != segments {
		t.Fatalf("%d segment lines of %d lines for %d segments, %d records of 300:\n%s", segments, len(lines), rd.NumSegments(), records, out.String())
	}
}
