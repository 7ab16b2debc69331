package main

import (
	"fmt"
	"strings"
	"testing"

	"dpm/internal/store"
)

// TestSegmentsSmoke: -segments lists every segment with its payload
// version and the share of its records stored typed — two in three
// here, the third line of three being one the filter would not write.
func TestSegmentsSmoke(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.NewDirBackend(dir), store.Config{
		Shards: 2, SegmentCap: 2048, BlockTarget: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		m := store.Meta{Machine: uint16(i % 4), PID: uint32(100 + i%8), Type: 9, Time: uint32(i * 10)}
		line := fmt.Sprintf("FORK machine=%d cpuTime=%d procTime=0 pid=%d pc=%d newPid=%d", m.Machine, m.Time, m.PID, 16384+i%5, 200+i)
		if i%3 == 2 {
			line = fmt.Sprintf("%d %d %d %d send msgLength=%d t=%d", m.Time, m.Machine, m.PID, m.Type, 100+i%5, i)
		}
		if err := st.Append(m, line); err != nil {
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
		var n, share int
		at := strings.Index(line, "records=")
		if _, err := fmt.Sscanf(line[max(at, 0):], "records=%d typed=%d%%", &n, &share); err != nil || at < 0 {
			t.Fatalf("segment line %q: %v", line, err)
		}
		records += n
		if !strings.Contains(line, " sealed tier=0 v3 ") || share < 55 || share > 75 {
			t.Errorf("segment line %q: want a sealed v3 segment about two thirds typed", line)
		}
	}
	if segments != rd.NumSegments() || records != 300 || len(lines) <= segments {
		t.Fatalf("%d segment lines of %d lines for %d segments, %d records of 300:\n%s", segments, len(lines), rd.NumSegments(), records, out.String())
	}
}
