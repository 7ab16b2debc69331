package store

import (
	"fmt"
	"strings"
	"testing"

	"dpm/internal/obs"
)

// sealAt appends n records at the given cpuTime and seals them into
// their own segment, giving archival tests precise per-segment ages.
func sealAt(t *testing.T, st *Store, when uint32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		m := Meta{Machine: 0, Time: when + uint32(i), Type: 1, PID: 100}
		line := fmt.Sprintf("RECEIVE pid=100 t=%d seq=%d", when+uint32(i), i)
		if err := st.AppendLine(m, line); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestArchiveRollsColdSegments(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{
		Shards: 1, CompactMin: 1 << 20,
		ArchiveAfter: 5_000, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four cold segments, then one hot one that defines "now".
	for i := 0; i < 4; i++ {
		sealAt(t, st, uint32(1000+i*100), 10)
	}
	sealAt(t, st, 20_000, 10)
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	archived := reg.Counter("store.archived_segments")
	if got := archived.Load(); got != 4 {
		t.Fatalf("archived %d segments, want 4", got)
	}
	var tiers []int
	for _, info := range st.Segments() {
		tiers = append(tiers, info.Tier)
		if info.Tier == 1 && !strings.HasPrefix(info.Name, "a") {
			t.Fatalf("archival segment named %q", info.Name)
		}
	}
	// One merged archive followed by the hot segment.
	if len(tiers) != 2 || tiers[0] != 1 || tiers[1] != 0 {
		t.Fatalf("segment tiers = %v, want [1 0]", tiers)
	}
	recs := allRecs(t, be)
	if len(recs) != 50 {
		t.Fatalf("got %d records after archival, want 50", len(recs))
	}
	// Archival is idempotent: a second pass finds nothing cold in tier 0.
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := archived.Load(); got != 4 {
		t.Fatalf("second maintain archived more: %d", got)
	}
}
