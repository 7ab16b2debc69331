package store

import (
	"fmt"
	"strings"
	"testing"

	"dpm/internal/obs"
)

// sealAt appends n records at the given cpuTime and seals them into
// their own segment, giving retention tests precise per-segment ages.
func sealAt(t *testing.T, st *Store, when uint32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		m := Meta{Machine: 0, Time: when + uint32(i), Type: 1, PID: 100}
		line := fmt.Sprintf("RECEIVE pid=100 t=%d seq=%d", when+uint32(i), i)
		if err := st.Append(m, line); err != nil {
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

func TestRetentionExpires(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{
		Shards: 1, CompactMin: 1 << 20,
		RetainFor: 8_000, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sealAt(t, st, 1_000, 10) // beyond retention once "now" reaches 20k
	sealAt(t, st, 15_000, 10)
	sealAt(t, st, 20_000, 10)
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.expired_segments").Load(); got != 1 {
		t.Fatalf("expired %d segments, want 1", got)
	}
	recs := allRecs(t, be)
	if len(recs) != 20 {
		t.Fatalf("got %d records after expiry, want 20", len(recs))
	}
	for _, r := range recs {
		if r.Meta.Time < 15_000 {
			t.Fatalf("expired-era record survived: %+v", r.Meta)
		}
	}
}

// Expiry and archival compose: ancient data disappears, cold data
// rolls into the archive tier, hot data stays in tier 0 — and the
// archive itself expires once it ages out.
func TestRetentionLifecycle(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{
		Shards: 1, CompactMin: 1 << 20,
		ArchiveAfter: 5_000, RetainFor: 50_000, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sealAt(t, st, 1_000, 10)
	sealAt(t, st, 2_000, 10)
	sealAt(t, st, 10_000, 10)
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.archived_segments").Load(); got != 2 {
		t.Fatalf("archived %d, want 2", got)
	}
	// Advance "now" far enough that the archive crosses the horizon.
	sealAt(t, st, 60_000, 10)
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("store.expired_segments").Load() == 0 {
		t.Fatal("nothing expired after the clock advanced")
	}
	for _, info := range st.Segments() {
		if info.Index.Count > 0 && info.Index.MaxTime+50_000 < 60_000 {
			t.Fatalf("beyond-retention segment %s survived", info.Name)
		}
	}
	if len(allRecs(t, be)) >= 40 {
		t.Fatal("no records were expired")
	}
}

// Retention survives a restart: ages are measured against the newest
// record on disk, re-seeded from footers at Open.
func TestRetentionAcrossReopen(t *testing.T) {
	be := NewMemBackend()
	cfg := Config{Shards: 1, CompactMin: 1 << 20}
	st, err := Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sealAt(t, st, 1_000, 5)
	sealAt(t, st, 20_000, 5)
	cfg.RetainFor = 8_000
	cfg.Obs = obs.NewRegistry()
	st2, err := Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.Counter("store.expired_segments").Load(); got != 1 {
		t.Fatalf("expired %d segments after reopen, want 1", got)
	}
}
