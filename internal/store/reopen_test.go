package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dpm/internal/fsys"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
)

// snapshotAnswer renders what a reader says of its store: every
// segment as Open found it, and the answers of a record query and a
// selective one over it.
func snapshotAnswer(t *testing.T, rd *store.Reader) string {
	t.Helper()
	var b strings.Builder
	for _, segs := range rd.Shards() {
		for _, rs := range segs {
			fmt.Fprintf(&b, "%s shard=%d start=%d tier=%d sealed=%v %+v disk=%d raw=%d tail=%x\n",
				rs.Name, rs.Shard, rs.Start, rs.Tier, rs.Sealed, rs.Index,
				rs.DiskBytes(), rs.RawBytes(), rs.Tail())
		}
	}
	for _, rules := range []string{"", "machine=1,msgLength>=100"} {
		q, err := query.Compile(rules)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Run(rd, q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n%s", res.Stats, res.Lines)
	}
	return b.String()
}

// TestReopenNeverStale: a reader reopened from the last one answers as
// a fresh OpenReader does through every way a store's files change —
// appends to an unsealed segment, rotation, compaction, archival, the
// recovery of a torn tail under the same name, and the
// directory removed and rebuilt with colliding names and equal lengths
// — on a backend that lends a file's bytes from memory and on the
// simulated file system's. It also takes unchanged segments as they were.
func TestReopenNeverStale(t *testing.T) {
	backends := []struct {
		name string
		new  func() store.Backend
	}{
		{"mem", func() store.Backend { return store.NewMemBackend() }},
		{"fsys", func() store.Backend { return store.NewFsysBackend(fsys.New(), fsys.Superuser, "/usr/tmp/f.store") }},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			be, reg := bk.new(), obs.NewRegistry()
			cfg := store.Config{Shards: 2, SegmentCap: 2048, CompactMin: 3, ArchiveAfter: 6000, Obs: reg}
			var prev *store.Reader
			reused := 0
			check := func(step string) {
				t.Helper()
				rd, err := store.Reopen(prev, be)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := store.OpenReader(be)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := snapshotAnswer(t, rd), snapshotAnswer(t, fresh); got != want {
					t.Fatalf("after %s, the reopened reader says\n%s\na fresh one\n%s", step, got, want)
				}
				if prev != nil {
					old := map[*store.ReaderSegment]bool{}
					for _, segs := range prev.Shards() {
						for _, rs := range segs {
							old[rs] = true
						}
					}
					for _, segs := range rd.Shards() {
						for _, rs := range segs {
							if old[rs] {
								reused++
							}
						}
					}
				}
				prev = rd
			}
			// Lines of one length whatever the round, so that a rebuilt
			// store's files collide with the old ones in name and length.
			add := func(st *store.Store, round, i int, when uint32) {
				t.Helper()
				machine := uint16(1 + i%2)
				line := fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=%d sock=3 msgLength=%d",
					machine, when, 100+round, 100+(i*7+round)%900)
				if err := st.AppendLine(store.Meta{Machine: machine, Time: when, Type: 1, PID: uint32(100 + round)}, line); err != nil {
					t.Fatal(err)
				}
			}
			st, err := store.Open(be, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("open")
			for i := 0; i < 400; i++ {
				add(st, 0, i, uint32(10000+i*10))
				if i%37 == 0 {
					check(fmt.Sprintf("append %d", i))
				}
			}
			check("rotations")
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			check("flush")

			// The directory removed and rebuilt: the same names at the same
			// lengths, other records.
			lengths := map[string]int{}
			for _, segs := range prev.Shards() {
				for _, rs := range segs {
					lengths[rs.Name] = rs.DiskBytes()
					if err := be.Remove(rs.Name); err != nil {
						t.Fatal(err)
					}
				}
			}
			if st, err = store.Open(be, cfg); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				add(st, 1, i, uint32(10000+i*10))
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			check("removal and rebuild")
			collide := 0
			for _, segs := range prev.Shards() {
				for _, rs := range segs {
					if lengths[rs.Name] == rs.DiskBytes() {
						collide++
					}
				}
			}
			if collide == 0 {
				t.Fatal("no rebuilt segment has an old one's name and length")
			}

			for k := 0; k < 4; k++ { // small sealed segments, which compact
				for i := 0; i < 5; i++ {
					add(st, 0, i, uint32(14000+k*50+i))
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("flush %d", k))
			}
			for i := 0; i < 200; i++ { // far ahead: the first records go cold
				add(st, 0, i, uint32(30000+i*10))
			}
			if err := st.Maintain(); err != nil {
				t.Fatal(err)
			}
			check("archival")

			// A torn tail: the active segment loses its last bytes under the
			// same name, and the next Open recovers it, again under that name.
			for i := 0; i < 5; i++ {
				add(st, 0, i, uint32(33000+i))
			}
			check("unsealed tail")
			torn := ""
			for _, segs := range prev.Shards() {
				if rs := segs[len(segs)-1]; !rs.Sealed {
					torn = rs.Name
				}
			}
			if torn == "" {
				t.Fatal("no unsealed segment to tear")
			}
			data, err := be.Read(torn)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.Create(torn, append([]byte(nil), data[:len(data)-3]...)); err != nil {
				t.Fatal(err)
			}
			check("torn tail")
			if st, err = store.Open(be, cfg); err != nil {
				t.Fatal(err)
			}
			check("recovery")

			for _, c := range []string{"store.compactions", "store.archive_runs", "store.recovered"} {
				if reg.Counter(c).Load() == 0 {
					t.Errorf("%s = 0: the store was not put through it", c)
				}
			}

			if reused == 0 {
				t.Fatal("no segment was taken from the last reader")
			}
		})
	}
}

// TestReopenChainEqualsFresh: a reader chained by Reopen from the one
// before holds, after every step of a seeded random run over four
// shards, exactly the segments and records of a fresh OpenReader. The
// steps append (rotating segments and compacting small ones), flush,
// archive, and expire — a retention sweep removing a shard's oldest
// file while the writer is down, which reopens the store after it.
// Each link is two Reopens from one prev at once, both checked. A uid
// that may not read the store's files is never handed a segment: a
// Reopen from the owner's reader through its backend fails with
// ErrPerm.
func TestReopenChainEqualsFresh(t *testing.T) {
	const owner, other, dir = 100, 101, "/usr/tmp/f.store"
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := fsys.New()
		be, denied := store.NewFsysBackend(fs, owner, dir), store.NewFsysBackend(fs, other, dir)
		cfg := store.Config{Shards: 4, SegmentCap: 1024, CompactMin: 3, ArchiveAfter: 4000, Obs: obs.NewRegistry()}
		st, err := store.Open(be, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prev *store.Reader
		when, shared := uint32(1000), 0
		for step := 0; step < 120; step++ {
			op := ""
			switch r := rng.Intn(10); {
			case r < 6:
				n := 1 + rng.Intn(30)
				op = fmt.Sprintf("append %d", n)
				for i := 0; i < n; i++ {
					when += uint32(1 + rng.Intn(40))
					machine := uint16(rng.Intn(8))
					line := fmt.Sprintf("SEND machine=%d cpuTime=%d procTime=0 pid=%d sock=3 msgLength=%d", machine, when, 100+i%3, rng.Intn(1000))
					if err := st.AppendLine(store.Meta{Machine: machine, Time: when, Type: 1, PID: uint32(100 + i%3)}, line); err != nil {
						t.Fatal(err)
					}
				}
			case r < 8:
				op = "flush"
				err = st.Flush()
			case r < 9:
				op = "archival"
				err = st.Maintain()
			default:
				sh := rng.Intn(4)
				op = fmt.Sprintf("expiry in shard %d", sh)
				if prev != nil && sh < len(prev.Shards()) && len(prev.Shards()[sh]) > 0 {
					err = be.Remove(prev.Shards()[sh][0].Name)
				}
				if err == nil {
					st, err = store.Open(be, cfg)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			var links [2]*store.Reader
			var errs [2]error
			var wg sync.WaitGroup
			for g := range links {
				wg.Add(1)
				go func() {
					defer wg.Done()
					links[g], errs[g] = store.Reopen(prev, be)
				}()
			}
			wg.Wait()
			fresh, err := store.OpenReader(be)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotAnswer(t, fresh)
			for g, rd := range links {
				if errs[g] != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, op, errs[g])
				}
				if got := snapshotAnswer(t, rd); got != want {
					t.Fatalf("seed %d step %d %s: the chained reader says\n%s\na fresh one\n%s", seed, step, op, got, want)
				}
			}
			if _, err := store.Reopen(links[0], denied); fresh.NumSegments() > 0 && !errors.Is(err, fsys.ErrPerm) {
				t.Fatalf("seed %d step %d %s: uid %d's reopen of uid %d's reader: %v, want ErrPerm", seed, step, op, other, owner, err)
			}
			for sh, segs := range links[0].Shards() {
				if prev != nil && sh < len(prev.Shards()) && len(segs) > 0 && len(prev.Shards()[sh]) > 0 && &segs[0] == &prev.Shards()[sh][0] {
					shared++
				}
			}
			prev = links[0]
		}
		for _, c := range []string{"store.rotations", "store.compactions", "store.archive_runs"} {
			if cfg.Obs.Counter(c).Load() == 0 {
				t.Errorf("seed %d: %s = 0: the store was not put through it", seed, c)
			}
		}
		if shared == 0 {
			t.Errorf("seed %d: no reader shared a shard's segments with the one before", seed)
		}
	}
}
