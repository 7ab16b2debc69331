package obs

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestRegistrySnapshotSorted: a registry whose metrics were created in
// random order snapshots every list in name order, as MergeOf reads
// it, and Registry.AppendBinary writes a snapshot behind what the
// buffer held.
func TestRegistrySnapshotSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		r := NewRegistry()
		for i := 0; i < rng.Intn(40); i++ {
			name := fmt.Sprintf("m%02d.%s", rng.Intn(60), strings.Repeat("x", rng.Intn(5)))
			switch rng.Intn(3) {
			case 0:
				r.Counter(name).Add(rng.Int63n(1 << 40))
			case 1:
				r.Gauge(name).Set(rng.Int63n(1<<20) - 1<<19)
			case 2:
				h := r.Histogram(name)
				for j := 0; j < rng.Intn(6); j++ {
					h.Observe(rng.Int63n(1 << uint(rng.Intn(62))))
				}
			}
		}
		for i := 0; i < rng.Intn(4); i++ {
			data := bytes.Repeat([]byte{byte(i)}, rng.Intn(300))
			r.RegisterSection(fmt.Sprintf("test.s%d", rng.Intn(8)), uint16(1+rng.Intn(3)), func(b []byte) []byte { return append(b, data...) })
		}
		r.RegisterSection("test.none", 1, func([]byte) []byte { return nil })
		s := r.Snapshot()
		if !slices.IsSortedFunc(s.Counters, cmpValueName) || !slices.IsSortedFunc(s.Gauges, cmpValueName) ||
			!slices.IsSortedFunc(s.Hists, cmpHistName) ||
			!slices.IsSortedFunc(s.Sections, func(a, b Section) int { return strings.Compare(a.Name, b.Name) }) {
			t.Fatalf("trial %d: a snapshot lists out of name order: %s", trial, s.EncodeJSON())
		}
		if got := r.AppendBinary([]byte("prefix"), ""); string(got[:6]) != "prefix" || CheckSnapshot(got[6:]) != nil {
			t.Fatalf("trial %d: AppendBinary did not append a snapshot behind the buffer's bytes", trial)
		}
	}
}

// TestMergeOfEqualsPairwiseFold: the one-pass merge of k snapshots is
// the pairwise fold it replaced — each folded into the first through
// per-pair maps — in its binary form, its JSON form, its machine and
// its time. The snapshots come from a shared name pool, each missing
// names, with disjoint and overlapping bucket sets, sections with a
// registered merger that fails on some payloads, and sections no merger
// knows.
func TestMergeOfEqualsPairwiseFold(t *testing.T) {
	RegisterSectionMerger("test.kway", 1, pair(func(a, b []byte) ([]byte, error) {
		if len(a) == 0 || len(b) == 0 || a[0] == 7 || b[0] == 7 {
			return nil, errors.New("unmergeable")
		}
		return []byte{a[0] + b[0], byte(len(a) + len(b))}, nil
	}))
	rng := rand.New(rand.NewSource(4404))
	names := []string{"a", "b.c", "daemon.req", "filter.kept", "q", "store.append_ns", "z"}
	random := func() *Snapshot {
		s := &Snapshot{Machine: fmt.Sprintf("m%d", rng.Intn(2)), TakenUnixNano: rng.Int63n(1<<40) - 1<<39}
		for _, n := range names {
			if rng.Intn(3) > 0 {
				s.Counters = append(s.Counters, NamedValue{Name: n, Value: rng.Int63n(1000)})
			}
			if rng.Intn(3) == 0 {
				s.Gauges = append(s.Gauges, NamedValue{Name: n, Value: rng.Int63n(1000) - 500})
			}
			if rng.Intn(2) == 0 {
				h := HistValue{Name: n, Count: rng.Int63n(100), Sum: rng.Int63n(1 << 30)}
				lo := rng.Intn(NumBuckets) // buckets of different snapshots overlap or not
				for b := lo; b < min(NumBuckets, lo+8); b++ {
					if rng.Intn(2) == 0 {
						h.Buckets = append(h.Buckets, BucketCount{Bucket: uint8(b), Count: rng.Int63n(50)})
					}
				}
				s.Hists = append(s.Hists, h)
			}
		}
		for _, n := range []string{"test.kway", "test.opaque"} {
			for v := uint16(1); v <= 2; v++ {
				if rng.Intn(2) == 0 {
					s.Sections = append(s.Sections, Section{Name: n, Version: v, Data: []byte{byte(rng.Intn(9)), byte(rng.Intn(3))}})
				}
			}
		}
		return s
	}
	for trial := 0; trial < 400; trial++ {
		snaps := make([]*Snapshot, 2+rng.Intn(6))
		for i := range snaps {
			snaps[i] = random()
		}
		want := clonePairwise(snaps[0])
		for _, s := range snaps[1:] {
			pairwiseMerge(want, s)
		}
		same := func(what string, snaps []*Snapshot) {
			t.Helper()
			var got Snapshot
			got.MergeOf(snaps)
			if got.Machine != want.Machine || got.TakenUnixNano != want.TakenUnixNano ||
				!bytes.Equal(got.MarshalBinary(), want.MarshalBinary()) || !bytes.Equal(got.EncodeJSON(), want.EncodeJSON()) {
				t.Fatalf("trial %d: %d %s merge to\n%s\nnot, as folded pairwise, to\n%s", trial, len(snaps), what, got.EncodeJSON(), want.EncodeJSON())
			}
		}
		same("snapshots", snaps)
		// Lists out of name order, as a JSON file written by hand may
		// hold them, merge to the same, and stay as they were.
		shuffled := make([]*Snapshot, len(snaps))
		for i, s := range snaps {
			c := clonePairwise(s)
			rng.Shuffle(len(c.Counters), func(i, j int) { c.Counters[i], c.Counters[j] = c.Counters[j], c.Counters[i] })
			rng.Shuffle(len(c.Gauges), func(i, j int) { c.Gauges[i], c.Gauges[j] = c.Gauges[j], c.Gauges[i] })
			rng.Shuffle(len(c.Hists), func(i, j int) { c.Hists[i], c.Hists[j] = c.Hists[j], c.Hists[i] })
			if i == 0 {
				parsed, err := ParseSnapshotJSON(c.EncodeJSON())
				if err != nil {
					t.Fatal(err)
				}
				c = parsed
			}
			shuffled[i] = c
		}
		before := shuffled[len(shuffled)-1].EncodeJSON()
		same("shuffled snapshots", shuffled)
		if after := shuffled[len(shuffled)-1].EncodeJSON(); !bytes.Equal(before, after) {
			t.Fatalf("trial %d: merging sorted a snapshot's own lists", trial)
		}
	}
}

func clonePairwise(s *Snapshot) *Snapshot {
	c := *s
	c.Counters = slices.Clone(s.Counters)
	c.Gauges = slices.Clone(s.Gauges)
	c.Hists = slices.Clone(s.Hists)
	c.Sections = slices.Clone(s.Sections)
	return &c
}

// pairwiseMerge is Snapshot.Merge as it was before the one-pass merge:
// maps by name, by bucket and by section key for every pair.
func pairwiseMerge(s, other *Snapshot) {
	if other.TakenUnixNano > s.TakenUnixNano {
		s.TakenUnixNano = other.TakenUnixNano
	}
	if s.Machine != other.Machine {
		s.Machine = ""
	}
	values := func(a, b []NamedValue) []NamedValue {
		byName := make(map[string]int64, len(a)+len(b))
		for _, v := range slices.Concat(a, b) {
			byName[v.Name] += v.Value
		}
		out := make([]NamedValue, 0, len(byName))
		for name, v := range byName {
			out = append(out, NamedValue{Name: name, Value: v})
		}
		slices.SortFunc(out, func(a, b NamedValue) int { return strings.Compare(a.Name, b.Name) })
		return out
	}
	s.Counters = values(s.Counters, other.Counters)
	s.Gauges = values(s.Gauges, other.Gauges)
	byName := make(map[string]*HistValue)
	for _, h := range slices.Concat(s.Hists, other.Hists) {
		dst, ok := byName[h.Name]
		if !ok {
			cp := HistValue{Name: h.Name, Count: h.Count, Sum: h.Sum}
			cp.Buckets = append(cp.Buckets, h.Buckets...)
			byName[h.Name] = &cp
			continue
		}
		dst.Count += h.Count
		dst.Sum += h.Sum
		counts := make(map[uint8]int64)
		for _, bc := range slices.Concat(dst.Buckets, h.Buckets) {
			counts[bc.Bucket] += bc.Count
		}
		dst.Buckets = dst.Buckets[:0]
		for bucket, n := range counts {
			dst.Buckets = append(dst.Buckets, BucketCount{Bucket: bucket, Count: n})
		}
		slices.SortFunc(dst.Buckets, func(a, b BucketCount) int { return cmp.Compare(a.Bucket, b.Bucket) })
	}
	s.Hists = make([]HistValue, 0, len(byName))
	for _, h := range byName {
		s.Hists = append(s.Hists, *h)
	}
	slices.SortFunc(s.Hists, func(a, b HistValue) int { return strings.Compare(a.Name, b.Name) })
	if len(s.Sections) == 0 && len(other.Sections) == 0 {
		s.Sections = nil
		return
	}
	groups := make(map[sectionKey][][]byte)
	for _, sec := range slices.Concat(s.Sections, other.Sections) {
		k := sectionKey{sec.Name, sec.Version}
		groups[k] = append(groups[k], sec.Data)
	}
	var out []Section
	for k, payloads := range groups {
		slices.SortFunc(payloads, bytes.Compare)
		if fn := sectionMerger(k); fn != nil {
			merged, ok := payloads[0], true
			for _, p := range payloads[1:] {
				m, err := fn(merged, p)
				if err != nil {
					ok = false
					break
				}
				merged = m
			}
			if ok {
				out = append(out, Section{Name: k.name, Version: k.version, Data: merged})
				continue
			}
		}
		for _, p := range payloads {
			out = append(out, Section{Name: k.name, Version: k.version, Data: p})
		}
	}
	slices.SortFunc(out, func(a, b Section) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Version, b.Version), bytes.Compare(a.Data, b.Data))
	})
	s.Sections = out
}
