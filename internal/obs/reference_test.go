package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// The reference merge and render: the struct walk the stats path used
// before it read snapshots in their binary form — sorted copies of
// lists out of order, a k-way merge by name over the structs, buckets
// summed into an array, each section group folded pairwise one
// snapshot at a time, and fmt for every row. FuzzParseSnapshot checks
// AppendReport against it.

func referenceMergeOf(snaps []*Snapshot) *Snapshot {
	s := &Snapshot{}
	snaps = referenceInNameOrder(snaps)
	if len(snaps) > 0 {
		s.Machine, s.TakenUnixNano = snaps[0].Machine, snaps[0].TakenUnixNano
	}
	for _, o := range snaps {
		s.TakenUnixNano = max(s.TakenUnixNano, o.TakenUnixNano)
		if o.Machine != s.Machine {
			s.Machine = ""
		}
	}
	at := make([]int, len(snaps))
	valueName := func(v *NamedValue) string { return v.Name }
	addValue := func(acc, v *NamedValue, first bool) {
		if first {
			*acc = *v
		} else {
			acc.Value += v.Value
		}
	}
	s.Counters = referenceMergeByName(snaps, at, func(o *Snapshot) []NamedValue { return o.Counters }, valueName, addValue)
	s.Gauges = referenceMergeByName(snaps, at, func(o *Snapshot) []NamedValue { return o.Gauges }, valueName, addValue)
	s.Hists = referenceMergeByName(snaps, at, func(o *Snapshot) []HistValue { return o.Hists },
		func(h *HistValue) string { return h.Name },
		func(acc, h *HistValue, first bool) {
			if first {
				*acc = HistValue{Name: h.Name}
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			acc.Buckets = append(acc.Buckets, h.Buckets...)
		})
	var counts [256]int64
	var seen [256]bool
	for i := range s.Hists {
		h := &s.Hists[i]
		for _, bc := range h.Buckets {
			counts[bc.Bucket] += bc.Count
			seen[bc.Bucket] = true
		}
		h.Buckets = h.Buckets[:0]
		for b := range seen {
			if seen[b] {
				h.Buckets = append(h.Buckets, BucketCount{Bucket: uint8(b), Count: counts[b]})
				counts[b], seen[b] = 0, false
			}
		}
	}
	s.Sections = referenceMergeSections(snaps)
	return s
}

func referenceInNameOrder(snaps []*Snapshot) []*Snapshot {
	out := slices.Clone(snaps)
	for i, o := range snaps {
		c := *o
		c.Counters, c.Gauges, c.Hists = slices.Clone(o.Counters), slices.Clone(o.Gauges), slices.Clone(o.Hists)
		slices.SortStableFunc(c.Counters, cmpValueName)
		slices.SortStableFunc(c.Gauges, cmpValueName)
		slices.SortStableFunc(c.Hists, cmpHistName)
		out[i] = &c
	}
	return out
}

func referenceMergeByName[T any](snaps []*Snapshot, at []int, list func(*Snapshot) []T,
	name func(*T) string, fold func(acc, v *T, first bool)) []T {
	clear(at)
	var out []T
	for {
		least, ok := "", false
		for i, o := range snaps {
			if l := list(o); at[i] < len(l) && (!ok || name(&l[at[i]]) < least) {
				least, ok = name(&l[at[i]]), true
			}
		}
		if !ok {
			return out
		}
		var zero T
		out = append(out, zero)
		acc, first := &out[len(out)-1], true
		for i, o := range snaps {
			for l := list(o); at[i] < len(l) && name(&l[at[i]]) == least; at[i]++ {
				fold(acc, &l[at[i]], first)
				first = false
			}
		}
	}
}

func referenceMergeSections(snaps []*Snapshot) []Section {
	type group struct {
		key      sectionKey
		payloads [][]byte
		dirty    bool
	}
	var groups []group
	index := map[sectionKey]int{}
	for i, o := range snaps {
		for _, sec := range o.Sections {
			k := sectionKey{sec.Name, sec.Version}
			g, ok := index[k]
			if !ok {
				g = len(groups)
				index[k] = g
				groups = append(groups, group{key: k})
			}
			groups[g].payloads = append(groups[g].payloads, sec.Data)
			groups[g].dirty = true
		}
		for j := range groups {
			if g := &groups[j]; i > 0 && g.dirty {
				g.payloads, g.dirty = referenceFoldSection(g.key, g.payloads), false
			}
		}
	}
	var out []Section
	for _, g := range groups {
		for _, p := range g.payloads {
			out = append(out, Section{Name: g.key.name, Version: g.key.version, Data: p})
		}
	}
	slices.SortFunc(out, func(a, b Section) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(a.Version, b.Version), bytes.Compare(a.Data, b.Data))
	})
	return out
}

func referenceFoldSection(k sectionKey, payloads [][]byte) [][]byte {
	slices.SortFunc(payloads, bytes.Compare)
	fn := sectionMerger(k)
	if fn == nil || len(payloads) < 2 {
		return payloads
	}
	merged := payloads[0]
	for _, p := range payloads[1:] {
		m, err := fn(merged, p)
		if err != nil {
			return payloads
		}
		merged = m
	}
	return append(payloads[:0], merged)
}

func referenceRender(w io.Writer, s *Snapshot) {
	if s.Machine != "" {
		fmt.Fprintf(w, "machine %s\n", s.Machine)
	}
	if s.TakenUnixNano != 0 {
		fmt.Fprintf(w, "taken %s\n", time.Unix(0, s.TakenUnixNano).UTC().Format(time.RFC3339))
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, v := range s.Counters {
			fmt.Fprintf(w, "  %-40s %12d\n", v.Name, v.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		for _, v := range s.Gauges {
			fmt.Fprintf(w, "  %-40s %12d\n", v.Name, v.Value)
		}
	}
	if len(s.Hists) > 0 {
		fmt.Fprintf(w, "histograms:%31s %12s %10s %10s %10s %10s\n", "", "count", "mean", "p50", "p95", "p99")
		for i := range s.Hists {
			h := &s.Hists[i]
			fmt.Fprintf(w, "  %-40s %12d %10v %10v %10v %10v\n",
				h.Name, h.Count,
				time.Duration(h.Mean()).Round(time.Microsecond),
				time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
				time.Duration(h.Quantile(0.99)).Round(time.Microsecond))
		}
	}
	for i := range s.Sections {
		sec := &s.Sections[i]
		if fn := sectionRenderer(sec.Name); fn != nil {
			w.Write(fn(nil, *sec))
			continue
		}
		fmt.Fprintf(w, "section %s v%d: %d bytes (no renderer linked)\n", sec.Name, sec.Version, len(sec.Data))
	}
}

// referenceReport is the stats report of snaps as the reference makes
// it: the one snapshot rendered as it is, or the merge of several, and
// the conservation residuals of what it rendered.
func referenceReport(snaps []*Snapshot) (string, []NamedValue) {
	if len(snaps) == 0 {
		return "", nil
	}
	merged := snaps[0]
	if len(snaps) > 1 {
		merged = referenceMergeOf(snaps)
	}
	var b strings.Builder
	referenceRender(&b, merged)
	return b.String(), referenceResiduals(merged)
}

func referenceResiduals(s *Snapshot) []NamedValue {
	var out []NamedValue
	for _, law := range conservation {
		r, sign := int64(0), int64(1)
		for _, term := range strings.Fields(law) {
			switch term {
			case "=":
				sign = -1
			case "+":
			default:
				v, _ := s.Get(term)
				r += sign * v
			}
		}
		if r != 0 {
			out = append(out, NamedValue{Name: law, Value: r})
		}
	}
	return out
}
