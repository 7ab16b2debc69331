package obs

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// Section is an opaque, versioned payload a subsystem attaches to a
// snapshot — the escape hatch for structured state (a live
// communication matrix, parallelism intervals) that does not reduce to
// flat counters yet must ride the same snapshot plumbing: the daemon's
// TStatsReq answer, the controller's cluster-wide merge, forensic JSON
// files, cmd/dpstat. The snapshot machinery never interprets Data; a
// subsystem that understands the Name registers a merger and a
// renderer for it. Unknown or newer-versioned sections are carried
// through untouched, so an old controller can still relay a new
// daemon's sections to a new dpstat.
type Section struct {
	Name    string `json:"name"`
	Version uint16 `json:"version"`
	Data    []byte `json:"data"` // base64 in the JSON form
}

// SectionMerger combines two payloads of the same section name and
// version into one. It must be associative and commutative on payload
// multisets — the same contract Snapshot.Merge gives counters — so
// per-machine snapshots fold in any order. A merger that cannot make
// sense of a payload returns an error; the merge then keeps both
// inputs verbatim rather than corrupting or dropping state.
type SectionMerger func(a, b []byte) ([]byte, error)

// SectionRenderer writes a human-readable report of one section to w
// (used by Snapshot.Render, which serves controller stats and dpmon).
type SectionRenderer func(w io.Writer, s *Section)

// sectionKey names a section's format: its name and payload version.
type sectionKey struct {
	name    string
	version uint16
}

var (
	sectionMu        sync.RWMutex
	sectionMergers   = map[sectionKey]SectionMerger{}
	sectionRenderers = map[string]SectionRenderer{}
)

// RegisterSectionMerger installs the merger for one version of a
// section, replacing any previous one; payloads of other versions are
// never handed to it. Typically called from the owning package's init
// so every binary that links it can merge its sections.
func RegisterSectionMerger(name string, version uint16, fn SectionMerger) {
	sectionMu.Lock()
	defer sectionMu.Unlock()
	sectionMergers[sectionKey{name, version}] = fn
}

// RegisterSectionRenderer installs the renderer for a section name,
// replacing any previous one.
func RegisterSectionRenderer(name string, fn SectionRenderer) {
	sectionMu.Lock()
	defer sectionMu.Unlock()
	sectionRenderers[name] = fn
}

func sectionMerger(k sectionKey) SectionMerger {
	sectionMu.RLock()
	defer sectionMu.RUnlock()
	return sectionMergers[k]
}

func sectionRenderer(name string) SectionRenderer {
	sectionMu.RLock()
	defer sectionMu.RUnlock()
	return sectionRenderers[name]
}

// Section returns the first section with the given name, nil when
// absent.
func (s *Snapshot) Section(name string) *Section {
	for i := range s.Sections {
		if s.Sections[i].Name == name {
			return &s.Sections[i]
		}
	}
	return nil
}

// mergeSections returns the sections of snaps merged as Merge folds
// them one snapshot at a time. Payloads group by (name, version): a
// group holds the first snapshot's as they are, and at each later
// snapshot that brings it payloads — or at the second, for a group the
// first brought several — they are sorted and folded, left to right,
// by the merger registered for that version. A group
// with no merger, or whose merger fails, keeps every payload verbatim
// (multiset union), which is still associative and commutative, so a
// controller older than a section's producer degrades to relaying
// instead of breaking the whole merge. The sort makes the fold
// deterministic even for a merger that is not perfectly commutative.
// The result is sorted by name, version, then payload; nil when no
// snapshot has a section.
func mergeSections(snaps []*Snapshot) []Section {
	type group struct {
		key      sectionKey
		payloads [][]byte
		dirty    bool // payloads joined since the last fold
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
				g.payloads, g.dirty = foldSection(g.key, g.payloads), false
			}
		}
	}
	if len(groups) == 0 {
		return nil
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

// foldSection sorts one group's payloads and folds them through the
// merger registered for k into one, or returns them all, sorted, when
// there is no merger or it fails.
func foldSection(k sectionKey, payloads [][]byte) [][]byte {
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

// renderSections writes each section through its registered renderer,
// falling back to a one-line size note for unknown names so a report
// never hides that state arrived.
func renderSections(w io.Writer, sections []Section) {
	for i := range sections {
		s := &sections[i]
		if fn := sectionRenderer(s.Name); fn != nil {
			fn(w, s)
			continue
		}
		fmt.Fprintf(w, "section %s v%d: %d bytes (no renderer linked)\n", s.Name, s.Version, len(s.Data))
	}
}
