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

var (
	sectionMu        sync.RWMutex
	sectionMergers   = map[string]SectionMerger{}
	sectionRenderers = map[string]SectionRenderer{}
)

// RegisterSectionMerger installs the merger for a section name,
// replacing any previous one. Typically called from the owning
// package's init so every binary that links it can merge its sections.
func RegisterSectionMerger(name string, fn SectionMerger) {
	sectionMu.Lock()
	defer sectionMu.Unlock()
	sectionMergers[name] = fn
}

// RegisterSectionRenderer installs the renderer for a section name,
// replacing any previous one.
func RegisterSectionRenderer(name string, fn SectionRenderer) {
	sectionMu.Lock()
	defer sectionMu.Unlock()
	sectionRenderers[name] = fn
}

func sectionMerger(name string) SectionMerger {
	sectionMu.RLock()
	defer sectionMu.RUnlock()
	return sectionMergers[name]
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

// mergeSections folds two section lists. Sections group by (name,
// version); groups with a registered merger fold pairwise, and groups
// without one — or whose merger fails — keep every entry verbatim
// (multiset union), which is still associative and commutative, so a
// controller older than a section's producer degrades to relaying
// instead of breaking the whole merge. The result is sorted by name,
// version, then payload for deterministic output.
func mergeSections(a, b []Section) []Section {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	type key struct {
		name    string
		version uint16
	}
	groups := make(map[key][][]byte, len(a)+len(b))
	for _, list := range [2][]Section{a, b} {
		for _, s := range list {
			k := key{s.Name, s.Version}
			groups[k] = append(groups[k], s.Data)
		}
	}
	out := make([]Section, 0, len(groups))
	for k, payloads := range groups {
		// Fold in a deterministic order so a merger that is not
		// perfectly commutative still cannot make merge results
		// depend on snapshot arrival order.
		slices.SortFunc(payloads, bytes.Compare)
		fn := sectionMerger(k.name)
		if fn != nil {
			merged := payloads[0]
			ok := true
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
	return out
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
