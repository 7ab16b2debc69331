package obs

import (
	"bytes"
	"fmt"
	"slices"
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

// SectionMerger folds payloads of one section name and version, any
// number of them, sorted, into one, in one call: a merge of k machines
// decodes each payload once and encodes the result once. It must be
// associative and commutative on payload multisets — the same contract
// Snapshot.Merge gives counters — and fail only on a payload it cannot
// read, so that merging in one call is merging in any grouping. On
// failure the merge falls back to folding the payloads pairwise, as
// Merge adds one snapshot at a time, keeping verbatim the payloads of
// a pair that fails rather than corrupting or dropping state.
type SectionMerger func(payloads ...[]byte) ([]byte, error)

// SectionRenderer appends a human-readable report of one section to b
// (used by Snapshot.Render and AppendReport, which serve controller
// stats and dpmon).
type SectionRenderer func(b []byte, s Section) []byte

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

// payload is one section payload of a merge and the index of the
// snapshot it came from.
type payload struct {
	data []byte
	from int
}

// foldGroup returns one group's payloads — every payload of one name
// and version, in snapshot order — merged as Merge folds them one
// snapshot at a time: at the second snapshot, and at every later one
// that brings payloads, the payloads so far are sorted and folded left
// to right through fn. A fold that fails, or a group with no merger,
// keeps every payload verbatim (multiset union), which is still
// associative and commutative, so a controller older than a section's
// producer degrades to relaying instead of breaking the whole merge.
// The sort makes the fold deterministic even for a merger that is not
// perfectly commutative. One call of fn over all payloads makes the
// same whenever it succeeds; only when it fails is the fold replayed
// snapshot by snapshot. args is scratch for the call. The result is
// sorted.
func foldGroup(fn SectionMerger, ps []payload, args [][]byte) [][]byte {
	args = args[:0]
	for _, p := range ps {
		args = append(args, p.data)
	}
	slices.SortFunc(args, bytes.Compare)
	if fn == nil || len(args) < 2 {
		return args
	}
	if m, err := fn(args...); err == nil {
		return append(args[:0], m)
	}
	list, stepped := args[:0], false
	fold := func() {
		slices.SortFunc(list, bytes.Compare)
		stepped = true
		if len(list) < 2 {
			return
		}
		merged := list[0]
		for _, p := range list[1:] {
			m, err := fn(merged, p)
			if err != nil {
				return
			}
			merged = m
		}
		list = append(list[:0], merged)
	}
	for i := 0; i < len(ps); {
		from := ps[i].from
		if from > 1 && !stepped {
			fold()
		}
		for ; i < len(ps) && ps[i].from == from; i++ {
			list = append(list, ps[i].data)
		}
		if from > 0 {
			fold()
		}
	}
	if !stepped {
		fold()
	}
	return list
}

// appendSection appends s through the renderer registered for its name,
// or a one-line size note for an unknown name, so a report never hides
// that state arrived.
func appendSection(b []byte, s Section) []byte {
	if fn := sectionRenderer(s.Name); fn != nil {
		return fn(b, s)
	}
	return fmt.Appendf(b, "section %s v%d: %d bytes (no renderer linked)\n", s.Name, s.Version, len(s.Data))
}
