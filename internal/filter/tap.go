package filter

import (
	"sync/atomic"

	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// The record tap is the hook live streaming analysis hangs on: an
// observer that sees every record surviving selection, on the hot path,
// cheap enough to leave on. The engine never interprets what a tap
// does; it only promises two things. First, TapRecord is called with
// the record's store metadata and its slots before the rule's discards
// are taken out: a tap reads a field at its key's place in the event
// type's stored order (trace.SlotKeys), a place it resolves once — no
// string comparison, no map lookup, no allocation on the engine side.
// Second, the metadata and slots are only valid for the duration of the
// call (they are the engine's), so a tap must copy what it keeps.
//
// Taps are per-engine, and a pipeline engine serves one feed at a
// time, so TapRecord needs no internal locking for the per-record path;
// cross-engine aggregation happens in TapFlush, which the pipeline calls
// once per processed chunk — the natural batch boundary to amortize a
// lock over.

// RecordTap observes records that survive selection. Implementations
// live in internal/analysis/live; the engine only calls through this
// interface.
type RecordTap interface {
	// TapRecord sees one kept record. m and s are valid only for the
	// duration of the call.
	TapRecord(m *store.Meta, s *trace.Slots)
	// TapFlush marks a batch boundary: the pipeline calls it after each
	// processed chunk. A tap buffering records locally publishes them
	// here.
	TapFlush()
}

// TapSource hands out one RecordTap per pipeline engine, so the
// per-record path stays single-threaded per tap.
type TapSource interface {
	NewTap() RecordTap
}

// TapCloser is an optional extension of TapSource: a source running
// background work (the live collector's drainer) implements Close, and
// the pipeline's Close calls it once the last feed is done and has
// issued its final TapFlush. A closed source must keep serving
// captures — only its background activity stops.
type TapCloser interface {
	Close()
}

// SetTap attaches a tap to this engine (nil detaches). Clone does not
// carry the tap: each pipeline engine gets its own via
// PipelineConfig.Taps.
func (e *Engine) SetTap(t RecordTap) { e.tap = t }

// TapFlush signals a batch boundary to the attached tap, if any.
// Sequential callers driving ProcessBatch directly should call it at
// their own flush points.
func (e *Engine) TapFlush() {
	if e.tap != nil {
		e.tap.TapFlush()
	}
}

// TapFactory builds a tap source for one standard filter; reg is the
// filter's machine registry, so the taps' metrics and snapshot
// sections land where the daemon's stats handler will find them.
type TapFactory func(reg *obs.Registry, filterName string) TapSource

// tapFactory, when set, supplies the tap source for every standard
// filter started by Main — the seam through which internal/core wires
// live analysis into filters without this package importing it (the
// live operators import filter for RecordTap, so the dependency cannot
// point the other way). Atomic because clusters are
// constructed while other clusters' filters may be running.
var tapFactory atomic.Pointer[TapFactory]

// SetTapFactory installs the factory Main consults when building its
// pipeline; nil disables tapping.
func SetTapFactory(fn TapFactory) {
	if fn == nil {
		tapFactory.Store(nil)
		return
	}
	tapFactory.Store(&fn)
}

// loadTapFactory returns the installed factory, nil when none.
func loadTapFactory() TapFactory {
	if p := tapFactory.Load(); p != nil {
		return *p
	}
	return nil
}
