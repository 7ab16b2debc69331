package filter

import (
	"sync/atomic"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// The record tap is the hook live streaming analysis hangs on: an
// observer that sees every record surviving selection, on the hot path,
// cheap enough to leave on. The engine never interprets what a tap
// does; it only promises two things. First, TapRecord is called with
// the record still in its extracted (pre-discard-mask) form plus the
// plan's TapInfo, so a tap reads fields by precomputed index — no
// string comparison, no map lookup, no allocation on the engine side.
// Second, the record and its fields are only valid for the duration of
// the call (they alias the engine's extraction record), so a tap must
// copy what it keeps.
//
// Taps are per-engine and engines are per-worker in the parallel
// pipeline, so TapRecord needs no internal locking for the per-record
// path; cross-worker aggregation happens in TapFlush, which the
// pipeline calls once per processed chunk — the natural batch boundary
// to amortize a lock over.

// TapInfo is the per-event-type index table a tap reads records
// through, computed once at compile time. Each index is the position
// in Record.Fields of the named field, -1 when the event type does not
// carry it. The indices cover the standard-description vocabulary;
// custom descriptions using the same field names get tapped the same
// way, and fields under other names simply stay -1.
type TapInfo struct {
	// Type is the event type this plan describes.
	Type meter.Type
	// PIDIdx is "pid" — the acting process.
	PIDIdx int16
	// SockIdx is "sock" — the acting descriptor.
	SockIdx int16
	// LenIdx is "msgLength" (SEND/RECEIVE).
	LenIdx int16
	// AuxIdx is the type's auxiliary numeric: "newSock" (DUP/ACCEPT),
	// "newPid" (FORK), or "status" (TERMPROC).
	AuxIdx int16
	// Name1Idx is the type's primary socket name: "destName" (SEND),
	// "sourceName" (RECEIVE), or "sockName" (CONNECT/ACCEPT).
	Name1Idx int16
	// Name2Idx is "peerName" (CONNECT/ACCEPT).
	Name2Idx int16
}

// tapIndexOf resolves one body-field name to its index, -1 when absent.
func tapIndexOf(ev *EventDesc, names ...string) int16 {
	for _, name := range names {
		for i := range ev.Fields {
			if ev.Fields[i].Name == name {
				return int16(i)
			}
		}
	}
	return -1
}

// buildTapInfo computes a plan's tap index table from its description.
func buildTapInfo(ev *EventDesc) TapInfo {
	return TapInfo{
		Type:     ev.Type,
		PIDIdx:   tapIndexOf(ev, "pid"),
		SockIdx:  tapIndexOf(ev, "sock"),
		LenIdx:   tapIndexOf(ev, "msgLength"),
		AuxIdx:   tapIndexOf(ev, "newSock", "newPid", "status"),
		Name1Idx: tapIndexOf(ev, "destName", "sourceName", "sockName"),
		Name2Idx: tapIndexOf(ev, "peerName"),
	}
}

// RecordTap observes records that survive selection. Implementations
// live in internal/analysis/live; the engine only calls through this
// interface.
type RecordTap interface {
	// TapRecord sees one kept record. info and rec are valid only for
	// the duration of the call.
	TapRecord(info *TapInfo, rec *Record)
	// TapFlush marks a batch boundary: the pipeline calls it after each
	// processed chunk, and Close-time drains end with one. A tap
	// buffering records locally publishes them here.
	TapFlush()
}

// TapSource hands out one RecordTap per pipeline worker, so the
// per-record path stays single-threaded per tap.
type TapSource interface {
	NewTap() RecordTap
}

// TapCloser is an optional extension of TapSource: a source running
// background work (the live collector's drainer) implements Close, and
// the pipeline calls it once after the last worker has drained and
// issued its final TapFlush. A closed source must keep serving
// captures — only its background activity stops.
type TapCloser interface {
	Close()
}

// SetTap attaches a tap to this engine (nil detaches). Clone does not
// carry the tap: each pipeline worker's engine gets its own via
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
// live operators import filter for Record and TapInfo, so the
// dependency cannot point the other way). Atomic because clusters are
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
