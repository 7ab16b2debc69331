package analysis

import (
	"errors"
	"fmt"
	"sort"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// The paper reports that the tools were useful "for measurement
// studies, as well as for program debugging" (section 5). Validate is
// the debugging half: a consistency check over a trace that flags the
// impossible (more bytes received than sent on a reliable stream,
// events after termination, a cyclic event order) and the suspicious
// (connections never accepted, processes still blocked at the end).

// Severity classifies a diagnostic.
type Severity int

// Severities.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = map[Severity]string{Info: "info", Warning: "warning", Error: "error"}

func (s Severity) String() string { return severityNames[s] }

// Diagnostic is one finding of Validate.
type Diagnostic struct {
	Severity Severity
	// Seq is the event the finding anchors to, or -1 for trace-wide
	// findings.
	Seq     int
	Message string
}

func (d Diagnostic) String() string {
	if d.Seq >= 0 {
		return fmt.Sprintf("%s at event %d: %s", d.Severity, d.Seq, d.Message)
	}
	return fmt.Sprintf("%s: %s", d.Severity, d.Message)
}

// Validate checks a trace for internal consistency and returns the
// findings, most severe first.
func Validate(events []trace.Event, opts *MatchOptions) []Diagnostic {
	var diags []Diagnostic
	add := func(sev Severity, seq int, format string, args ...any) {
		diags = append(diags, Diagnostic{Severity: sev, Seq: seq, Message: fmt.Sprintf(format, args...)})
	}

	// Events after a process's termination are impossible: termination
	// flushes the last meter messages.
	terminated := make(map[ProcKey]int)
	for i := range events {
		e := &events[i]
		k := keyOf(e)
		if t, done := terminated[k]; done {
			add(Error, e.Seq, "process %s has a %s event after its termination at event %d", k, e.Event, t)
		}
		if e.Type == meter.EvTermProc {
			terminated[k] = e.Seq
		}
	}

	// Stream conservation: on each connection direction, the receiver
	// cannot consume more bytes than the sender wrote.
	mt := MatchTrace(events, opts)
	matchedAccepts := make(map[int]bool)
	for _, c := range mt.Conns {
		matchedAccepts[c.AcceptSeq] = true
		for dir := range c.Sent {
			if c.Recvd[dir] > c.Sent[dir] {
				add(Error, c.AcceptSeq, "connection %s=>%s: %d bytes received but only %d sent (direction %d)",
					c.Client, c.Server, c.Recvd[dir], c.Sent[dir], dir)
			}
		}
	}

	// Accepts that matched no connect suggest lost connect records.
	for i := range events {
		e := &events[i]
		if e.Type == meter.EvAccept && !matchedAccepts[e.Seq] {
			add(Warning, e.Seq, "accept by %s has no matching connect record (connect events unflagged or lost?)", keyOf(e))
		}
	}

	// A cyclic deduced order means the trace is inconsistent with
	// message causality.
	if _, err := HappenedBefore(events, mt); err != nil {
		if errors.Is(err, ErrCycle) {
			add(Error, -1, "the trace implies a cyclic event order: send/receive records are inconsistent")
		} else {
			add(Error, -1, "ordering failed: %v", err)
		}
	}

	// Processes still blocked in a receive at the end of the trace.
	for k, w := range WaitingProfile(events) {
		if w.Unmatched > 0 {
			add(Info, -1, "process %s was still waiting in %d receive call(s) at the end of the trace", k, w.Unmatched)
		}
	}

	// Processes that never terminated in the trace (still running, or
	// the termproc flag was off).
	procs := make(map[ProcKey]bool)
	for i := range events {
		procs[keyOf(&events[i])] = true
	}
	anyTerm := len(terminated) > 0
	for k := range procs {
		if _, done := terminated[k]; anyTerm && !done {
			add(Info, -1, "process %s has no termination record", k)
		}
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Severity > diags[j].Severity })
	return diags
}
