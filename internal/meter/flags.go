// Package meter defines the meter event model of the monitor: the
// event types, the meter flags that select them, the binary meter
// message formats of Appendix A, and the kernel-side message buffer.
//
// The paper's kernel creates one meter message per flagged system call
// made by a metered process (section 3.2). Each message consists of a
// standard header (size, machine, local clock, process CPU time, trace
// type) and a body particular to the event type. Messages are buffered
// in the kernel and sent together to the filter over the meter
// connection; the M_IMMEDIATE flag disables buffering (section 4.1).
package meter

import (
	"fmt"
	"sort"
	"strings"
)

// Type identifies one meter event type (the traceType header field).
// The numbering is anchored by the paper's selection-rule examples:
// Figure 3.3 uses "type=1" for a send event, and Figure 3.4 uses
// "type=8" with a sockName=peerName comparison, which fits the accept
// event.
type Type uint32

// Meter event types.
const (
	EvSend       Type = 1  // process sends a message
	EvRecvCall   Type = 2  // process makes a call to receive a message
	EvRecv       Type = 3  // process receives a message
	EvSocket     Type = 4  // process creates a socket
	EvDup        Type = 5  // process duplicates a socket or file descriptor
	EvDestSocket Type = 6  // process closes a socket
	EvConnect    Type = 7  // process initiates a connection
	EvAccept     Type = 8  // process accepts a connection
	EvFork       Type = 9  // process forks
	EvTermProc   Type = 10 // process terminates
)

// String returns the event name its Layout gives, the name used in
// description files and analysis output.
func (t Type) String() string {
	if l, ok := LayoutOf(t); ok {
		return l.Name
	}
	return fmt.Sprintf("TYPE(%d)", uint32(t))
}

// Flag is a bit in the per-process meter flag mask (the 32-bit word the
// paper adds to the process table entry). One flag exists per event
// type, plus M_IMMEDIATE, which is not an event but a delivery policy.
type Flag uint32

// Meter flags, named after the constants in <meterflags.h> (paper
// section 4.1 and the setmeter(2) man page in Appendix C).
const (
	MSend        Flag = 1 << iota // METER_SEND
	MReceiveCall                  // METER_RECEIVECALL
	MReceive                      // METER_RECEIVE
	MSocket                       // METER_SOCKET
	MDup                          // METER_DUP
	MDestSocket                   // METER_DESTSOCKET
	MConnect                      // METER_CONNECT
	MAccept                       // METER_ACCEPT
	MFork                         // METER_FORK
	MTermProc                     // METER_TERMPROC
	MImmediate                    // M_IMMEDIATE: send meter messages unbuffered
)

// MAll selects every event flag (the paper's M_ALL). It does not
// include MImmediate, which controls delivery rather than selection.
const MAll = MSend | MReceiveCall | MReceive | MSocket | MDup |
	MDestSocket | MConnect | MAccept | MFork | MTermProc

// flagForType maps an event type to the flag that enables it.
var flagForType = map[Type]Flag{
	EvSend:       MSend,
	EvRecvCall:   MReceiveCall,
	EvRecv:       MReceive,
	EvSocket:     MSocket,
	EvDup:        MDup,
	EvDestSocket: MDestSocket,
	EvConnect:    MConnect,
	EvAccept:     MAccept,
	EvFork:       MFork,
	EvTermProc:   MTermProc,
}

// FlagFor returns the flag that enables metering of the given event
// type, or zero for an unknown type.
func FlagFor(t Type) Flag { return flagForType[t] }

// Selects reports whether the flag mask enables the given event type.
func (f Flag) Selects(t Type) bool { return f&flagForType[t] != 0 }

// Immediate reports whether the mask requests unbuffered delivery.
func (f Flag) Immediate() bool { return f&MImmediate != 0 }

// flagNames are the user-visible flag names accepted by the
// controller's setflags command (section 4.3).
var flagNames = map[string]Flag{
	"send":        MSend,
	"receivecall": MReceiveCall,
	"receive":     MReceive,
	"socket":      MSocket,
	"dup":         MDup,
	"destsocket":  MDestSocket,
	"connect":     MConnect,
	"accept":      MAccept,
	"fork":        MFork,
	"termproc":    MTermProc,
	"immediate":   MImmediate,
	"all":         MAll,
}

// ParseFlag parses one setflags token ("send", "all", ...; a leading
// '-' resets instead of sets, per section 4.3). It returns the flag
// bits and whether they should be cleared.
func ParseFlag(tok string) (f Flag, clear bool, err error) {
	name := tok
	if strings.HasPrefix(tok, "-") {
		clear = true
		name = tok[1:]
	}
	f, ok := flagNames[strings.ToLower(name)]
	if !ok {
		return 0, false, fmt.Errorf("meter: unknown flag %q", tok)
	}
	return f, clear, nil
}

// FlagNames returns the canonical, order-stable names of the set event
// flags, as the controller prints them ("new job flags = send receive
// fork accept connect").
func (f Flag) FlagNames() []string {
	// The order matches the flag list of section 4.3.
	order := []struct {
		name string
		bit  Flag
	}{
		{"fork", MFork},
		{"termproc", MTermProc},
		{"send", MSend},
		{"receivecall", MReceiveCall},
		{"receive", MReceive},
		{"socket", MSocket},
		{"dup", MDup},
		{"destsocket", MDestSocket},
		{"accept", MAccept},
		{"connect", MConnect},
		{"immediate", MImmediate},
	}
	var out []string
	for _, e := range order {
		if f&e.bit != 0 {
			out = append(out, e.name)
		}
	}
	return out
}

// String renders the flag set as its space-separated names ("fork
// send receive"), or "-" when empty.
func (f Flag) String() string {
	names := f.FlagNames()
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, " ")
}

// AllFlagNames returns every user-visible flag name, sorted; the
// controller's help command lists them.
func AllFlagNames() []string {
	out := make([]string, 0, len(flagNames))
	for n := range flagNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
