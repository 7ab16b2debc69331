package trace_test

import (
	"slices"
	"testing"

	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/trace"
)

// TestCanonicalLinesAreTheFilters: the corpus the view tests parse is,
// line for line, what the filter writes for one message of every event
// type — meter message → Program.ExtractInto → Record.AppendFormat,
// whole and with fields 0 and 2 discarded.
func TestCanonicalLinesAreTheFilters(t *testing.T) {
	desc, err := filter.ParseDescriptions([]byte(filter.StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	in, un, pair := meter.InetName(228320140, 3000), meter.UnixName("/tmp/srv"), meter.PairName(3)
	bodies := []meter.Body{
		&meter.Send{PID: 2120, PC: 0x40a0, Sock: 4, MsgLength: 512, DestNameLen: 16, DestName: in},
		&meter.Send{PID: 1, Sock: 4, MsgLength: 0},
		&meter.RecvCall{PID: 2120, PC: 0x40b0, Sock: 4},
		&meter.Recv{PID: 2122, PC: 0x40c0, Sock: 5, MsgLength: 512, SourceNameLen: 16, SourceName: pair},
		&meter.SocketCrt{PID: 2120, PC: 0x40d0, Sock: 0x101, Domain: uint32(meter.AFInet), SockType: 1},
		&meter.Dup{PID: 2120, PC: 0x40e0, Sock: 0x101, NewSock: 0x102},
		&meter.DestSocket{PID: 2120, PC: 0x40f0, Sock: 0x101},
		&meter.Connect{PID: 2120, PC: 0x4100, Sock: 0x101, PeerNameLen: 16, PeerName: un},
		&meter.Accept{PID: 2122, PC: 0x4110, Sock: 0x201, NewSock: 0x202, SockNameLen: 16, PeerNameLen: 16, SockName: in, PeerName: in},
		&meter.Fork{PID: 2120, PC: 0x4120, NewPID: 2121},
		&meter.TermProc{PID: 2121, PC: 0x4130, Status: ^uint32(0)},
	}
	var lines []string
	prog := filter.CompileProgram(desc, nil)
	for _, b := range bodies {
		m := meter.Msg{Header: meter.Header{Machine: 5, CPUTime: 9500, ProcTime: 120}, Body: b}
		rec := new(filter.Record)
		if _, err := prog.ExtractInto(rec, m.Encode()); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(rec.AppendFormat(nil, 0)), string(rec.AppendFormat(nil, 0b101)))
	}
	if !slices.Equal(lines, trace.CanonicalLines) {
		t.Errorf("the filter writes\n%q\nthe corpus holds\n%q", lines, trace.CanonicalLines)
	}
}
