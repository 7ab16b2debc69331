package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/meter.bin, meter.log and the goldens")

// TestMain runs the command itself when the test binary is started
// with TRACEDUMP_ARGS set, so the goldens pin main as a user runs it.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("TRACEDUMP_ARGS"); ok {
		os.Args = append([]string{"tracedump"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenStream is a small two-process ping-pong with a fork, a datagram
// exchange and a socketpair, on three machines: every event type, and
// Internet, UNIX, pair and zero socket names.
func goldenStream() []byte {
	host := func(m uint16) uint32 { return 0x0a000000 | uint32(m) }
	var b []byte
	clock := map[uint16]uint32{}
	emit := func(machine uint16, procTime uint32, body meter.Body) {
		clock[machine] += 7
		m := meter.Msg{Header: meter.Header{Machine: machine, CPUTime: 1000*uint32(machine) + clock[machine], ProcTime: procTime}, Body: body}
		b = m.AppendEncode(b)
	}
	srv, cli := meter.InetName(host(2), 3000), meter.InetName(host(1), 1025)
	emit(1, 10, &meter.SocketCrt{PID: 100, PC: 0x40, Sock: 0x101, Domain: uint32(meter.AFInet), SockType: 1})
	emit(2, 10, &meter.SocketCrt{PID: 200, PC: 0x80, Sock: 0x201, Domain: uint32(meter.AFInet), SockType: 1})
	emit(1, 20, &meter.Connect{PID: 100, PC: 0x44, Sock: 0x101, PeerNameLen: 16, PeerName: srv})
	emit(2, 20, &meter.Accept{PID: 200, PC: 0x84, Sock: 0x201, NewSock: 0x202, SockNameLen: 16, PeerNameLen: 16, SockName: srv, PeerName: cli})
	emit(2, 30, &meter.RecvCall{PID: 200, PC: 0x88, Sock: 0x202})
	emit(1, 30, &meter.Send{PID: 100, PC: 0x48, Sock: 0x101, MsgLength: 64})
	emit(2, 40, &meter.Recv{PID: 200, PC: 0x88, Sock: 0x202, MsgLength: 64})
	emit(1, 40, &meter.RecvCall{PID: 100, PC: 0x4c, Sock: 0x101})
	emit(2, 50, &meter.Send{PID: 200, PC: 0x8c, Sock: 0x202, MsgLength: 32})
	emit(1, 50, &meter.Recv{PID: 100, PC: 0x4c, Sock: 0x101, MsgLength: 32})
	emit(1, 60, &meter.Fork{PID: 100, PC: 0x50, NewPID: 101})
	emit(1, 10, &meter.Dup{PID: 101, PC: 0x54, Sock: 0x101, NewSock: 0x103})
	emit(1, 20, &meter.SocketCrt{PID: 101, PC: 0x58, Sock: 0x104, Domain: uint32(meter.AFUnix), SockType: 2})
	emit(1, 30, &meter.Send{PID: 101, PC: 0x5c, Sock: 0x104, MsgLength: 16, DestNameLen: 16, DestName: meter.UnixName("/tmp/log")})
	emit(1, 70, &meter.Send{PID: 100, PC: 0x60, Sock: 0x105, MsgLength: 8, DestNameLen: 16, DestName: meter.PairName(7)})
	emit(1, 40, &meter.Recv{PID: 101, PC: 0x64, Sock: 0x106, MsgLength: 8, SourceNameLen: 16, SourceName: meter.PairName(8)})
	emit(3, 10, &meter.SocketCrt{PID: 300, PC: 0xc0, Sock: 0x301, Domain: uint32(meter.AFInet), SockType: 2})
	emit(3, 20, &meter.Send{PID: 300, PC: 0xc4, Sock: 0x301, MsgLength: 128, DestNameLen: 16, DestName: meter.InetName(host(2), 4000)})
	emit(2, 60, &meter.Recv{PID: 200, PC: 0x90, Sock: 0x203, MsgLength: 128, SourceNameLen: 16, SourceName: meter.InetName(host(3), 1100)})
	emit(1, 50, &meter.DestSocket{PID: 101, PC: 0x68, Sock: 0x103})
	emit(1, 60, &meter.TermProc{PID: 101, PC: 0x6c, Status: 1})
	emit(2, 70, &meter.DestSocket{PID: 200, PC: 0x94, Sock: 0x202})
	emit(2, 80, &meter.TermProc{PID: 200, PC: 0x98})
	emit(1, 80, &meter.TermProc{PID: 100, PC: 0x6c})
	emit(3, 30, &meter.TermProc{PID: 300, PC: 0xc8})
	return b
}

// readStream returns the checked-in meter stream, rewriting it and the
// text log the standard filter would write for it under -update.
func readStream(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join("testdata", "meter.bin")
	if *update {
		stream := goldenStream()
		events, err := trace.ParseBinary(stream)
		if err != nil {
			t.Fatal(err)
		}
		var log []byte
		for i := range events {
			log = append(events[i].AppendFormat(log), '\n')
		}
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "meter.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// logTime is the timestamp log.Fatal puts in front of its message.
var logTime = regexp.MustCompile(`(?m)^\d{4}/\d\d/\d\d \d\d:\d\d:\d\d `)

// run runs the command on args and renders what it did: its standard
// output, its standard error without log timestamps, and a failing
// exit status.
func run(t *testing.T, env, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), env+"="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	status := ""
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%s: %v", args, err)
		}
		status = exit.String() + "\n"
	}
	return "$ " + args + "\n" + stdout.String() + "-- stderr\n" + logTime.ReplaceAllString(stderr.String(), "") + status
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the command's output:\n%s", path, got)
	}
}

// TestTracedumpGolden pins tracedump's output over the checked-in meter
// stream, its text log, its filters, and the stream with a torn final
// record appended.
func TestTracedumpGolden(t *testing.T) {
	stream := readStream(t)
	torn := filepath.Join(t.TempDir(), "torn.bin")
	if err := os.WriteFile(torn, append(stream, stream[:30]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, args := range []string{
		"-binary testdata/meter.bin",
		"testdata/meter.log",
		"-binary -event send testdata/meter.bin",
		"-binary -machine 2 testdata/meter.bin",
		"-binary " + torn,
	} {
		out.WriteString(run(t, "TRACEDUMP_ARGS", args))
	}
	checkGolden(t, "tracedump.golden", strings.ReplaceAll(out.String(), torn, "torn.bin"))
}
