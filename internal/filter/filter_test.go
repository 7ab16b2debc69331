package filter

import (
	"strings"
	"testing"
	"time"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// processLines runs the engine over buf into a fresh batch and returns
// the kept records' lines and the unconsumed tail.
func processLines(eng *Engine, buf []byte) (lines []string, rest []byte, err error) {
	var b Batch
	rest, err = eng.ProcessBatch(buf, &b)
	for i := 0; i < b.Len(); i++ {
		lines = append(lines, string(b.Line(i)))
	}
	return lines, rest, err
}

func TestEngineFramingAcrossSplits(t *testing.T) {
	eng, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	const n = 5
	for i := 0; i < n; i++ {
		m := meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.Fork{PID: uint32(i)}}
		stream = m.AppendEncode(stream)
	}
	// Feed the stream one byte at a time; all records must emerge.
	var lines []string
	var buf []byte
	for _, b := range stream {
		buf = append(buf, b)
		got, rest, err := processLines(eng, buf)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, got...)
		buf = rest
	}
	if len(lines) != n {
		t.Fatalf("recovered %d records, want %d", len(lines), n)
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
	if eng.Received != n || eng.Kept != n {
		t.Fatalf("stats = %+v", eng)
	}
}

func TestEngineCorruptStream(t *testing.T) {
	eng, err := NewEngine([]byte(StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 64) // size field 0 < HeaderSize
	if _, _, err := processLines(eng, junk); err == nil {
		t.Fatal("corrupt stream accepted")
	}
}

func TestEngineSelectionCounts(t *testing.T) {
	eng, err := NewEngine([]byte(StandardDescriptions), []byte("machine=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, m := range []uint16{1, 2, 1, 3} {
		msg := meter.Msg{Header: meter.Header{Machine: m}, Body: &meter.Fork{}}
		stream = msg.AppendEncode(stream)
	}
	lines, rest, err := processLines(eng, stream)
	if err != nil || len(rest) != 0 {
		t.Fatalf("err=%v rest=%d", err, len(rest))
	}
	if len(lines) != 2 || eng.Kept != 2 || eng.Discarded != 2 || eng.Received != 4 {
		t.Fatalf("lines=%d stats=%+v", len(lines), eng)
	}
}

// startFilter spawns the standard filter program on m listening on
// port, and waits for it to come up.
func startFilter(t *testing.T, c *kernel.Cluster, m *kernel.Machine, name string, port uint16, templates string) *kernel.Process {
	t.Helper()
	if err := Install(c, m, 0); err != nil {
		t.Fatal(err)
	}
	if templates != "" {
		if err := m.FS().Create(DefaultTemplatesPath, 0, fsys.DefaultMode, []byte(templates)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := m.Spawn(kernel.SpawnSpec{
		UID: 0, Name: "filter", Path: "/bin/filter",
		Args: []string{name, "9000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !m.PortBound(kernel.SockStream, port) {
		if time.Now().After(deadline) {
			t.Fatal("filter never bound its port")
		}
		time.Sleep(time.Millisecond)
	}
	return p
}

func TestStandardFilterEndToEnd(t *testing.T) {
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	blue, err := c.AddMachine("blue", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	red.AddAccount(100, "user")
	blue.AddAccount(100, "user")
	t.Cleanup(c.Shutdown)

	startFilter(t, c, blue, "f1", 9000, "")

	// A metered process on red, its meter connection wired to the
	// filter on blue exactly as the meterdaemon would do it.
	target, err := red.SpawnDetached(100, "target")
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := red.SpawnDetached(0, "daemon")
	if err != nil {
		t.Fatal(err)
	}
	msfd, err := daemon.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	host, _, err := c.ResolveFrom(red, "blue")
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Connect(msfd, meter.InetName(host, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Setmeter(target.PID(), int(meter.MAll|meter.MImmediate), msfd); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Close(msfd); err != nil {
		t.Fatal(err)
	}

	// Generate events.
	f1, f2, err := target.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Send(f1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := target.Recv(f2, 100); err != nil {
		t.Fatal(err)
	}

	// The filter logs asynchronously; poll the log file.
	logPath := LogPath("f1")
	deadline := time.Now().Add(2 * time.Second)
	var log string
	for {
		if data, err := blue.FS().Read(logPath, 0); err == nil {
			log = string(data)
			if strings.Count(log, "\n") >= 7 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("filter log incomplete after deadline:\n%s", log)
		}
		time.Sleep(time.Millisecond)
	}
	lines := strings.Split(strings.TrimSpace(log), "\n")
	wantPrefixes := []string{"SOCKET", "SOCKET", "CONNECT", "ACCEPT", "SEND", "RECEIVECALL", "RECEIVE"}
	if len(lines) != len(wantPrefixes) {
		t.Fatalf("log has %d lines:\n%s", len(lines), log)
	}
	for i, w := range wantPrefixes {
		if !strings.HasPrefix(lines[i], w+" ") {
			t.Fatalf("line %d = %q, want %s event", i, lines[i], w)
		}
	}
	if !strings.Contains(lines[4], "msgLength=5") {
		t.Fatalf("send record lacks length: %q", lines[4])
	}
}

func TestStandardFilterAppliesTemplates(t *testing.T) {
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	red.AddAccount(100, "user")
	t.Cleanup(c.Shutdown)

	// Only send events survive the template.
	startFilter(t, c, red, "f2", 9000, "type=1\n")

	target, err := red.SpawnDetached(100, "target")
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := red.SpawnDetached(0, "daemon")
	if err != nil {
		t.Fatal(err)
	}
	msfd, _ := daemon.Socket(meter.AFInet, kernel.SockStream)
	if err := daemon.Connect(msfd, meter.InetName(red.PrimaryHostID(), 9000)); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Setmeter(target.PID(), int(meter.MAll|meter.MImmediate), msfd); err != nil {
		t.Fatal(err)
	}
	f1, f2, err := target.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Send(f1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := target.Recv(f2, 10); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	var log string
	for {
		if data, err := red.FS().Read(LogPath("f2"), 0); err == nil && len(data) > 0 {
			log = string(data)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no log output")
		}
		time.Sleep(time.Millisecond)
	}
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if !strings.HasPrefix(line, "SEND ") {
			t.Fatalf("non-send record in filtered log: %q", line)
		}
	}
}
