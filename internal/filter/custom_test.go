package filter

import (
	"strings"
	"testing"
	"time"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

func TestCountingFilterEndToEnd(t *testing.T) {
	c := kernel.NewCluster(kernel.Config{})
	c.AddNetwork("ether0")
	red, err := c.AddMachine("red", nil, "ether0")
	if err != nil {
		t.Fatal(err)
	}
	red.AddAccount(100, "user")
	t.Cleanup(c.Shutdown)
	if err := InstallCounting(c, red, 0); err != nil {
		t.Fatal(err)
	}

	fp, err := red.Spawn(kernel.SpawnSpec{
		UID: 100, Name: "countfilter", Path: "/bin/countfilter",
		Args: []string{"fc", "9300"},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !red.PortBound(kernel.SockStream, 9300) {
		if exited, st, _ := fp.Exited(); exited {
			t.Fatalf("counting filter exited %d", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("counting filter never bound")
		}
		time.Sleep(time.Millisecond)
	}

	// Meter a process into the counting filter.
	target, err := red.SpawnDetached(100, "target")
	if err != nil {
		t.Fatal(err)
	}
	root, err := red.SpawnDetached(0, "root")
	if err != nil {
		t.Fatal(err)
	}
	msfd, _ := root.Socket(meter.AFInet, kernel.SockStream)
	if err := root.Connect(msfd, meter.InetName(red.PrimaryHostID(), 9300)); err != nil {
		t.Fatal(err)
	}
	if err := root.Setmeter(target.PID(), int(meter.MAll|meter.MImmediate), msfd); err != nil {
		t.Fatal(err)
	}

	f1, f2, err := target.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := target.Send(f1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := target.Recv(f2, 10); err != nil {
			t.Fatal(err)
		}
	}

	deadline = time.Now().Add(2 * time.Second)
	for {
		data, err := red.FS().Read(LogPath("fc"), 0)
		// The third SEND's count line can land a moment before the third
		// RECEIVE's: wait for both, don't judge on the first.
		if err == nil && strings.Contains(string(data), "event=SEND n=3") &&
			strings.Contains(string(data), "event=RECEIVE n=3") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counting filter log incomplete: %v %q", err, data)
		}
		time.Sleep(time.Millisecond)
	}
}
