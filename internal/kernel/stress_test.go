package kernel

import (
	"reflect"
	"sync"
	"testing"

	"dpm/internal/meter"
)

// TestAcceptStorm hammers one listener with concurrent connectors from
// several machines while a single server accepts everything — the
// contended path of the connection machinery under the race detector.
func TestAcceptStorm(t *testing.T) {
	c := NewCluster(Config{})
	c.AddNetwork("ether0")
	machines := make([]*Machine, 0, 4)
	for _, n := range []string{"m1", "m2", "m3", "m4"} {
		m, err := c.AddMachine(n, nil, "ether0")
		if err != nil {
			t.Fatal(err)
		}
		m.AddAccount(testUID, "u")
		machines = append(machines, m)
	}
	t.Cleanup(c.Shutdown)

	server := detached(t, machines[0])
	lfd, err := server.Socket(meter.AFInet, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.BindPort(lfd, 4000); err != nil {
		t.Fatal(err)
	}
	const perMachine = 8
	const clients = 3 * perMachine
	if err := server.Listen(lfd, clients); err != nil {
		t.Fatal(err)
	}
	lname, err := server.SocketName(lfd)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for mi := 1; mi <= 3; mi++ {
		for i := 0; i < perMachine; i++ {
			p, err := machines[mi].Spawn(SpawnSpec{UID: testUID, Name: "client", Program: func(p *Process) int {
				fd, err := p.Socket(meter.AFInet, SockStream)
				if err != nil {
					return 1
				}
				// The backlog is sized for everyone; retry transient
				// refusals anyway (accept may lag).
				for {
					if err := p.Connect(fd, lname); err == nil {
						break
					}
				}
				if _, err := p.Send(fd, []byte("hi")); err != nil {
					return 1
				}
				data, err := p.Recv(fd, 10)
				if err != nil || string(data) != "ok" {
					return 1
				}
				return 0
			}})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if status, _ := p.WaitExit(); status != 0 {
					errCh <- err
				}
			}()
		}
	}

	for got := 0; got < clients; got++ {
		afd, _, err := server.Accept(lfd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(afd, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Send(afd, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := server.Close(afd); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for range errCh {
		t.Fatal("a client failed")
	}
}

// TestDatagramStormManySenders drives one receiver from many
// concurrent senders on many machines; every datagram must arrive
// (the fabric is loss-free by default).
func TestDatagramStormManySenders(t *testing.T) {
	c := NewCluster(Config{})
	c.AddNetwork("ether0")
	var machines []*Machine
	for _, n := range []string{"m1", "m2", "m3"} {
		m, err := c.AddMachine(n, nil, "ether0")
		if err != nil {
			t.Fatal(err)
		}
		m.AddAccount(testUID, "u")
		machines = append(machines, m)
	}
	t.Cleanup(c.Shutdown)

	recvr := detached(t, machines[0])
	rfd, err := recvr.Socket(meter.AFInet, SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := recvr.BindPort(rfd, 5000); err != nil {
		t.Fatal(err)
	}
	rname := recvr.sockMustName(t, rfd)

	const senders = 12
	const perSender = 25
	var procs []*Process
	for i := 0; i < senders; i++ {
		p, err := machines[i%3].Spawn(SpawnSpec{UID: testUID, Name: "sender", Program: func(p *Process) int {
			fd, err := p.Socket(meter.AFInet, SockDgram)
			if err != nil {
				return 1
			}
			for j := 0; j < perSender; j++ {
				if _, err := p.SendTo(fd, []byte("d"), rname); err != nil {
					return 1
				}
			}
			return 0
		}})
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	total := 0
	for total < senders*perSender {
		if _, err := recvr.Recv(rfd, 10); err != nil {
			t.Fatal(err)
		}
		total++
	}
	for _, p := range procs {
		if status, _ := p.WaitExit(); status != 0 {
			t.Fatal("sender failed")
		}
	}
}

// TestConcurrentMeteringStress meters several processes on one machine
// into one sink while they all communicate, checking the meter stream
// stays decodable under concurrency.
func TestConcurrentMeteringStress(t *testing.T) {
	_, red, green := newTestCluster(t)
	const workers = 6
	var targets []*Process
	for i := 0; i < workers; i++ {
		p, err := red.Spawn(SpawnSpec{UID: testUID, Name: "w", Suspended: true, Program: func(p *Process) int {
			f1, f2, err := p.SocketPair()
			if err != nil {
				return 1
			}
			for j := 0; j < 20; j++ {
				if _, err := p.Send(f1, []byte("x")); err != nil {
					return 1
				}
				if _, err := p.Recv(f2, 4); err != nil {
					return 1
				}
			}
			return 0
		}})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, p)
	}
	// One tap per process (each has its own meter connection, as the
	// daemon would arrange).
	var taps []*meterTap
	for _, p := range targets {
		taps = append(taps, newMeterTap(t, green, p, meter.MSend|meter.MReceive, testUID))
	}
	for _, p := range targets {
		if err := red.Signal(p.PID(), SIGCONT); err != nil {
			t.Fatal(err)
		}
	}
	for i, tap := range taps {
		msgs := tap.collect(40) // 20 sends + 20 recvs
		for _, m := range msgs {
			if pid := int(reflect.ValueOf(m.Body).Elem().FieldByName("PID").Uint()); pid != targets[i].PID() {
				t.Fatalf("tap %d saw pid %d, want %d (streams crossed)", i, pid, targets[i].PID())
			}
		}
	}
	for _, p := range targets {
		if status, _ := p.WaitExit(); status != 0 {
			t.Fatal("worker failed")
		}
	}
}
