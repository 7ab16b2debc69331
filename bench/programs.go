package main

import (
	"strconv"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// The benchmark brings its own workload programs: what the monitored
// computation does is part of the benchmark's definition and must not
// move when internal/workloads does.

// dgramSocket opens a datagram socket bound to port (0 picks one).
func dgramSocket(p *kernel.Process, port uint16) (int, error) {
	fd, err := p.Socket(meter.AFInet, kernel.SockDgram)
	if err != nil {
		return 0, err
	}
	return fd, p.BindPort(fd, port)
}

// destName resolves a machine name to the datagram address of port on
// it, as seen from the calling process's machine.
func destName(p *kernel.Process, machine string, port uint16) (meter.Name, error) {
	host, _, err := p.Machine().Cluster().ResolveFrom(p.Machine(), machine)
	if err != nil {
		return meter.Name{}, err
	}
	return meter.InetName(host, port), nil
}

// catcherMain receives datagrams on the port in args[0] until killed.
func catcherMain(p *kernel.Process) int {
	port, err := strconv.ParseUint(arg(p, 0), 10, 16)
	if err != nil {
		return 2
	}
	fd, err := dgramSocket(p, uint16(port))
	if err != nil {
		return 1
	}
	for {
		if _, _, err := p.RecvFrom(fd, 4096); err != nil {
			return 0
		}
	}
}

func arg(p *kernel.Process, i int) string {
	if a := p.Args(); i < len(a) {
		return a[i]
	}
	return ""
}

func argInt(p *kernel.Process, i int) int {
	n, err := strconv.Atoi(arg(p, i))
	if err != nil {
		return -1
	}
	return n
}
