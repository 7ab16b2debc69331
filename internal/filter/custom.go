package filter

import (
	"sort"
	"strconv"

	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// This file demonstrates the paper's custom-filter support: "Different
// filter processes can be used in the measurement system. Given one
// basic constraint, a user can write a custom filter. This one
// constraint is that a filter process must listen to its standard
// input in order to receive meter messages from the kernel meter"
// (section 3.4) — in this reproduction's terms, it must accept meter
// connections on the port it is given and consume the Appendix A
// stream. What it does with the records is its own business.

// CountingMain is a custom filter that reduces the trace to per-event
// per-machine counts instead of storing records — the kind of cheap
// summarizing filter the user would write when only aggregate behavior
// matters. args: name, port. It rewrites its whole log on each batch
// so the user can getlog at any time.
func CountingMain(p *kernel.Process) int {
	args := p.Args()
	if len(args) < 2 {
		return 1
	}
	name := args[0]
	port64, err := strconv.ParseUint(args[1], 10, 16)
	if err != nil {
		return 1
	}
	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		return 1
	}
	if err := p.BindPort(lfd, uint16(port64)); err != nil {
		return 1
	}
	if err := p.Listen(lfd, 32); err != nil {
		return 1
	}

	logPath := LogPath(name)
	type key struct {
		machine uint16
		typ     meter.Type
	}
	counts := make(map[key]int)
	conns := make(map[int][]byte)
	// keys and out are reused across rewrites; the lines are appended
	// with strconv, not fmt, so a rewrite costs no per-line garbage.
	var (
		keys []key
		out  []byte
	)
	rewrite := func() {
		keys = keys[:0]
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].machine != keys[j].machine {
				return keys[i].machine < keys[j].machine
			}
			return keys[i].typ < keys[j].typ
		})
		out = out[:0]
		for _, k := range keys {
			out = append(out, "count machine="...)
			out = strconv.AppendUint(out, uint64(k.machine), 10)
			out = append(out, " event="...)
			out = append(out, k.typ.String()...)
			out = append(out, " n="...)
			out = strconv.AppendInt(out, int64(counts[k]), 10)
			out = append(out, '\n')
		}
		fs := p.Machine().FS()
		if fs.Exists(logPath) {
			_ = fs.Remove(logPath, p.UID())
		}
		_ = p.AppendFile(logPath, out)
	}

	for {
		fds := make([]int, 0, len(conns)+1)
		fds = append(fds, lfd)
		for fd := range conns {
			fds = append(fds, fd)
		}
		ready, err := p.Select(fds)
		if err != nil {
			return 0
		}
		for _, fd := range ready {
			if fd == lfd {
				nfd, _, err := p.Accept(lfd)
				if err != nil {
					return 0
				}
				conns[nfd] = nil
				continue
			}
			data, err := p.Recv(fd, 8192)
			if err != nil {
				_ = p.Close(fd)
				delete(conns, fd)
				continue
			}
			buf := append(conns[fd], data...)
			hs, rest, err := meter.DecodeStream(buf)
			if err != nil {
				_ = p.Close(fd)
				delete(conns, fd)
				continue
			}
			conns[fd] = rest
			for _, h := range hs {
				counts[key{h.Machine, h.TraceType}]++
			}
			if len(hs) > 0 {
				rewrite()
			}
		}
	}
}

// CountingProgramName is the registry name of the counting filter.
const CountingProgramName = "dpm-countfilter"

// InstallCounting registers the counting filter and installs it as
// /bin/countfilter on a machine, so a user can create it with
// "filter fc <machine> countfilter".
func InstallCounting(c *kernel.Cluster, m *kernel.Machine, uid int) error {
	c.RegisterProgram(CountingProgramName, CountingMain)
	return m.FS().CreateExecutable("/bin/countfilter", uid, CountingProgramName)
}
