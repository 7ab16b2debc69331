package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
)

// getFile asks red's daemon for path from off over s and checks the
// whole reply against content, the bytes the file holds right now,
// computed the naive way: total size in PID, the bytes from the
// effective offset (the requested one, or 0 if that lies outside the
// file) up to one chunk in Data, and the CRC-32 of everything before
// the effective offset in Aux.
func getFile(t *testing.T, s *Session, path string, off int, content []byte) {
	t.Helper()
	if err := checkGetFile(s, path, off, content); err != nil {
		t.Fatal(err)
	}
}

func checkGetFile(s *Session, path string, off int, content []byte) error {
	rep, err := s.Call((&ProcReq{Type: TGetFileReq, UID: testUID, Path: path, Offset: off}).Wire(), 5*time.Second)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("getfile %s at %d: %s", path, off, rep.Status)
	}
	if off > len(content) {
		off = 0
	}
	want := content[off:min(off+getFileChunk, len(content))]
	if rep.PID != len(content) || rep.Data != string(want) {
		return fmt.Errorf("getfile %s at %d: total %d with %d bytes, want %d with %d", path, off, rep.PID, len(rep.Data), len(content), len(want))
	}
	if aux := strconv.FormatUint(uint64(crc32.ChecksumIEEE(content[:off])), 10); rep.Aux != aux {
		return fmt.Errorf("getfile %s at %d: prefix CRC %s, want %s", path, off, rep.Aux, aux)
	}
	return nil
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestGetFilePrefixCRC: whatever order offsets arrive in and whatever
// happens to the path between requests, a getfile reply's Aux is the
// CRC-32 of the bytes its offset skipped — the checkpoint the daemon
// keeps is an economy, never an input.
func TestGetFilePrefixCRC(t *testing.T) {
	r := newRig(t)
	fs := r.red.FS()
	s := DialSession(r.ctl, "red", fastSession())
	defer s.Close()
	const path = "/usr/tmp/big.log"
	put := func(data []byte) {
		t.Helper()
		if err := fs.Append(path, testUID, data); err != nil {
			t.Fatal(err)
		}
	}
	content := randomBytes(1, 9<<20+12345) // three chunks, nine extents and a bit
	put(content)

	// In sequence, as cmdGetLog asks; then growth; then the end itself.
	for off := 0; off < len(content); off += getFileChunk {
		getFile(t, s, path, off, content)
	}
	more := randomBytes(2, 3<<20)
	put(more)
	grown := append(append([]byte(nil), content...), more...)
	getFile(t, s, path, len(content), grown)
	getFile(t, s, path, len(grown), grown)
	// Backwards, forwards past the checkpoint with a gap, off the end.
	for _, off := range []int{5 << 20, 1, 11 << 20, 6<<20 + 7, 0, len(grown) + 1} {
		getFile(t, s, path, off, grown)
	}

	// Replaced by a shorter file: offsets inside it are honoured against
	// the new bytes, offsets beyond it reset.
	shorter := randomBytes(3, 2<<20)
	if err := fs.Create(path, testUID, fsys.PrivateMode, shorter); err != nil {
		t.Fatal(err)
	}
	getFile(t, s, path, len(grown), shorter)
	getFile(t, s, path, 1<<20, shorter)
	// Replaced at the same length by different bytes, right after a
	// request left a checkpoint at that very offset.
	getFile(t, s, path, len(shorter), shorter)
	same := randomBytes(4, len(shorter))
	if err := fs.Create(path, testUID, fsys.PrivateMode, same); err != nil {
		t.Fatal(err)
	}
	getFile(t, s, path, len(same), same)
	// Removed and appended afresh, longer, sharing no prefix.
	if err := fs.Remove(path, testUID); err != nil {
		t.Fatal(err)
	}
	again := randomBytes(5, 5<<20)
	put(again)
	getFile(t, s, path, len(same), again)
	getFile(t, s, path, len(again), again)

	// Two controllers on one path, each walking its own offsets while
	// the other moves the checkpoint under it.
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := DialSession(r.ctl, "red", fastSession())
			defer cs.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			off := c << 20
			for i := 0; i < 12; i++ {
				if err := checkGetFile(cs, path, off, again); err != nil {
					t.Error(err)
					return
				}
				if off += rng.Intn(1 << 20); off > len(again) {
					off = rng.Intn(1 << 20)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPrefixCRCCheckpointUse looks inside: a checkpoint for the same
// file at or before the requested offset is what the sum continues
// from (a poisoned one shows through), and a checkpoint past the
// offset, or of another file at the path, is not consulted at all.
func TestPrefixCRCCheckpointUse(t *testing.T) {
	const path = "/log"
	fs := fsys.New()
	content := randomBytes(6, 3<<20)
	if err := fs.Append(path, 0, content); err != nil {
		t.Fatal(err)
	}
	open := func() fsys.Snapshot {
		t.Helper()
		snap, err := fs.Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	sum := func(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
	p, _ := machineProcess(t)
	d := &daemonState{p: p}

	// A request leaves the checkpoint past what it shipped.
	snap := open()
	if got := d.prefixCRC(path, snap, 1<<20, 1<<20); got != sum(content[:1<<20]) {
		t.Fatalf("prefix CRC %08x, want %08x", got, sum(content[:1<<20]))
	}
	if ck, want := d.fileSums.byKey[path].v, (prefixSum{snap.ID(), 2 << 20, sum(content[:2<<20])}); ck != want {
		t.Fatalf("checkpoint %+v after shipping [1 MiB, 2 MiB), want %+v", ck, want)
	}
	// The next request in sequence takes its prefix from there: poison it
	// and the poison comes back, extended over nothing.
	d.fileSums.byKey[path].v = prefixSum{snap.ID(), 2 << 20, 0xdeadbeef}
	if got := d.prefixCRC(path, snap, 2<<20, 0); got != 0xdeadbeef {
		t.Fatalf("prefix CRC %08x: the checkpoint at the requested offset was not used", got)
	}
	// ... but not by a request behind it, nor for a new file at the path.
	d.fileSums.byKey[path].v = prefixSum{snap.ID(), 2 << 20, 0xdeadbeef}
	if got := d.prefixCRC(path, snap, 1<<20, 0); got != sum(content[:1<<20]) {
		t.Fatalf("prefix CRC %08x: a checkpoint past the offset was trusted", got)
	}
	if err := fs.Create(path, 0, fsys.PrivateMode, content); err != nil {
		t.Fatal(err)
	}
	d.fileSums.byKey[path].v = prefixSum{snap.ID(), 2 << 20, 0xdeadbeef}
	if got := d.prefixCRC(path, open(), 2<<20, 0); got != sum(content[:2<<20]) {
		t.Fatalf("prefix CRC %08x: another file's checkpoint was trusted", got)
	}
	// The table stays bounded.
	for i := 0; i < 3*tableSize; i++ {
		d.prefixCRC(path+strconv.Itoa(i), snap, 0, 0)
	}
	if len(d.fileSums.byKey) > tableSize {
		t.Fatalf("%d checkpoints kept, bound is %d", len(d.fileSums.byKey), tableSize)
	}
}

// spawnCannedDaemon runs a session peer on m that answers every request
// with the same pre-encoded reply frame, stamped with the request's id:
// a sender that allocates nothing of its own, so that what a call costs
// is the receiving side's doing.
func spawnCannedDaemon(t *testing.T, m *kernel.Machine, port uint16, rep *Reply) {
	t.Helper()
	frame := AppendFrame(nil, FrameRep, 0, rep.Wire().Encode())
	_, err := m.Spawn(kernel.SpawnSpec{UID: 0, Name: "canned", Program: func(p *kernel.Process) int {
		lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
		if err != nil || p.BindPort(lfd, port) != nil || p.Listen(lfd, 8) != nil {
			return 1
		}
		for {
			conn, _, err := p.Accept(lfd)
			if err != nil {
				return 0
			}
			buf := make([]byte, 0, 4096)
			rc := receiver{p: p, fd: conn}
			var fr frameReader
			if fr.open(rc.recv) != nil {
				return 1
			}
			for {
				f, err := fr.next(rc.recv)
				if err != nil {
					break
				}
				switch f.Kind {
				case FrameHello:
					_, _ = p.Send(conn, appendHello(buf[:0]))
				case FramePing:
					_, _ = p.Send(conn, AppendFrame(buf[:0], FramePong, f.ID, nil))
				case FrameReq:
					binary.LittleEndian.PutUint64(frame[8:], f.ID)
					_, _ = p.Send(conn, frame)
				}
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "canned daemon listening", func() bool {
		return m.PortBound(kernel.SockStream, port)
	})
}

// TestSessionCallNoAllocBeyondReply gates the receiving side of a large
// reply — the shape of a getlog chunk or a cluster-wide stats section.
// The sender allocates nothing per call: its Send copies the frame into
// a socket array the receiving side's receives recycle. The session
// receives the frame into an array of the frame free list and lends it
// to the caller, the reply's fields read in place from it. A caller
// that releases each reply gets the same array and the same Reply back
// for the next one, so a call allocates the message and its fields:
// 0.00009 payloads, about 380 bytes (0.0003 under the race detector),
// gated at 0.001; with a Reply per call it read 0.00014, gated at 0.1.
// One that does not leaves the array to the collector, so the next
// frame is received into a new one, an eighth larger than the frame:
// about one payload, gated at 1.25 as when the frame was given back
// and Data decoded from it as a copy. An exact-size payload buffer per
// frame made it two; receiving 8 KiB at a time into a buffer grown by
// reallocation, then copying the frame out of it, about 8.
func TestSessionCallNoAllocBeyondReply(t *testing.T) {
	const payload = getFileChunk
	r := newRig(t)
	const port = Port + 1
	want := string(bytes.Repeat([]byte{'x'}, payload))
	spawnCannedDaemon(t, r.red, port, &Reply{Type: TGetFileRep, PID: payload, Status: "ok", Data: want})
	cfg := fastSession()
	cfg.Port = port
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()
	call := func(release bool) {
		t.Helper()
		rep, err := s.Call((&ProcReq{Type: TGetFileReq, UID: testUID, Path: "/x"}).Wire(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Data != want {
			t.Fatalf("reply carries %d bytes, not the %d sent", len(rep.Data), payload)
		}
		if release {
			rep.Release()
		}
	}
	call(true) // connect, handshake
	for _, c := range []struct {
		release bool
		gate    float64
	}{{true, 0.001}, {false, 1.25}} {
		const calls = 8
		lent := LentFrames()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call(c.release)
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls / payload
		t.Logf("released %v: %.5f payloads allocated per call", c.release, perCall)
		if perCall > c.gate {
			t.Errorf("released %v: a call with a %d-byte reply allocates %.2f times its size, want at most %.2f", c.release, payload, perCall, c.gate)
		}
		held, want := LentFrames()-lent, int64(calls)
		if c.release {
			want = 0
		}
		if held != want {
			t.Errorf("released %v: %d frames still lent after %d calls, want %d", c.release, held, calls, want)
		}
	}
}

// TestReleasedReplyOverwritten: in a test binary freeFrameBuf
// overwrites what it is given back, so that a string still read from a
// released reply reads garbage and the test reading it fails. Release
// gives the reply itself back to replyFree, which marks it: it reads
// no reply, and a second Release panics.
func TestReleasedReplyOverwritten(t *testing.T) {
	if !poisonFreed {
		t.Fatal("freeFrameBuf does not overwrite in a test binary")
	}
	r := newRig(t)
	const port = Port + 3
	spawnCannedDaemon(t, r.red, port, &Reply{Type: TGetFileRep, Status: "ok", Data: string(bytes.Repeat([]byte{'x'}, 2*frameBuf))})
	cfg := fastSession()
	cfg.Port = port
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()
	rep, err := s.Call((&ProcReq{Type: TGetFileReq, UID: testUID, Path: "/x"}).Wire(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.lent == nil {
		t.Fatal("a reply larger than the connection buffer was not lent")
	}
	data := rep.Data
	rep.Release()
	if rep.OK() || rep.Data != releasedReply || rep.lent != nil {
		t.Fatalf("a released reply still reads %q with %d bytes", rep.Status, len(rep.Data))
	}
	if data[0] != 0xa5 || data[len(data)-1] != 0xa5 {
		t.Fatalf("a released frame reads %q...%q, not the overwrite", data[0], data[len(data)-1])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Release of one reply did not panic")
			}
		}()
		rep.Release()
	}()
}

// TestSessionRoundTripNoAllocBeyondReply gates a steady-state small
// call — the shape of a start, a setflags or a kill — against the
// canned daemon, its caller releasing each reply as every caller does.
// The request is written into the frame array its reused in-flight
// record kept from the call before, the reply is read out of the
// connection's buffer with its "ok" the constant into a Reply the last
// Release gave back, and its in-flight record, reply channel and reply
// timer are reused. That is no allocation and no byte a call, gated at
// 0 and 16; a fresh Reply per call made it 1 and 112, a message and
// field list between each request or reply and its frame 5 and 280, a
// fresh in-flight record and channel per call 8 and 400, and a timer
// per receive and per call, a slice per header and per payload, and a
// string per field 21 and 1250.
func TestSessionRoundTripNoAllocBeyondReply(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; reused reply timers not measurable")
	}
	r := newRig(t)
	const port = Port + 2
	spawnCannedDaemon(t, r.red, port, &Reply{Type: TStartRep, PID: 7, Status: "ok"})
	cfg := fastSession()
	cfg.Port = port
	cfg.HeartbeatInterval, cfg.HeartbeatTimeout = time.Minute, time.Minute // no ping inside the runs
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()
	req := (&ProcReq{Type: TStartReq, UID: testUID, PID: 7}).Wire()
	call := func() {
		rep, err := s.Call(req, 5*time.Second)
		if err != nil || !rep.OK() || rep.PID != 7 {
			t.Fatalf("call: %+v, %v", rep, err)
		}
		rep.Release()
	}
	for i := 0; i < 100; i++ {
		call() // connect, handshake, grow the sockets' buffers and the in-flight table
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, call)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%.2f allocations, %.0f bytes per call", allocs, bytes)
	if allocs > 0 || bytes > 16 {
		t.Errorf("a small call allocates %.2f times, %.0f bytes; want none and at most 16", allocs, bytes)
	}
}
