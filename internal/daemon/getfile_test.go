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
	d := &daemonState{fileSums: make(map[string]prefixSum)}

	// A request leaves the checkpoint past what it shipped.
	snap := open()
	if got := d.prefixCRC(path, snap, 1<<20, 1<<20); got != sum(content[:1<<20]) {
		t.Fatalf("prefix CRC %08x, want %08x", got, sum(content[:1<<20]))
	}
	if ck, want := d.fileSums[path], (prefixSum{snap.ID(), 2 << 20, sum(content[:2<<20])}); ck != want {
		t.Fatalf("checkpoint %+v after shipping [1 MiB, 2 MiB), want %+v", ck, want)
	}
	// The next request in sequence takes its prefix from there: poison it
	// and the poison comes back, extended over nothing.
	d.fileSums[path] = prefixSum{snap.ID(), 2 << 20, 0xdeadbeef}
	if got := d.prefixCRC(path, snap, 2<<20, 0); got != 0xdeadbeef {
		t.Fatalf("prefix CRC %08x: the checkpoint at the requested offset was not used", got)
	}
	// ... but not by a request behind it, nor for a new file at the path.
	d.fileSums[path] = prefixSum{snap.ID(), 2 << 20, 0xdeadbeef}
	if got := d.prefixCRC(path, snap, 1<<20, 0); got != sum(content[:1<<20]) {
		t.Fatalf("prefix CRC %08x: a checkpoint past the offset was trusted", got)
	}
	if err := fs.Create(path, 0, fsys.PrivateMode, content); err != nil {
		t.Fatal(err)
	}
	d.fileSums[path] = prefixSum{snap.ID(), 2 << 20, 0xdeadbeef}
	if got := d.prefixCRC(path, open(), 2<<20, 0); got != sum(content[:2<<20]) {
		t.Fatalf("prefix CRC %08x: another file's checkpoint was trusted", got)
	}
	// The table stays bounded.
	for i := 0; i < 3*maxFileSums; i++ {
		d.prefixCRC(path+strconv.Itoa(i), snap, 0, 0)
	}
	if len(d.fileSums) > maxFileSums {
		t.Fatalf("%d checkpoints kept, bound is %d", len(d.fileSums), maxFileSums)
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
			for len(buf) < 4 {
				data, err := p.Recv(conn, 4-len(buf))
				if err != nil {
					return 0
				}
				buf = append(buf, data...)
			}
			if !isFrameMagic(buf) {
				return 1
			}
			fr := frameReader{}
			for {
				f, err := fr.next(func(max int) ([]byte, error) { return p.Recv(conn, max) })
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
// The sender here allocates only the simulated socket buffer its Send
// fills (one payload's worth, on the sending side of the hop). What is
// left is the session's: the receive that takes the payload out of the
// socket, and the reply's Data string decoded from it — two payloads'
// worth, gated at 2.5. Receiving 8 KiB at a time into a buffer grown by
// reallocation, then copying the frame out of it, made that about 8.
func TestSessionCallNoAllocBeyondReply(t *testing.T) {
	const payload = getFileChunk
	r := newRig(t)
	const port = Port + 1
	spawnCannedDaemon(t, r.red, port, &Reply{Type: TGetFileRep, PID: payload, Status: "ok", Data: string(bytes.Repeat([]byte{'x'}, payload))})
	cfg := fastSession()
	cfg.Port = port
	s := DialSession(r.ctl, "red", cfg)
	defer s.Close()
	call := func() {
		t.Helper()
		rep, err := s.Call((&ProcReq{Type: TGetFileReq, UID: testUID, Path: "/x"}).Wire(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Data) != payload {
			t.Fatalf("reply carries %d bytes, want %d", len(rep.Data), payload)
		}
	}
	call() // connect, handshake
	const calls = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	receiving := perCall/payload - 1 // less the sender's socket buffer
	t.Logf("%.2f payloads allocated per call, %.2f of them on the receiving side", perCall/payload, receiving)
	if receiving > 2.5 {
		t.Errorf("receiving a %d-byte reply allocates %.2f times its size, want at most 2.5", payload, receiving)
	}
}
