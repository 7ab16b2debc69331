package fsys

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// modelFile is the naive file the differential test compares against:
// one byte slice, copied on every read.
type modelFile struct {
	owner   int
	mode    Mode
	data    []byte
	program string
}

// lentBytes is something the FS handed out together with what it held
// at the time; the immutability rule says the two never diverge.
type lentBytes struct {
	what string
	got  func() []byte
	want []byte
}

// TestDifferentialAgainstByteSlice drives an FS and a map of plain byte
// slices through the same seeded interleaving of every operation, with
// sizes chosen to land on, just under and well past the extent
// boundary, and requires identical answers throughout — and that
// everything lent along the way still reads as it did when lent.
func TestDifferentialAgainstByteSlice(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { differential(t, seed) })
	}
}

func differential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs, other := New(), New()
	model := map[string]*modelFile{}
	paths := []string{"/a", "/b", "/usr/tmp/log"}
	uids := []int{alice, alice, alice, bob, Superuser}
	modes := []Mode{DefaultMode, PrivateMode, {OwnerRead: true, OwnerWrite: true, WorldRead: true, WorldWrite: true}}
	size := func() int {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1, 2:
			return 1 + rng.Intn(200)
		case 3, 4:
			return 60<<10 + rng.Intn(8<<10)
		case 5:
			return ExtentSize - 2 + rng.Intn(5)
		case 6:
			return ExtentSize/2 + rng.Intn(ExtentSize)
		default:
			return 2*ExtentSize + rng.Intn(ExtentSize)
		}
	}
	pool := make([]byte, 4*ExtentSize) // payloads are windows of it: cheap, and still all different
	rng.Read(pool)
	payload := func() []byte {
		n := size()
		o := rng.Intn(len(pool) - n)
		return pool[o : o+n : o+n]
	}
	var lent []lentBytes
	lend := func(what string, got func() []byte, m *modelFile) {
		if rng.Intn(4) == 0 { // keep a sample, not all: each holds a copy
			lent = append(lent, lentBytes{what, got, append([]byte(nil), m.data...)})
		}
	}
	// wantErr is the model's verdict on an access; sameErr compares it
	// with the FS's by errors.Is.
	wantErr := func(m *modelFile, uid int, write bool) error {
		switch {
		case m == nil:
			return ErrNotExist
		case write && !m.mode.writableBy(uid, m.owner), !write && !m.mode.readableBy(uid, m.owner):
			return ErrPerm
		}
		return nil
	}
	sameErr := func(op string, got, want error) bool {
		t.Helper()
		if (want == nil) != (got == nil) || (want != nil && !errors.Is(got, want)) {
			t.Fatalf("%s: err = %v, model says %v", op, got, want)
		}
		return got == nil
	}

	for step := 0; step < 250; step++ {
		path, uid := paths[rng.Intn(len(paths))], uids[rng.Intn(len(uids))]
		m := model[path]
		op := fmt.Sprintf("step %d %s uid %d", step, path, uid)
		switch rng.Intn(10) {
		case 0: // Create
			mode, data := modes[rng.Intn(len(modes))], payload()
			var want error
			if m != nil {
				want = wantErr(m, uid, true)
			}
			if sameErr(op+" Create", fs.Create(path, uid, mode, data), want) {
				model[path] = &modelFile{owner: uid, mode: mode, data: data}
			}
		case 1, 2, 3: // Append
			data := payload()
			var want error
			if m != nil {
				want = wantErr(m, uid, true)
			}
			if sameErr(op+" Append", fs.Append(path, uid, data), want) {
				if m == nil {
					m = &modelFile{owner: uid, mode: PrivateMode}
					model[path] = m
				}
				m.data = append(m.data, data...)
			}
		case 4: // Remove
			if sameErr(op+" Remove", fs.Remove(path, uid), wantErr(m, uid, true)) {
				delete(model, path)
			}
		case 5: // View
			got, err := fs.View(path, uid)
			if sameErr(op+" View", err, wantErr(m, uid, false)) {
				if !bytes.Equal(got, m.data) || cap(got) != len(got) {
					t.Fatalf("%s View: %d bytes cap %d, model has %d", op, len(got), cap(got), len(m.data))
				}
				lend(op+" View", func() []byte { return got }, m)
			}
		case 6: // Read
			got, err := fs.Read(path, uid)
			if sameErr(op+" Read", err, wantErr(m, uid, false)) && !bytes.Equal(got, m.data) {
				t.Fatalf("%s Read: %d bytes, model has %d", op, len(got), len(m.data))
			}
		case 7: // ranged read, copied and lent
			snap, err := fs.Open(path, uid)
			if !sameErr(op+" Open", err, wantErr(m, uid, false)) {
				break
			}
			off, max := rng.Intn(len(m.data)+ExtentSize/4+1)-10, size()
			var want []byte
			if off >= 0 && off < len(m.data) {
				want = m.data[off:min(off+max, len(m.data))]
			}
			got, pieces := snap.ReadAt(off, max), snap.Extents(off, max)
			if snap.Size() != len(m.data) || !bytes.Equal(got, want) || !bytes.Equal(bytes.Join(pieces, nil), want) {
				t.Fatalf("%s ReadAt(%d, %d): size %d, %d bytes copied, %d lent; model has %d and %d",
					op, off, max, snap.Size(), len(got), len(bytes.Join(pieces, nil)), len(m.data), len(want))
			}
			lend(op+" snapshot", func() []byte { return snap.ReadAt(0, snap.Size()) }, m)
		case 8: // Stat
			st, err := fs.Stat(path)
			var want error
			if m == nil {
				want = ErrNotExist
			}
			if sameErr(op+" Stat", err, want) {
				if st.Path != path || st.Owner != m.owner || st.Mode != m.mode || st.Program != m.program || !bytes.Equal(st.Data, m.data) {
					t.Fatalf("%s Stat: %+v with %d bytes, model %+v with %d", op, st.Mode, len(st.Data), m.mode, len(m.data))
				}
				lend(op+" Stat", func() []byte { return st.Data }, m)
			}
		case 9: // Copy out to a second file system and compare there
			want := wantErr(m, uid, false)
			if m != nil && uid != Superuser && uid != m.owner && !m.mode.WorldRead {
				want = ErrPerm
			}
			if sameErr(op+" Copy", Copy(fs, path, other, "/copy", uid), want) {
				got, err := other.Read("/copy", uid)
				if err != nil || !bytes.Equal(got, m.data) {
					t.Fatalf("%s Copy: read back %d bytes, err %v; model has %d", op, len(got), err, len(m.data))
				}
				if err := other.Remove("/copy", Superuser); err != nil {
					t.Fatal(err)
				}
			}
		}
		for p, m := range model {
			if !fs.Exists(p) {
				t.Fatalf("%s: %s missing", op, p)
			}
			if s := mustOpen(t, fs, p); s.Size() != len(m.data) {
				t.Fatalf("%s: %s is %d bytes, model has %d", op, p, s.Size(), len(m.data))
			}
		}
	}
	if got := fs.List("/"); len(got) != len(model) {
		t.Fatalf("List = %v, model has %d files", got, len(model))
	}
	for _, l := range lent {
		if !bytes.Equal(l.got(), l.want) {
			t.Errorf("%s: bytes changed after they were handed out", l.what)
		}
	}
}

// allocatedBy reports the bytes f allocates, by the runtime's count.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAppendLargeFileNoAllocBeyondExtent gates what appending to a big
// file costs: 64 KiB onto 64 MiB never allocates more than the one
// extent it may have to open, and on average no more than twice what
// it writes — so it cannot be moving the file, which is what growing
// one slice did (up to 64 MiB allocated and copied by one append).
//
// TotalAlloc counts the whole process, so what else allocates inside a
// window lands in it too: the extent list's own growth, and the
// runtime's bookkeeping, which a collection starting mid-window and a
// loaded machine both add to. So no collection runs while the appends
// are measured, and the bound beside the extent is the chunk itself,
// 64 KiB: a few KiB of anything else cannot trip it, and a file moved
// by its append, 64 MiB, fails it sixtyfold.
func TestAppendLargeFileNoAllocBeyondExtent(t *testing.T) {
	fs := New()
	chunk := bytes.Repeat([]byte{0xa5}, 64<<10)
	for i := 0; i < (64<<20)/len(chunk); i++ {
		if err := fs.Append("/log", alice, chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const appends = 64
	bound := ExtentSize + uint64(len(chunk))
	var total, worst uint64
	done := 0
	for ; done < appends && worst <= bound; done++ { // with no collector, one moved file is enough
		n := allocatedBy(func() { _ = fs.Append("/log", alice, chunk) }) // cannot fail: alice's own file
		total, worst = total+n, max(worst, n)
	}
	if worst > bound {
		t.Errorf("one 64 KiB append to a 64 MiB file allocated %d bytes, want at most one extent (%d)", worst, ExtentSize)
	}
	if avg := total / uint64(done); avg > 2*uint64(len(chunk)) {
		t.Errorf("64 KiB appends to a 64 MiB file allocate %d bytes each on average, want at most %d", avg, 2*len(chunk))
	}
	if s := mustOpen(t, fs, "/log"); s.Size() != 64<<20+done*len(chunk) {
		t.Fatalf("file is %d bytes", s.Size())
	}
}

// TestCopyNoAllocSecondCopy: rcp of a data file copies its bytes once,
// into the destination — not once out of the source and once in.
func TestCopyNoAllocSecondCopy(t *testing.T) {
	src, dst := New(), New()
	data := bytes.Repeat([]byte{7}, 512<<10)
	if err := src.Create("/bin/big", alice, DefaultMode, data); err != nil {
		t.Fatal(err)
	}
	n := allocatedBy(func() {
		if err := Copy(src, "/bin/big", dst, "/bin/big", bob); err != nil {
			t.Fatal(err)
		}
	})
	if n > uint64(len(data))*3/2 {
		t.Errorf("copying a %d-byte file allocated %d bytes, want about one copy", len(data), n)
	}
	if got, _ := dst.Read("/bin/big", bob); !bytes.Equal(got, data) {
		t.Fatal("copy differs from the source")
	}
}
