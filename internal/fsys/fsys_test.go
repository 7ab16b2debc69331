package fsys

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

const (
	alice = 101
	bob   = 102
)

func TestCreateAndRead(t *testing.T) {
	fs := New()
	if err := fs.Create("/a", alice, DefaultMode, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("/a", alice)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("Read = %q, want hello", data)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Read("/missing", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestBadPath(t *testing.T) {
	fs := New()
	for _, p := range []string{"", "relative", "no/slash"} {
		if err := fs.Create(p, alice, DefaultMode, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q) err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestWorldReadable(t *testing.T) {
	fs := New()
	if err := fs.Create("/pub", alice, DefaultMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/pub", bob); err != nil {
		t.Fatalf("world-readable file not readable by other user: %v", err)
	}
}

func TestPrivateNotReadableByOthers(t *testing.T) {
	fs := New()
	if err := fs.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/priv", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestSuperuserBypassesPermissions(t *testing.T) {
	fs := New()
	if err := fs.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/priv", Superuser); err != nil {
		t.Fatalf("superuser read failed: %v", err)
	}
	if err := fs.Remove("/priv", Superuser); err != nil {
		t.Fatalf("superuser remove failed: %v", err)
	}
}

func TestOverwriteRequiresWritePermission(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f", bob, DefaultMode, []byte("y")); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestAppendCreatesWithPrivateMode(t *testing.T) {
	fs := New()
	if err := fs.Append("/usr/tmp/log1", alice, []byte("rec1\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/usr/tmp/log1", alice, []byte("rec2\n")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("/usr/tmp/log1", alice)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "rec1\nrec2\n" {
		t.Fatalf("log contents = %q", data)
	}
	if _, err := fs.Read("/usr/tmp/log1", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("trace log readable by other user: %v", err)
	}
}

func TestAppendDeniedWithoutWrite(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, PrivateMode, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/f", bob, []byte("x")); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestExecutable(t *testing.T) {
	fs := New()
	if err := fs.CreateExecutable("/bin/worker", alice, "worker-v1"); err != nil {
		t.Fatal(err)
	}
	prog, err := fs.Executable("/bin/worker", bob)
	if err != nil {
		t.Fatal(err)
	}
	if prog != "worker-v1" {
		t.Fatalf("Executable = %q, want worker-v1", prog)
	}
}

func TestExecutableOnDataFile(t *testing.T) {
	fs := New()
	if err := fs.Create("/data", alice, DefaultMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Executable("/data", alice); !errors.Is(err, ErrNotExec) {
		t.Fatalf("err = %v, want ErrNotExec", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, DefaultMode, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f", alice); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Fatal("file still exists after Remove")
	}
	if err := fs.Remove("/f", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestList(t *testing.T) {
	fs := New()
	for _, p := range []string{"/usr/tmp/b", "/usr/tmp/a", "/etc/x"} {
		if err := fs.Create(p, alice, DefaultMode, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/usr/tmp/")
	if len(got) != 2 || got[0] != "/usr/tmp/a" || got[1] != "/usr/tmp/b" {
		t.Fatalf("List = %v", got)
	}
}

func TestCopyDataFile(t *testing.T) {
	src, dst := New(), New()
	if err := src.Create("/f", alice, DefaultMode, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, "/f", dst, "/f", bob); err != nil {
		t.Fatal(err)
	}
	data, err := dst.Read("/f", bob)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("copied data = %q", data)
	}
}

func TestCopyExecutableCarriesProgram(t *testing.T) {
	// rcp of an executable must leave it runnable on the remote
	// machine (paper section 3.5.3).
	src, dst := New(), New()
	if err := src.CreateExecutable("/bin/p", alice, "prog"); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, "/bin/p", dst, "/bin/p", alice); err != nil {
		t.Fatal(err)
	}
	prog, err := dst.Executable("/bin/p", alice)
	if err != nil {
		t.Fatal(err)
	}
	if prog != "prog" {
		t.Fatalf("program = %q, want prog", prog)
	}
}

func TestCopyDeniedWithoutReadAccess(t *testing.T) {
	src, dst := New(), New()
	if err := src.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := Copy(src, "/priv", dst, "/priv", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}

func TestCopyMissingSource(t *testing.T) {
	src, dst := New(), New()
	if err := Copy(src, "/nope", dst, "/nope", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	fs := New()
	if err := fs.Create("/f", alice, DefaultMode, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.Read("/f", alice)
	data[0] = 'X'
	again, _ := fs.Read("/f", alice)
	if string(again) != "abc" {
		t.Fatal("Read exposed internal buffer")
	}
}

func TestCreateReadRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		fs := New()
		if err := fs.Create("/f", alice, DefaultMode, data); err != nil {
			return false
		}
		got, err := fs.Read("/f", alice)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendOrderPreserved(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := New()
		var want []byte
		for _, c := range chunks {
			if err := fs.Append("/log", alice, c); err != nil {
				return false
			}
			want = append(want, c...)
		}
		if len(chunks) == 0 {
			return true
		}
		got, err := fs.Read("/log", alice)
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestViewBorrowed pins the lending contract View depends on: a view
// taken before concurrent Appends, a Create over the same path and a
// Remove reads byte-identical throughout and afterwards (run under
// -race: no writer may touch a byte a view covers), and an append on
// the view reallocates instead of reaching the file. The second case
// starts just below ExtentSize, so the appends beside the view are the
// ones that fill the first extent to its end and open the next.
func TestViewBorrowed(t *testing.T) {
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 8)
	for _, tc := range []struct {
		name   string
		chunks int
	}{
		{"small", 5},
		{"opens-an-extent", ExtentSize/len(chunk) - 10},
	} {
		t.Run(tc.name, func(t *testing.T) { testViewBorrowed(t, chunk, tc.chunks) })
	}
}

func testViewBorrowed(t *testing.T, chunk []byte, chunks int) {
	fs := New()
	// Grown by Append, so the file's slice has spare capacity past its
	// length — the case where an in-place extension is possible at all.
	for i := 0; i < chunks; i++ {
		if err := fs.Append("/log", alice, chunk); err != nil {
			t.Fatal(err)
		}
	}
	view, err := fs.View("/log", alice)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat(chunk, chunks)
	if !bytes.Equal(view, want) || cap(view) != len(view) {
		t.Fatalf("view len %d cap %d, want the %d bytes written and no spare capacity", len(view), cap(view), len(want))
	}
	snap, err := fs.Open("/log", alice)
	if err != nil {
		t.Fatal(err)
	}
	lent := snap.Extents(0, snap.Size())

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			if !bytes.Equal(view, want) || !bytes.Equal(bytes.Join(lent, nil), want) {
				t.Error("lent bytes changed under a concurrent writer")
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	const appended = "appended beside a view"
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				if err := fs.Append("/log", alice, []byte(appended)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	grown := append(append([]byte(nil), want...), strings.Repeat(appended, 4*200)...)
	if got, _ := fs.Read("/log", alice); !bytes.Equal(got, grown) {
		t.Fatalf("file is %d bytes after the appends, want the %d written in order", len(got), len(grown))
	}
	if pieces := len(mustOpen(t, fs, "/log").Extents(0, len(grown))); (pieces > 1) != (len(grown) > ExtentSize) {
		t.Fatalf("a %d-byte file is held in %d extents", len(grown), pieces)
	}
	if err := fs.Create("/log", alice, PrivateMode, []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/log", alice, []byte(" and extended")); err != nil {
		t.Fatal(err)
	}
	if grown := append(view, "past the end"...); &grown[0] == &view[0] {
		t.Fatal("append on a view extended the file's own array")
	}
	if got, _ := fs.Read("/log", alice); string(got) != "replaced and extended" {
		t.Fatalf("file = %q after an append on a stale view", got)
	}
	if err := fs.Remove("/log", alice); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	if !bytes.Equal(view, want) || !bytes.Equal(snap.ReadAt(0, snap.Size()), want) {
		t.Fatal("view or snapshot changed after Create and Remove of its path")
	}
	if _, err := fs.View("/log", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("View of a removed file: err = %v, want ErrNotExist", err)
	}
	if err := fs.Create("/priv", alice, PrivateMode, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.View("/priv", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("View of another user's private file: err = %v, want ErrPerm", err)
	}
}

func mustOpen(t *testing.T, fs *FS, path string) Snapshot {
	t.Helper()
	s, err := fs.Open(path, Superuser)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
