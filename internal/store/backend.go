package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"dpm/internal/fsys"
)

// Backend is the byte-level file interface a store runs over. Names
// are flat segment file names relative to the backend's root; Append
// must create a missing file. Three implementations cover the store's
// lives: FsysBackend inside the simulated cluster (filters and
// daemons), DirBackend on the host file system (offline querying with
// dpquery), and MemBackend for tests and benchmarks.
//
// A backend never writes a file's bytes in place: Create replaces the
// contents wholesale, Append only extends them, Remove drops them. That
// is what allows Read to lend instead of copy. In the other direction
// nothing is lent: Create and Append must not retain data past the call
// — the store hands them its reused framing buffers and its pooled
// encoders' output, and overwrites both as soon as they return.
type Backend interface {
	Create(name string, data []byte) error
	Append(name string, data []byte) error
	// Read returns the file's contents as of the call. The slice is
	// read-only and may be borrowed from the backend's own storage: the
	// caller must not write through it, and no later Create, Append or
	// Remove of the name changes what it holds. Its capacity is clipped
	// to its length, so appending to it cannot reach the file.
	Read(name string) ([]byte, error)
	Remove(name string) error
	// List returns the files present, in name order, each with an
	// identity: two listings that give one name the same non-zero ID and
	// the same Size name the same bytes, which a reader then need not
	// read again. ID 0 vouches for nothing, and such a file is read.
	List() ([]Entry, error)
}

// Entry is one file of a backend's listing: its name, the number the
// backend gave the file when it was created — never another file's —
// and its size.
type Entry = fsys.Entry

// FsysBackend stores segments under a directory prefix of a simulated
// machine's file system, owned by uid — the store-side analogue of the
// filter's /usr/tmp log file.
type FsysBackend struct {
	fs     *fsys.FS
	uid    int
	prefix string // the directory and a slash, e.g. /usr/tmp/f1.store/
}

// NewFsysBackend returns a backend rooted at dir on fs, acting as uid.
func NewFsysBackend(fs *fsys.FS, uid int, dir string) *FsysBackend {
	return &FsysBackend{fs: fs, uid: uid, prefix: strings.TrimSuffix(dir, "/") + "/"}
}

func (b *FsysBackend) path(name string) string { return b.prefix + name }

// Create implements Backend.
func (b *FsysBackend) Create(name string, data []byte) error {
	return b.fs.Create(b.path(name), b.uid, fsys.PrivateMode, data)
}

// Append implements Backend.
func (b *FsysBackend) Append(name string, data []byte) error {
	return b.fs.Append(b.path(name), b.uid, data)
}

// Read implements Backend, borrowing the file's bytes (fsys.FS.View).
func (b *FsysBackend) Read(name string) ([]byte, error) {
	return b.fs.View(b.path(name), b.uid)
}

// readEntry reads a file be listed: on the simulated file system by
// the whole path its listing carries, building none.
func readEntry(be Backend, e Entry) ([]byte, error) {
	if b, ok := be.(*FsysBackend); ok && e.Path != "" {
		return b.fs.View(e.Path, b.uid)
	}
	return be.Read(e.Name)
}

// Remove implements Backend.
func (b *FsysBackend) Remove(name string) error {
	return b.fs.Remove(b.path(name), b.uid)
}

// List implements Backend: the fsys listing of the directory, whose
// file ids the backend's uid may read.
func (b *FsysBackend) List() ([]Entry, error) {
	var out []Entry
	b.fs.WalkEntries(b.prefix, b.uid, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out, nil
}

// eachEntry shows fn each file be lists, in name order, until fn
// returns false: on the simulated file system from its index in place
// (fsys.FS.WalkEntries), elsewhere from a listing.
func eachEntry(be Backend, fn func(Entry) bool) error {
	if b, ok := be.(*FsysBackend); ok {
		b.fs.WalkEntries(b.prefix, b.uid, fn)
		return nil
	}
	listed, err := be.List()
	if err != nil {
		return err
	}
	for _, e := range listed {
		if !fn(e) {
			break
		}
	}
	return nil
}

// DirBackend stores segments as files in a host directory — the form a
// store takes once it has been copied out of the simulation for
// offline analysis with dpquery.
type DirBackend struct {
	root string
}

// NewDirBackend returns a backend over the given host directory.
func NewDirBackend(root string) *DirBackend { return &DirBackend{root: root} }

func (b *DirBackend) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("store: bad segment name %q", name)
	}
	return filepath.Join(b.root, name), nil
}

// Create implements Backend.
func (b *DirBackend) Create(name string, data []byte) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// Append implements Backend.
func (b *DirBackend) Append(name string, data []byte) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Read implements Backend.
func (b *DirBackend) Read(name string) ([]byte, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Remove implements Backend.
func (b *DirBackend) Remove(name string) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// List implements Backend. A host file carries no id this backend
// vouches for, so every entry has ID 0 and every segment is read again.
func (b *DirBackend) List() ([]Entry, error) {
	dirents, err := os.ReadDir(b.root) // sorted by name
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range dirents {
		if !e.IsDir() {
			out = append(out, Entry{Name: e.Name()})
		}
	}
	return out, nil
}

// MemBackend is an in-memory backend for tests and benchmarks. It
// numbers files as fsys does: each Create, and each Append that creates,
// gives the file the next id.
type MemBackend struct {
	mu     sync.Mutex
	files  map[string]memFile
	nextID uint64
}

type memFile struct {
	data []byte
	id   uint64
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{files: make(map[string]memFile)} }

// Create implements Backend.
func (b *MemBackend) Create(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.files[name] = memFile{append([]byte(nil), data...), b.nextID}
	return nil
}

// Append implements Backend.
func (b *MemBackend) Append(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[name]
	if !ok {
		b.nextID++
		f.id = b.nextID
	}
	f.data = append(f.data, data...)
	b.files[name] = f
	return nil
}

// Read implements Backend, borrowing the file's bytes: Create stores a
// fresh slice and Append only extends one, so what a reader was lent
// stays as it was.
func (b *MemBackend) Read(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("store: no segment %q", name)
	}
	return f.data[:len(f.data):len(f.data)], nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.files[name]; !ok {
		return fmt.Errorf("store: no segment %q", name)
	}
	delete(b.files, name)
	return nil
}

// List implements Backend.
func (b *MemBackend) List() ([]Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Entry, 0, len(b.files))
	for name, f := range b.files {
		out = append(out, Entry{Name: name, ID: f.id, Size: len(f.data)})
	}
	slices.SortFunc(out, func(x, y Entry) int { return strings.Compare(x.Name, y.Name) })
	return out, nil
}
