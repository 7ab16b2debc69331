// Package fsys provides the per-machine simulated file system used by
// the monitor reproduction.
//
// The paper depends on files in several places: filter processes read
// their event-record descriptions and selection-rule templates from
// files and write their trace logs to files under /usr/tmp (section
// 3.4); executables must be present on the machine where a process is
// created, and 4.2BSD's lack of a remote file system forced the
// controller to copy them with rcp (section 3.5.3); standard input can
// be redirected from a file that is first copied to the target machine
// (section 3.5.2); and all file access is checked against the user's
// account privileges (section 3.5.5).
//
// FS models exactly that much of a file system: a flat path→file map
// with an owner uid, simple read/write permission bits, executable
// entries that name a registered program, and a Copy helper standing in
// for rcp. Beside the map it keeps the paths in name order, so that a
// directory listing is a binary search and a copy of one run of them.
//
// # Extents and the immutability rule
//
// A file's contents are a list of append-only extents. While they fit
// one extent (ExtentSize, 1 MiB) the file is a single contiguous slice
// grown like any other — every store segment and archive, every
// executable, template and result file is of this kind. A file that
// outgrows it (a filter's flat log, a getlog destination) continues in
// further extents of exactly ExtentSize each, allocated once and never
// reallocated, so appending n bytes to it moves n bytes however large
// the file has become, and the file system's lock is held only that
// long.
//
// One rule makes everything else safe: no byte below a length once
// observed is ever rewritten. Create installs fresh storage, Append
// writes only past the current length (into spare capacity nobody has
// been shown, or into a new array), Remove drops the entry. A reader
// that learned a file's length under the lock may therefore read the
// bytes below it without the lock, for as long as it likes, beside any
// writer. That is what lets View lend a single-extent file's bytes
// instead of copying them, lets Read, ReadAt and the multi-extent View
// make their one copy outside the lock, and keeps a Snapshot stable
// across later Appends, Creates and Removes of its path. Any new mutator
// must keep the rule.
//
// View lends when the file is one extent and returns a private
// concatenation when it is not; callers that depend on borrowing (the
// store's FsysBackend) depend on their files staying single-extent,
// which internal/store asserts for the shipped configuration.
package fsys

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Errors reported by file operations, mirroring the UNIX errno values
// the paper's system would have produced.
var (
	ErrNotExist = errors.New("fsys: file does not exist (ENOENT)")
	ErrExist    = errors.New("fsys: file exists (EEXIST)")
	ErrPerm     = errors.New("fsys: permission denied (EACCES)")
	ErrNotExec  = errors.New("fsys: not an executable (ENOEXEC)")
	ErrBadPath  = errors.New("fsys: bad path name")
)

// Superuser is the uid that bypasses permission checks, as in UNIX.
const Superuser = 0

// Mode holds the simplified permission bits of a file.
type Mode struct {
	OwnerRead  bool
	OwnerWrite bool
	WorldRead  bool
	WorldWrite bool
}

// DefaultMode is owner read/write, world read — the common case for
// program and data files in the paper's environment.
var DefaultMode = Mode{OwnerRead: true, OwnerWrite: true, WorldRead: true}

// PrivateMode is owner read/write only, used for trace logs.
var PrivateMode = Mode{OwnerRead: true, OwnerWrite: true}

// File is what Stat reports about one entry of a machine's file system.
type File struct {
	Path string
	// Owner is the uid of the file's owner; permission checks compare
	// against it (section 3.5.5).
	Owner int
	Mode  Mode
	// Data holds the file contents for data files.
	Data []byte
	// Program, when non-empty, marks the file executable: it names a
	// program registered with the cluster's program registry. Copying
	// the file (rcp) carries the program name along, which is how an
	// executable becomes runnable on a remote machine.
	Program string
}

// ExtentSize is the most a file holds as one contiguous slice, and the
// exact size of every extent after the first once it has outgrown that.
const ExtentSize = 1 << 20

// file is one entry of the path map: metadata plus contents.
type file struct {
	id      uint64 // never reused within one FS: a path created again is a different file
	owner   int
	mode    Mode
	program string
	contents
}

// contents is a file's bytes. While rest is empty the file is the one
// slice first, len(first) == size, grown by append. Once it has
// outgrown ExtentSize, first and every element of rest are exactly
// ExtentSize long, filled in order up to size; a slice header that is
// in the list is never assigned again, which is what lets a copy of
// this struct taken under the lock be read without it.
type contents struct {
	first []byte
	rest  [][]byte
	size  int
}

// FS is the file system of one simulated machine. The zero value is
// not usable; call New.
//
// A file's bytes are never written in place, so every byte below a
// length once observed is immutable for as long as anyone holds it: the
// package comment has the rule, which any new mutator must keep.
type FS struct {
	mu     sync.Mutex
	files  map[string]*file
	index  []indexed // every path of files, in name order
	nextID uint64
}

// indexed is one entry of the name-ordered index: a path beside its file.
type indexed struct {
	path string
	f    *file
}

// New returns an empty file system.
func New() *FS {
	return &FS{files: make(map[string]*file)}
}

func validPath(path string) error {
	if path == "" || !strings.HasPrefix(path, "/") {
		return fmt.Errorf("%w: %q", ErrBadPath, path)
	}
	return nil
}

func (m Mode) readableBy(uid, owner int) bool {
	if uid == Superuser {
		return true
	}
	if uid == owner {
		return m.OwnerRead
	}
	return m.WorldRead
}

func (m Mode) writableBy(uid, owner int) bool {
	if uid == Superuser {
		return true
	}
	if uid == owner {
		return m.OwnerWrite
	}
	return m.WorldWrite
}

// install puts a new file at path, replacing what was there if uid may
// write it. Called with fs.mu held.
func (fs *FS) install(path string, uid int, f *file) error {
	if old, ok := fs.files[path]; ok && !old.mode.writableBy(uid, old.owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	fs.nextID++
	f.id, f.owner = fs.nextID, uid
	fs.files[path] = f
	if i, found := fs.find(path); found {
		fs.index[i].f = f
	} else {
		fs.index = slices.Insert(fs.index, i, indexed{path, f})
	}
	return nil
}

// find returns where path is, or would be inserted, in the index.
// Called with fs.mu held.
func (fs *FS) find(path string) (int, bool) {
	return slices.BinarySearchFunc(fs.index, path, func(e indexed, p string) int { return strings.Compare(e.path, p) })
}

// run returns the index entries whose paths begin with prefix: one
// contiguous run in name order. Called with fs.mu held.
func (fs *FS) run(prefix string) []indexed {
	i, _ := fs.find(prefix)
	j := i
	for j < len(fs.index) && strings.HasPrefix(fs.index[j].path, prefix) {
		j++
	}
	return fs.index[i:j]
}

// Create creates or replaces a file owned by uid. Replacing an
// existing file requires write permission on it. data is copied.
func (fs *FS) Create(path string, uid int, mode Mode, data []byte) error {
	if err := validPath(path); err != nil {
		return err
	}
	f := &file{mode: mode}
	f.append(data) // before the lock: nobody else can see f yet
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.install(path, uid, f)
}

// CreateExecutable creates an executable file bound to the named
// registered program.
func (fs *FS) CreateExecutable(path string, uid int, program string) error {
	if err := validPath(path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.install(path, uid, &file{mode: DefaultMode, program: program})
}

// append extends the contents by data: O(len(data)) once the file is
// past its first extent, amortised O(len(data)) before.
func (c *contents) append(data []byte) {
	if len(c.rest) == 0 {
		if c.size+len(data) <= ExtentSize {
			// One extent: an ordinary slice. A reallocation leaves the
			// old array, and anyone it was lent to, untouched.
			c.first = append(c.first, data...)
			c.size = len(c.first)
			return
		}
		// Outgrowing the first extent: bring it to exactly ExtentSize,
		// the last time it can move, and carry on in fixed extents.
		full := c.first
		if cap(full) < ExtentSize {
			full = make([]byte, ExtentSize)
			copy(full, c.first)
		}
		c.first = full[:ExtentSize]
		n := copy(c.first[c.size:], data)
		c.size, data = ExtentSize, data[n:]
	}
	for len(data) > 0 {
		i, o := c.size/ExtentSize, c.size%ExtentSize
		if i > len(c.rest) {
			c.rest = append(c.rest, make([]byte, ExtentSize))
		}
		n := copy(c.rest[i-1][o:], data)
		c.size, data = c.size+n, data[n:]
	}
}

// extents returns the pieces of storage that hold bytes [off, off+n),
// which must lie within the contents, in order. The pieces are the
// file's own, not copies; reading them needs no lock (see the package
// comment).
func (c contents) extents(off, n int) [][]byte {
	if len(c.rest) == 0 {
		return [][]byte{c.first[off : off+n : off+n]}
	}
	out := make([][]byte, 0, n/ExtentSize+2)
	for n > 0 {
		ext, o := c.first, off%ExtentSize
		if i := off / ExtentSize; i > 0 {
			ext = c.rest[i-1]
		}
		k := min(ExtentSize-o, n)
		out = append(out, ext[o:o+k:o+k])
		off, n = off+k, n-k
	}
	return out
}

// copyRange returns a private copy of bytes [off, off+n), which must
// lie within the contents.
func (c contents) copyRange(off, n int) []byte {
	return bytes.Join(c.extents(off, n), nil) // one allocation, not zeroed first
}

// Snapshot is a file's contents as of the Open that returned it. No
// later Append, Create or Remove of the path changes what it holds
// (see FS), so any number of reads through it are reads of one version
// of one file, made without the file system's lock.
type Snapshot struct {
	c  contents
	id uint64
}

// Open snapshots the file at path, checking read permission for uid.
// It copies no file bytes.
func (fs *FS) Open(path string, uid int) (Snapshot, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.mode.readableBy(uid, f.owner) {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrPerm, path)
	}
	return Snapshot{c: f.contents, id: f.id}, nil
}

// Size is the file's length when the snapshot was taken.
func (s Snapshot) Size() int { return s.c.size }

// ID identifies the file the snapshot was taken of among all files this
// FS has ever held: a path that is removed or replaced and written
// again yields a different ID, while snapshots of one file taken at
// different lengths share theirs — and, by the immutability rule, share
// every byte below the shorter length.
func (s Snapshot) ID() uint64 { return s.id }

// clip bounds a requested range to the file: the number of bytes from
// off, at most max, that the snapshot holds.
func (s Snapshot) clip(off, max int) int {
	if off < 0 || off >= s.c.size || max <= 0 {
		return 0
	}
	return min(max, s.c.size-off)
}

// ReadAt returns a private copy of at most max bytes starting at off;
// none if off is not inside the file. Its cost is that of the bytes
// returned, wherever in the file they lie.
func (s Snapshot) ReadAt(off, max int) []byte {
	if n := s.clip(off, max); n > 0 {
		return s.c.copyRange(off, n)
	}
	return nil
}

// Extents is ReadAt without the copy: the same bytes, lent as the
// read-only pieces of the file's own storage that hold them, in order.
// Each piece's capacity is clipped to its length.
func (s Snapshot) Extents(off, max int) [][]byte {
	if n := s.clip(off, max); n > 0 {
		return s.c.extents(off, n)
	}
	return nil
}

// Bytes returns the whole contents, read-only: lent, with capacity
// clipped to length, when the file is a single extent, and a private
// concatenation when it is not.
func (s Snapshot) Bytes() []byte {
	if len(s.c.rest) == 0 {
		return s.c.first[:s.c.size:s.c.size]
	}
	return s.c.copyRange(0, s.c.size)
}

// Read returns a copy of the file's contents, checking read permission
// for uid.
func (fs *FS) Read(path string, uid int) ([]byte, error) {
	s, err := fs.Open(path, uid)
	if err != nil {
		return nil, err
	}
	return s.ReadAt(0, s.Size()), nil
}

// View is Read without the copy, when the file is a single extent: it
// lends the file's contents as they are now, checking read permission
// for uid. The slice is read-only — the caller must not write through
// it — and is a point-in-time snapshot: no later Append, Create or
// Remove of the path changes what it holds (see FS), and its capacity
// is clipped to its length so an append on it reallocates instead of
// reaching the file. A file larger than ExtentSize is not contiguous,
// so its View is a private concatenation, at Read's cost.
func (fs *FS) View(path string, uid int) ([]byte, error) {
	s, err := fs.Open(path, uid)
	if err != nil {
		return nil, err
	}
	return s.Bytes(), nil
}

// Append appends data to an existing file, checking write permission.
// If the file does not exist it is created owned by uid with
// PrivateMode, matching how filter log files appear under /usr/tmp.
// The lock is held for a copy of len(data) bytes — never, past the
// first extent, for a copy of the file.
func (fs *FS) Append(path string, uid int, data []byte) error {
	if err := validPath(path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		f = &file{mode: PrivateMode}
		if err := fs.install(path, uid, f); err != nil {
			return err
		}
	} else if !f.mode.writableBy(uid, f.owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	f.append(data)
	return nil
}

// Remove deletes a file, checking write permission.
func (fs *FS) Remove(path string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.mode.writableBy(uid, f.owner) {
		return fmt.Errorf("%w: %s", ErrPerm, path)
	}
	delete(fs.files, path)
	i, _ := fs.find(path)
	fs.index = slices.Delete(fs.index, i, i+1)
	return nil
}

// Exists reports whether a file is present, without permission checks
// (existence was visible to everyone in the paper's environment).
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Executable returns the registered program name bound to an
// executable file, checking read permission for uid.
func (fs *FS) Executable(path string, uid int) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.mode.readableBy(uid, f.owner) {
		return "", fmt.Errorf("%w: %s", ErrPerm, path)
	}
	if f.program == "" {
		return "", fmt.Errorf("%w: %s", ErrNotExec, path)
	}
	return f.program, nil
}

// Stat returns the file's metadata and contents, without a permission
// check. Data is read-only and is what View would return: the file's
// own bytes, lent, for a file of one extent; a private concatenation of
// the extents for a larger one.
func (fs *FS) Stat(path string) (File, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return File{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	st := File{Path: path, Owner: f.owner, Mode: f.mode, Program: f.program}
	s := Snapshot{c: f.contents}
	fs.mu.Unlock()
	st.Data = s.Bytes()
	return st, nil
}

// List returns the sorted paths with the given prefix.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	run := fs.run(prefix)
	out := make([]string, len(run))
	for i, e := range run {
		out[i] = e.path
	}
	return out
}

// Entry is one file of a directory's run, as WalkEntries shows it.
type Entry struct {
	Name string // the path with the listed prefix cut off
	// ID is the file's Snapshot.ID, or 0 when the lister may not read
	// the file: an id vouches for bytes, and only for a reader of them.
	ID   uint64
	Size int
}

// WalkEntries shows fn, in name order, each file whose path begins with
// prefix, until fn returns false, as of one moment: the lock is held
// for a binary search and a pass over the matching run, whatever else
// the file system holds, so fn must not call into it. By the
// immutability rule, two walks that give one name the same non-zero ID
// and the same Size name the same bytes. A file uid may not read has ID
// 0; reading it fails with ErrPerm as ever.
func (fs *FS) WalkEntries(prefix string, uid int, fn func(Entry) bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, e := range fs.run(prefix) {
		en := Entry{Name: e.path[len(prefix):], Size: e.f.size}
		if e.f.mode.readableBy(uid, e.f.owner) {
			en.ID = e.f.id
		}
		if !fn(en) {
			return
		}
	}
}

// Copy copies a file between (possibly different) file systems — the
// stand-in for the rcp utility the controller used when an executable
// or input file was not present on the target machine (section 3.5.3).
// The caller must be able to read the source; the copy is owned by uid
// on the destination. The bytes are copied once, by the destination's
// Create.
func Copy(src *FS, srcPath string, dst *FS, dstPath string, uid int) error {
	f, err := src.Stat(srcPath)
	if err != nil {
		return err
	}
	if !f.Mode.readableBy(uid, f.Owner) {
		return fmt.Errorf("%w: %s", ErrPerm, srcPath)
	}
	if f.Program != "" {
		return dst.CreateExecutable(dstPath, uid, f.Program)
	}
	return dst.Create(dstPath, uid, f.Mode, f.Data)
}
