package fsys

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// indexModel is what the listing test holds the index to: each path's
// owner, mode and size, and the id the file system gave it when it was
// installed.
type indexModel struct {
	owner int
	mode  Mode
	size  int
	id    uint64
}

// TestIndexAgainstModel drives an FS through a seeded mix of Create,
// replace, CreateExecutable, Append and Remove over nested directories,
// with a lister running beside it, and after every step holds List and
// WalkEntries to a map model's sorted filter — for prefixes that are
// directories, that are not, and that match nothing — and every listed
// id and size to what Open reports. An Append keeps a file's id and
// anything that installs a file gives it a new one. The fixed seeds keep
// their subtest names from run to run; the clock-seeded case runs under
// one name and logs its seed on failure.
func TestIndexAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 1792199789268362306} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { indexAgainstModel(t, seed) })
	}
	t.Run("seedclock", func(t *testing.T) {
		seed := time.Now().UnixNano()
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("seed %d", seed)
			}
		})
		indexAgainstModel(t, seed)
	})
}

func indexAgainstModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fs := New()
	model := map[string]*indexModel{}
	dirs := []string{"/a", "/a/b", "/a/b/c", "/ab", "/usr/tmp/f.store", "/usr/tmp/f.store2"}
	names := []string{"x", "y", "s0-000001-000001.seg", "a1-000002-000004.seg", "z.log"}
	prefixes := []string{"", "/", "/a", "/a/", "/a/b", "/a/b/", "/a/b/c/", "/ab/", "/usr/tmp/",
		"/usr/tmp/f.store/", "/usr/tmp/f.store", "/usr/tmp/f.store/s", "/a/b/x", "/nothing/", "/zz", "/a/b/c/x/"}
	uids := []int{alice, alice, bob, Superuser}
	modes := []Mode{DefaultMode, PrivateMode, {OwnerRead: true, OwnerWrite: true, WorldRead: true, WorldWrite: true}}

	stop := make(chan struct{})
	var lister sync.WaitGroup
	lister.Add(1)
	go func() { // listings beside every mutator, for the race detector
		defer lister.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := prefixes[i%len(prefixes)]
			_ = fs.List(p)
			_ = entries(fs, p, uids[i%len(uids)])
		}
	}()
	defer func() {
		close(stop)
		lister.Wait()
	}()

	installed := func(path string, m *indexModel) {
		s, err := fs.Open(path, Superuser)
		if err != nil {
			t.Fatalf("seed %d: %s: %v after it was installed", seed, path, err)
		}
		if old := model[path]; old != nil && old.id == s.ID() {
			t.Fatalf("seed %d: %s replaced under its old id %d", seed, path, s.ID())
		}
		m.id = s.ID()
		model[path] = m
	}
	for step := 0; step < 400; step++ {
		path := dirs[rng.Intn(len(dirs))] + "/" + names[rng.Intn(len(names))]
		uid, mode := uids[rng.Intn(len(uids))], modes[rng.Intn(len(modes))]
		data := make([]byte, rng.Intn(300))
		m := model[path]
		op := fmt.Sprintf("seed %d step %d %s uid %d", seed, step, path, uid)
		switch rng.Intn(6) {
		case 0, 1: // Create, a replace when the path exists
			if fs.Create(path, uid, mode, data) == nil {
				installed(path, &indexModel{owner: uid, mode: mode, size: len(data)})
			}
			op += " Create"
		case 2:
			if fs.CreateExecutable(path, uid, "prog") == nil {
				installed(path, &indexModel{owner: uid, mode: DefaultMode})
			}
			op += " CreateExecutable"
		case 3, 4:
			if fs.Append(path, uid, data) == nil {
				if m == nil {
					installed(path, &indexModel{owner: uid, mode: PrivateMode, size: len(data)})
				} else {
					m.size += len(data)
				}
			}
			op += " Append"
		default:
			if fs.Remove(path, uid) == nil {
				delete(model, path)
			}
			op += " Remove"
		}
		checkIndex(t, op, fs, model, prefixes, uids[1:])
	}
}

// checkIndex holds every listing of fs to the model.
func checkIndex(t *testing.T, op string, fs *FS, model map[string]*indexModel, prefixes []string, uids []int) {
	t.Helper()
	for _, prefix := range prefixes {
		var want []string
		for p := range model {
			if strings.HasPrefix(p, prefix) {
				want = append(want, p)
			}
		}
		slices.Sort(want)
		if got := fs.List(prefix); !slices.Equal(got, want) {
			t.Fatalf("%s: List(%q) = %q, model %q", op, prefix, got, want)
		}
		for _, uid := range uids {
			got := entries(fs, prefix, uid)
			if len(got) != len(want) {
				t.Fatalf("%s: WalkEntries(%q, %d) lists %d files, model %d", op, prefix, uid, len(got), len(want))
			}
			for i, e := range got {
				p, m := want[i], model[want[i]]
				s, err := fs.Open(p, Superuser)
				if err != nil {
					t.Fatalf("%s: %s: %v", op, p, err)
				}
				wantID := m.id
				if !m.mode.readableBy(uid, m.owner) {
					wantID = 0
				}
				if e.Name != p[len(prefix):] || e.ID != wantID || e.Size != m.size || s.ID() != m.id || s.Size() != m.size {
					t.Fatalf("%s: WalkEntries(%q, %d)[%d] = %+v; model %s id %d size %d, Open says id %d size %d",
						op, prefix, uid, i, e, p, wantID, m.size, s.ID(), s.Size())
				}
			}
		}
	}
}

// entries collects what WalkEntries(prefix, uid) shows.
func entries(fs *FS, prefix string, uid int) []Entry {
	var out []Entry
	fs.WalkEntries(prefix, uid, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}
