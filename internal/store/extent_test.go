package store_test

import (
	"strings"
	"testing"

	"dpm/internal/filter"
	"dpm/internal/fsys"
	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// TestFilterStoreFilesSingleExtent: every file a store writes under the
// configuration the filter ships (filter.StoreConfig) — active, sealed,
// compacted and archived — stays inside one fsys extent. FsysBackend.Read
// borrows only single-extent files (fsys.FS.View concatenates larger
// ones), so this is what keeps "opening a store copies no segment"
// (TestOpenReaderNoAllocBodies) true of the filter's own stores.
func TestFilterStoreFilesSingleExtent(t *testing.T) {
	const dir = "/usr/tmp/f.store"
	fs := fsys.New()
	st, err := store.Open(store.NewFsysBackend(fs, fsys.Superuser, dir), filter.StoreConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	largest, archives := 0, 0
	check := func() {
		t.Helper()
		archives = 0
		for _, p := range fs.List(dir + "/") {
			snap, err := fs.Open(p, fsys.Superuser)
			if err != nil {
				continue // removed by a rewrite between List and Open
			}
			if n := len(snap.Extents(0, snap.Size())); n > 1 {
				t.Fatalf("%s: %d bytes in %d extents; FsysBackend.Read would copy it", p, snap.Size(), n)
			}
			largest = max(largest, snap.Size())
			if strings.HasPrefix(strings.TrimPrefix(p, dir+"/"), "a") {
				archives++
			}
		}
	}
	for i := 0; i < 120_000; i++ {
		e := trace.Event{
			Type: meter.EvSend, Event: meter.EvSend.String(), Machine: 1 + i%4, CPUTime: int64(i),
			Fields: map[string]uint64{"pid": uint64(100 + i%7), "sock": 3, "msgLength": uint64(64 + i%900)},
			Names:  map[string]meter.Name{},
		}
		m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: uint32(e.Type), PID: uint32(e.Fields["pid"])}
		if err := st.Append(m, e.Format()); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			check()
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	check()
	if archives == 0 {
		t.Fatal("the run never archived: the test does not cover tier-1 files")
	}
	if largest > fsys.ExtentSize/2 {
		t.Errorf("largest store file is %d bytes: less than a factor two below the %d-byte extent", largest, fsys.ExtentSize)
	}
	t.Logf("largest store file %d bytes, %d archives at the end", largest, archives)
}
