package store

import (
	"testing"

	"dpm/internal/fsys"
)

// TestFsysFlushNoAllocPath: a store flush appends each shard's block
// to its active segment, on FsysBackend by the path the shard built
// when the segment opened, not at every Append. A flush of one record
// to each of two shards on FsysBackend costs the allocations the same
// flush costs on MemBackend, which builds no path: building it at every
// Append made it one more a shard.
func TestFsysFlushNoAllocPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	perFlush := func(be Backend) float64 {
		st, err := Open(be, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		batch := []BatchRec{
			lineRec(Meta{Machine: 1, Time: 1, Type: 1, PID: 100}, "SEND machine=1 cpuTime=1 procTime=0 pid=100 sock=3 msgLength=64"),
			lineRec(Meta{Machine: 2, Time: 1, Type: 1, PID: 100}, "SEND machine=2 cpuTime=1 procTime=0 pid=100 sock=3 msgLength=64"),
		}
		flush := func() {
			if err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			flush()
		}
		return testing.AllocsPerRun(256, flush)
	}
	onFsys := perFlush(NewFsysBackend(fsys.New(), fsys.Superuser, "/usr/tmp/f.store"))
	onMem := perFlush(NewMemBackend())
	t.Logf("a flush allocates %.2f times on FsysBackend, %.2f on MemBackend", onFsys, onMem)
	if onFsys > onMem {
		t.Errorf("a flush allocates %.2f times on FsysBackend, more than the %.2f on MemBackend: a path per Append", onFsys, onMem)
	}
}
