package store

import (
	"sync"
	"testing"
)

// TestAppendBatchConcurrent exercises the store's per-shard locking
// under the parallel filter pipeline's access pattern: several
// goroutines calling AppendBatch with batches whose machines overlap
// every shard. It then performs a full Reader scan and asserts the
// invariants concurrency must not break:
//
//   - no torn frames: every segment parses cleanly;
//   - routing: every record sits on the shard its machine maps to;
//   - per-writer order: within a shard, one writer's records appear in
//     the order that writer appended them (batches are atomic per
//     shard and a writer's batches are sequential);
//   - accounting: footer counts match parsed frames, and the total
//     equals exactly the number of records written.
func TestAppendBatchConcurrent(t *testing.T) {
	const (
		writers   = 8
		batches   = 40
		batchRecs = 5
		shards    = 4
	)
	be := NewMemBackend()
	// A small cap forces rotations mid-run; compaction stays out of the
	// way so the segment sequence mirrors the append sequence.
	st, err := Open(be, Config{Shards: shards, SegmentCap: 1024, CompactMin: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := make([]BatchRec, batchRecs)
				for i := range recs {
					seq := b*batchRecs + i
					// Machines rotate through more values than shards,
					// so every batch overlaps shards with every other
					// writer's batches.
					machine := uint16((w + seq) % 7)
					m := Meta{Machine: machine, Time: uint32(seq), Type: 1, PID: uint32(w)}
					recs[i] = lineRec(m, recLine(m, uint64(seq), 3, 64))
				}
				if err := st.AppendBatch(recs); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for shardID, segs := range rd.Shards() {
		lastSeq := make(map[int]int) // writer -> last seq seen on this shard
		for _, rs := range segs {
			seg, err := rs.Load()
			if err != nil {
				t.Fatalf("shard %d segment %s: %v", shardID, rs.Name, err)
			}
			if !seg.Sealed {
				t.Fatalf("shard %d segment %s unsealed after Flush", shardID, rs.Name)
			}
			if int(seg.Index.Count) != len(seg.Recs) {
				t.Fatalf("shard %d segment %s: footer count %d, parsed %d frames",
					shardID, rs.Name, seg.Index.Count, len(seg.Recs))
			}
			for _, r := range seg.Recs {
				if int(r.Meta.Machine)%shards != shardID {
					t.Fatalf("machine %d record on shard %d", r.Meta.Machine, shardID)
				}
				w, seq := int(r.Meta.PID), int(r.Meta.Time)
				if r.Line != recLine(r.Meta, uint64(seq), 3, 64) {
					t.Fatalf("torn or mangled record %q", r.Line)
				}
				if last, ok := lastSeq[w]; ok && seq <= last {
					t.Fatalf("shard %d: writer %d seq %d after seq %d", shardID, w, seq, last)
				}
				lastSeq[w] = seq
				total++
			}
		}
	}
	if want := writers * batches * batchRecs; total != want {
		t.Fatalf("scanned %d records, wrote %d", total, want)
	}
}
