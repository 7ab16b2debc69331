package store

import (
	"io"
	"testing"
)

// resetCounter counts the DEFLATE streams an encoder starts.
type resetCounter struct {
	deflater
	resets int
}

func (c *resetCounter) Reset(w io.Writer) {
	c.resets++
	c.deflater.Reset(w)
}

// sealedBlocks is how many blocks the sealed segments in be hold.
func sealedBlocks(t *testing.T, be Backend) (blocks int) {
	t.Helper()
	for _, name := range segmentNames(t, be) {
		data, err := be.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		blocks += len(sealedFooterV2(t, data).Blocks)
	}
	return blocks
}

// TestOneResetPerBlock: an encoder starts one DEFLATE stream per block it
// writes, when the block's first bytes go in — not again when the block
// is closed, and not when the pooled writer opens its next segment. Above
// level 1 a Reset clears the hash chains, so a second one per block is
// paid for nothing. Both writers: the hot tier's, which flushes every
// record, and the archival tier's over several runs in a row, as the
// encoder pool serves them.
func TestOneResetPerBlock(t *testing.T) {
	const blockTarget = 512
	base := Config{Shards: 1, CompactMin: 1 << 20, SegmentCap: 4 << 10, BlockTarget: blockTarget}

	t.Run("hot", func(t *testing.T) {
		be := NewMemBackend()
		st, err := Open(be, base)
		if err != nil {
			t.Fatal(err)
		}
		w := newCompWriter(blockTarget)
		rc := &resetCounter{deflater: w.fw}
		w.fw = rc
		st.shards[0].cw = w
		for i := 0; i < 600; i++ {
			m, line := compRec(i)
			if err := st.Append(m, line); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		blocks := sealedBlocks(t, be)
		if len(segmentNames(t, be)) < 3 || blocks < 2*len(segmentNames(t, be)) {
			t.Fatalf("%d blocks in %d segments: the case crosses too few boundaries", blocks, len(segmentNames(t, be)))
		}
		if rc.resets != blocks {
			t.Fatalf("%d resets for %d blocks", rc.resets, blocks)
		}
	})

	t.Run("archive", func(t *testing.T) {
		be := NewMemBackend()
		for n := 0; n < 6; n++ {
			st, err := Open(be, base)
			if err != nil {
				t.Fatal(err)
			}
			appendSealed(t, st, n*40, 40)
		}
		st, err := Open(be, base)
		if err != nil {
			t.Fatal(err)
		}
		w := tierWriter(1, blockTarget/4) // 4x blocks: the archive's own target
		rc := &resetCounter{deflater: w.fw}
		w.fw = rc
		sh := st.shards[0]
		if len(sh.sealed) != 6 {
			t.Fatalf("%d sealed inputs, want 6", len(sh.sealed))
		}
		blocks := 0
		for i, run := range [][]*SegmentInfo{sh.sealed[:3], sh.sealed[3:]} {
			out := &SegmentInfo{Name: segName(0, 100+i, 100+i, 1), Tier: 1}
			if _, err := st.rewrite(w, run, out, false); err != nil {
				t.Fatal(err)
			}
			if len(w.blocks) < 2 {
				t.Fatalf("run %d: %d blocks; the case crosses no block boundary", i, len(w.blocks))
			}
			blocks += len(w.blocks)
			if rc.resets != blocks {
				t.Fatalf("after run %d: %d resets for %d blocks", i, rc.resets, blocks)
			}
		}
	})
}
