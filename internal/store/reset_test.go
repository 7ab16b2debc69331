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

// TestOneResetPerSegment: an encoder starts one DEFLATE stream per
// segment it writes, when the segment opens — not again when it is
// sealed. Above level 1 a Reset clears the hash chains, so a second one
// per segment is paid for nothing. Both writers: the hot tier's, which
// flushes every record, and the archival tier's over several runs in a
// row, as the encoder pool serves them.
func TestOneResetPerSegment(t *testing.T) {
	base := Config{Shards: 1, CompactMin: 1 << 20, SegmentCap: 4 << 10}

	t.Run("hot", func(t *testing.T) {
		be := NewMemBackend()
		st, err := Open(be, base)
		if err != nil {
			t.Fatal(err)
		}
		w := newCompWriter()
		rc := &resetCounter{deflater: w.fw}
		w.fw = rc
		st.shards[0].cw = w
		for i := 0; i < 600; i++ {
			m, line := compRec(i)
			if err := st.AppendLine(m, line); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if segs := len(segmentNames(t, be)); segs < 3 || rc.resets != segs {
			t.Fatalf("%d resets for %d segments; the case needs several", rc.resets, segs)
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
		w := tierWriter(1)
		rc := &resetCounter{deflater: w.fw}
		w.fw = rc
		sh := st.shards[0]
		if len(sh.sealed) != 6 {
			t.Fatalf("%d sealed inputs, want 6", len(sh.sealed))
		}
		for i, run := range [][]*SegmentInfo{sh.sealed[:3], sh.sealed[3:]} {
			out := &SegmentInfo{Name: segName(0, 100+i, 100+i, 1), Tier: 1}
			if _, err := st.rewrite(w, run, out, false); err != nil {
				t.Fatal(err)
			}
			if rc.resets != i+1 {
				t.Fatalf("after run %d: %d resets for %d segments", i, rc.resets, i+1)
			}
		}
	})
}
