package store

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

func batchRecs(n int) []BatchRec {
	recs := make([]BatchRec, 0, n)
	for i := 0; i < n; i++ {
		m, line := rec(uint16(i%4), uint32(i*10), uint32(i%8+1), uint32(100+i%4), i)
		recs = append(recs, lineRec(m, line))
	}
	return recs
}

// TestAppendBatchMatchesSequential proves a batched ingest leaves the
// store byte-equivalent (per record) to appending the same records one
// at a time: same records read back, same stats.
func TestAppendBatchMatchesSequential(t *testing.T) {
	recs := batchRecs(200)

	seqBE := NewMemBackend()
	seqReg, batReg := obs.NewRegistry(), obs.NewRegistry()
	seq, err := Open(seqBE, Config{Shards: 2, SegmentCap: 1024, Obs: seqReg})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := seq.AppendLine(r.Meta, string(r.Line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Flush(); err != nil {
		t.Fatal(err)
	}

	batBE := NewMemBackend()
	bat, err := Open(batBE, Config{Shards: 2, SegmentCap: 1024, Obs: batReg})
	if err != nil {
		t.Fatal(err)
	}
	// Several flush-sized batches, as the filter's Recv loop produces.
	for off := 0; off < len(recs); off += 16 {
		end := off + 16
		if end > len(recs) {
			end = len(recs)
		}
		if err := bat.AppendBatch(recs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.Flush(); err != nil {
		t.Fatal(err)
	}

	key := func(r Rec) string {
		return fmt.Sprintf("%d/%d/%d/%d/%s", r.Meta.Machine, r.Meta.Time, r.Meta.Type, r.Meta.PID, r.Line)
	}
	seqRecs, batRecs := allRecs(t, seqBE), allRecs(t, batBE)
	if len(seqRecs) != len(batRecs) {
		t.Fatalf("sequential store has %d records, batched %d", len(seqRecs), len(batRecs))
	}
	seen := make(map[string]int)
	for _, r := range seqRecs {
		seen[key(r)]++
	}
	for _, r := range batRecs {
		if seen[key(r)] == 0 {
			t.Fatalf("batched store has unexpected record %q", key(r))
		}
		seen[key(r)]--
	}
	ss, bs := seqReg.Counter("store.appends").Load(), batReg.Counter("store.appends").Load()
	if ss != bs {
		t.Fatalf("appends: sequential %d, batched %d", ss, bs)
	}
}

// refusingBackend refuses every Append to a file whose name starts with
// prefix once allow of them have gone through.
type refusingBackend struct {
	Backend
	prefix string
	allow  int
}

func (b *refusingBackend) Append(name string, data []byte) error {
	if strings.HasPrefix(name, b.prefix) {
		if b.allow == 0 {
			return errors.New("refused")
		}
		b.allow--
	}
	return b.Backend.Append(name, data)
}

// TestAppendsCountWhatFlushesMadeDurable: a batch whose second shard
// fails part-way — after flushes at segment-cap boundaries and a rotation
// went through — has made the first shard's records and the second's
// flushed ones durable, and store.appends counts exactly those: what a
// reader finds once the store is reopened.
func TestAppendsCountWhatFlushesMadeDurable(t *testing.T) {
	for _, allow := range []int{0, 1, 3, 6} {
		be := &refusingBackend{Backend: NewMemBackend(), prefix: "s1-", allow: 1 << 30}
		reg := obs.NewRegistry()
		st, err := Open(be, Config{Shards: 2, SegmentCap: 1024, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendBatch(batchRecs(40)); err != nil {
			t.Fatal(err)
		}
		be.allow = allow
		if err := st.AppendBatch(batchRecs(200)); err == nil {
			t.Fatalf("allow %d: the batch went through a backend refusing shard 1", allow)
		}
		if _, err := Open(be, Config{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenReader(be)
		if err != nil {
			t.Fatal(err)
		}
		d := AcquireDecoder()
		durable := 0
		for _, segs := range rd.Shards() {
			for _, rs := range segs {
				got, err := rs.ScanViews(d, func(Meta, *trace.View) {})
				if err != nil {
					t.Fatalf("allow %d: %s: %v", allow, rs.Name, err)
				}
				durable += got.Records
			}
		}
		ReleaseDecoder(d)
		if appends := reg.Counter("store.appends").Load(); appends != int64(durable) {
			t.Fatalf("allow %d: store.appends %d, the reopened store holds %d", allow, appends, durable)
		}
		if rotations := reg.Counter("store.rotations").Load(); allow > 3 && rotations == 0 {
			t.Fatalf("allow %d: no rotation counted", allow)
		}
	}
}

// TestAppendBatchRotation drives a batch well past the segment cap and
// checks segments seal and read back clean.
func TestAppendBatchRotation(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{Shards: 1, SegmentCap: 512, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	recs := batchRecs(100)
	if err := st.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("store.rotations").Load() == 0 {
		t.Fatal("no rotations despite tiny segment cap")
	}
	got := allRecs(t, be)
	if len(got) != len(recs) {
		t.Fatalf("read back %d records, want %d", len(got), len(recs))
	}
}

// TestAppendBatchReusesCallerBuffer checks AppendBatch does not retain
// the caller's line or slots: changing them afterwards must not corrupt
// the store.
func TestAppendBatchReusesCallerBuffer(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, line := rec(1, 5, 1, 7, 11)
	r := lineRec(m, line)
	if err := st.AppendBatch([]BatchRec{r}); err != nil {
		t.Fatal(err)
	}
	copy(r.Line, "CLOBBERED!!")
	r.Slots.Reset(99)
	r.Slots.SetVal(0, 99)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	got := allRecs(t, be)
	if len(got) != 1 || got[0].Line != line {
		t.Fatalf("read back %+v, want the original line", got)
	}
}

// TestAppendBatchRefusesUntyped: a batch with a record that has no
// Slots, or whose Meta names no event type, is refused whole: nothing
// of it is stored or counted.
func TestAppendBatchRefusesUntyped(t *testing.T) {
	be := NewMemBackend()
	reg := obs.NewRegistry()
	st, err := Open(be, Config{Shards: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, line := rec(1, 5, 1, 7, 11)
	for _, bad := range []BatchRec{{Meta: m, Line: []byte(line)}, lineRec(Meta{Machine: 1, Time: 6}, line), lineRec(Meta{Machine: 1, Time: 6, Type: 11}, line)} {
		if err := st.AppendBatch([]BatchRec{lineRec(m, line), bad}); err == nil {
			t.Fatalf("batch with %+v appended", bad.Meta)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := allRecs(t, be); len(got) != 0 || reg.Counter("store.appends").Load() != 0 {
		t.Fatalf("refused batches left %d records, %d appends", len(got), reg.Counter("store.appends").Load())
	}
}

// TestAppendBatchRefusesKeyPastOrder: a RECEIVECALL record whose slots
// set key 6 — its type's stored order has three keys, and DecodeTyped
// refuses such a record — is refused with its whole batch before
// anything is staged, and the store stays readable: the records appended
// before and after it, sealed, load back.
func TestAppendBatchRefusesKeyPastOrder(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, line := rec(1, 5, uint32(meter.EvRecvCall), 7, 11)
	bad := lineRec(Meta{Machine: 1, Time: 6, Type: uint32(meter.EvRecvCall), PID: 7}, line)
	bad.Slots.SetVal(6, 1)
	if err := st.AppendBatch([]BatchRec{lineRec(m, line)}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]BatchRec{lineRec(m, line), bad}); err == nil {
		t.Fatal("a batch with a RECEIVECALL record of key 6 appended")
	}
	if err := st.AppendBatch([]BatchRec{lineRec(m, line)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := allRecs(t, be); len(got) != 2 {
		t.Fatalf("%d records back, want the 2 appended around the refused batch", len(got))
	}
}

// TestAppendBatchOvershootsByOneRecord: one batch several caps long
// rotates where appending its records one at a time does — the same
// segments, each sealed by the record that brought it to SegmentCap and
// so past the cap by less than its largest record — not once per batch.
func TestAppendBatchOvershootsByOneRecord(t *testing.T) {
	const segCap = 1024
	var recs []BatchRec
	for i := 0; i < 240; i++ {
		m, _ := compRec(i)
		recs = append(recs, lineRec(m, recLine(m, 1<<(i%23*2), 3))) // records of many sizes
	}
	cfg := Config{Shards: 2, SegmentCap: segCap, CompactMin: 1 << 20}
	seqBE, batBE := NewMemBackend(), NewMemBackend()
	seq, err := Open(seqBE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := seq.AppendLine(r.Meta, string(r.Line)); err != nil {
			t.Fatal(err)
		}
	}
	bat, err := Open(batBE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bat.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if s, b := segmentNames(t, seqBE), segmentNames(t, batBE); !slices.Equal(s, b) {
		t.Fatalf("one batch wrote segments %v; one record at a time, %v", b, s)
	}
	sealed := 0
	for _, info := range bat.Segments() {
		if !info.Sealed {
			continue
		}
		sealed++
		data, err := batBE.Read(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := ParseSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		largest := 0
		for _, r := range seg.Recs {
			largest = max(largest, FrameSize(len(r.Line)))
		}
		if info.Bytes < segCap || info.Bytes >= segCap+largest {
			t.Errorf("%s holds %d bytes; want at least the cap %d and less than it plus its largest record, %d", info.Name, info.Bytes, segCap, largest)
		}
	}
	if sealed < 8 {
		t.Fatalf("%d segments sealed; the batch is not several caps long", sealed)
	}
}
