package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// shapeRec is one record of the shape tests as the filter hands it
// over — its Meta, its Slots, and the line a read gives back — and what
// kind of record it is.
type shapeRec struct {
	Rec
	kind  string
	slots *trace.Slots
}

// batchRec is the record as AppendBatch takes it.
func (r shapeRec) batchRec() BatchRec {
	return BatchRec{Meta: r.Meta, Line: []byte(r.Line), Slots: r.slots}
}

// shapeBatch is the records as AppendBatch takes them.
func shapeBatch(recs []shapeRec) []BatchRec {
	out := make([]BatchRec, len(recs))
	for i, r := range recs {
		out[i] = r.batchRec()
	}
	return out
}

// shapeRecs makes n seeded records of every kind the filter hands a
// store: whole, with fields discarded, and with a socket name no line
// spells — a path with a blank, an unset name with bytes set, a family
// written in hex. The clock advances with ties.
func shapeRecs(rng *rand.Rand, n int) []shapeRec {
	names := []meter.Name{{}, meter.InetName(7, 80), meter.InetName(1<<31, 65535), meter.UnixName("/tmp/srv"), meter.PairName(3),
		meter.UnixName("/tmp/a b"), {0, 0, 1, 2, 3}, {9, 0, 0xff}}
	out := make([]shapeRec, 0, n)
	for i := 0; i < n; i++ {
		typ := meter.Type(1 + rng.Intn(10))
		m := Meta{Machine: uint16(rng.Intn(4)), Time: uint32(i/3*40 + rng.Intn(2)*5), Type: uint32(typ), PID: uint32(100 + rng.Intn(4))}
		r := shapeRec{kind: "whole", slots: new(trace.Slots)}
		r.slots.Reset(int64(rng.Intn(4) * 10))
		keys, nameKeys := trace.SlotKeys(typ, typ.String())
		for k := range keys {
			switch {
			case k == 0:
				r.slots.SetVal(0, uint64(m.PID))
			case nameKeys>>k&1 != 0:
				j := rng.Intn(len(names))
				if r.slots.SetName(k, names[j]); j >= 5 {
					r.kind = "odd name"
				}
			default:
				r.slots.SetVal(k, uint64(rng.Intn(3)*rng.Intn(1<<uint(1+rng.Intn(31)))))
			}
		}
		if rng.Intn(4) == 0 {
			r.kind = "discard"
			r.slots.Drop(uint8(rng.Intn(256)))
		}
		r.Rec = Rec{m, string(r.slots.AppendLine(nil, typ, int(m.Machine), int64(m.Time)))}
		out = append(out, r)
	}
	return out
}

// scanAll returns every record of a one-shard store through Scan, in
// order, with the scans' summed statistics; a torn tail is tolerated.
func scanAll(t *testing.T, be Backend) ([]Rec, ScanStats) {
	t.Helper()
	rd, err := OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	var got []Rec
	var sum ScanStats
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	for _, rs := range rd.Shards()[0] {
		st, err := rs.Scan(d, func(m Meta, line []byte) { got = append(got, Rec{m, string(line)}) })
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: %v", rs.Name, err)
		}
		sum.Streams, sum.Records = sum.Streams+st.Streams, sum.Records+st.Records
	}
	return got, sum
}

// TestShapesReturnEveryLine: every record the store is handed it hands
// back as its line, in order, sealed, archived or from an unsealed tail,
// each counted typed by the writer once.
func TestShapesReturnEveryLine(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := shapeRecs(rng, 1500)
		reg := obs.NewRegistry()
		be := NewMemBackend()
		st, err := Open(be, Config{Shards: 1, SegmentCap: 8 << 10, ArchiveAfter: 4000, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		var batch []BatchRec
		for i, r := range recs {
			// Singly (a flush, and a sync marker, after every record) and in
			// batches of odd sizes.
			if i%400 < 40 && len(batch) == 0 {
				if err := st.AppendBatch([]BatchRec{r.batchRec()}); err != nil {
					t.Fatal(err)
				}
			} else if batch = append(batch, r.batchRec()); len(batch) >= 1+i%7 {
				if err := st.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
			kinds[r.kind]++
		}
		if err := st.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if len(kinds) != 3 {
			t.Fatalf("seed %d: %d kinds of record generated, want 3: %v", seed, len(kinds), kinds)
		}
		got, sum := scanAll(t, be)
		if len(got) != len(recs) {
			t.Fatalf("seed %d: %d records back, %d stored", seed, len(got), len(recs))
		}
		for i, r := range recs {
			if got[i] != r.Rec {
				t.Fatalf("seed %d record %d (%s):\n got %+v\nwant %+v", seed, i, r.kind, got[i], r.Rec)
			}
		}
		if typed := reg.Counter("store.records_typed").Load(); typed != int64(len(recs)) || sum.Records != len(recs) {
			t.Fatalf("seed %d: the writer counted %d typed, the scans %d records, of %d", seed, typed, sum.Records, len(recs))
		}
		if sum.Streams < 10 {
			t.Fatalf("seed %d: %d segments; the run is meant to cross many segment boundaries", seed, sum.Streams)
		}
		// Sealed, with the cold segments archived: rewritten as views, the
		// same lines.
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		archived := 0
		for _, info := range st.Segments() {
			archived += info.Tier
		}
		if archived == 0 {
			t.Fatalf("seed %d: nothing archived", seed)
		}
		again, _ := scanAll(t, be)
		if len(again) != len(got) {
			t.Fatalf("seed %d: after sealing and archiving %d records; before %d", seed, len(again), len(got))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("seed %d record %d changed when its segment was rewritten: %+v, was %+v", seed, i, again[i], got[i])
			}
		}
	}
}

// TestTypedSegmentsDecodeAlone: records are deltas against the last
// record of their type in the same segment and no further — segments
// one pooled writer encodes in a row decode with one reused decoder,
// each alone, in any order.
func TestTypedSegmentsDecodeAlone(t *testing.T) {
	var recs []Rec
	for i := 0; i < 600; i++ {
		m := Meta{Machine: 1, Time: uint32(i), Type: uint32(meter.EvSend), PID: uint32(100 + i%3)}
		line := fmt.Sprintf("SEND machine=1 cpuTime=%d procTime=%d pid=%d pc=%d sock=3 msgLength=%d destNameLen=16 destName=inet:%d:80", i, i/7*10, m.PID, 16384+i%5, 16+i*37%2000, i%2)
		if i%5 == 3 {
			m.Type = uint32(meter.EvFork)
			line = fmt.Sprintf("FORK machine=1 cpuTime=%d procTime=0 pid=%d pc=7 newPid=%d", i, m.PID, 200+i)
		}
		recs = append(recs, Rec{m, line})
	}
	const per = 60
	w := newCompWriter()
	var segs []*ReaderSegment
	for at := 0; at < len(recs); at += per {
		data, err := w.encodeSealed(recs[at : at+per])
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, newReaderSegment("s0-000001-000001.seg", 0, 1, 1, 0, bytes.Clone(data)))
	}
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	for _, k := range rand.New(rand.NewSource(1)).Perm(len(segs)) {
		i := k * per
		st, err := segs[k].Scan(d, func(m Meta, line []byte) {
			if (Rec{m, string(line)}) != recs[i] {
				t.Fatalf("segment %d alone: record %d is %+v %q, want %+v", k, i, m, line, recs[i])
			}
			i++
		})
		if err != nil || i != (k+1)*per {
			t.Fatalf("segment %d alone: %v, records %d..%d of %d..%d, stats %+v", k, err, k*per, i, k*per, (k+1)*per, st)
		}
	}
}

// TestTornTypedTailSalvage: an unsealed v3 file cut anywhere — inside a
// typed record, a Meta, a stored-block header — yields a prefix of its
// records, each byte for byte, and never a record it did not hold; the
// prefix only grows with the cut.
func TestTornTypedTailSalvage(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []Rec
	var batch []BatchRec
	for _, r := range shapeRecs(rand.New(rand.NewSource(9)), 60) {
		want = append(want, r.Rec)
		// A sync marker after one record, then after three, and so on.
		if batch = append(batch, r.batchRec()); len(batch) == 1+len(want)/2%2*2 {
			if err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := st.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	listed, _ := be.List()
	if len(listed) != 1 {
		t.Fatalf("segments %v, want one unsealed", listed)
	}
	whole, _ := be.Read(listed[0].Name)
	last := 0
	for cut := 0; cut <= len(whole); cut++ {
		seg, err := ParseSegment(whole[:cut:cut])
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if seg.Sealed || len(seg.Recs) < last || len(seg.Recs) > len(want) {
			t.Fatalf("cut at %d: sealed=%v, %d records after %d at the cut before", cut, seg.Sealed, len(seg.Recs), last)
		}
		for i, r := range seg.Recs[last:] {
			if r != want[last+i] {
				t.Fatalf("cut at %d: record %d is %+v, stored %+v", cut, last+i, r, want[last+i])
			}
		}
		last = len(seg.Recs)
	}
	if last != len(want) {
		t.Fatalf("the whole file yields %d of %d records", last, len(want))
	}
	// And what Open makes of a torn file is a sealed v3 segment of the
	// salvaged prefix.
	if err := be.Create(listed[0].Name, whole[:len(whole)*2/3]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(be, Config{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	got, _ := scanAll(t, be)
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("recovered %d of %d records", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered record %d is %+v, stored %+v", i, got[i], want[i])
		}
	}
}

// standardName reports whether a line can spell the name, so that what
// AppendText writes for it parses back to all sixteen bytes: unset,
// Internet with nothing past the host, or a UNIX-domain or socketpair
// path of printable bytes, NUL-padded.
func standardName(n meter.Name) bool {
	switch n.Family() {
	case meter.AFUnspec:
		return n.IsZero()
	case meter.AFInet:
		return [8]byte(n[8:]) == [8]byte{}
	case meter.AFUnix, meter.AFPair:
		path := bytes.TrimRight(n[2:], "\x00")
		return !bytes.ContainsFunc(path, func(r rune) bool { return r <= ' ' || r >= 0x7f })
	}
	return false
}

// typedOf is the typed form of v's record against an empty state: two
// records have the same one exactly when they hold the same slots.
func typedOf(v *trace.View) string {
	var st trace.TypedState
	return string(v.AppendTyped(nil, &st))
}

// FuzzTypedPayload feeds arbitrary bytes to the record decoder as a v3
// segment payload. It must not panic; no line it renders is larger than
// a frame may be; every view it decodes, encoded again (AppendTyped) and
// decoded, holds the same slots; a view whose names are all ones a line
// spells renders a line the trace parser reads back as the same record;
// and the records it emits, transcoded as the cold rewrite moves them,
// decode again to the same Metas, lines and slots.
func FuzzTypedPayload(f *testing.F) {
	w := newCompWriter()
	w.openSegment()
	for _, r := range shapeRecs(rand.New(rand.NewSource(5)), 80) {
		w.stage(r.Meta, []byte(r.Line), r.slots)
		if w.stagedN%20 == 0 {
			f.Add(append([]byte(nil), w.enc...))
		}
	}
	f.Add([]byte{1, 2, 1, 1, 1, 0})
	f.Add([]byte{1, 2, 1, 1, 3, 0x20, 0x20, 2, 0, 0, 80, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0})
	for _, c := range craftedPayloads() {
		f.Add(c.payload)
	}
	// What payload version 2 also held: a record of the text shape (shape
	// byte 0, front-coding lengths, a literal), after a typed one; and an
	// opcode past int's range where that shape's dictionary references
	// stood.
	f.Add(append(sendRecord(), append(recordMeta(nil, meter.EvSend), 0, 0, 0, 1, 6, 'S', 'E', 'N', 'D', ' ', 'a', 0)...))
	f.Add([]byte{1, 2, 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A name no line spells: a path with a blank.
	path := meter.UnixName("/a b")
	f.Add(append(append(recordMeta(nil, meter.EvSend), 3, 0x20, 0x20), path[:]...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := AcquireDecoder()
		defer ReleaseDecoder(d)
		emitted := 0
		var first []Rec
		var firstTyped []string
		w := newCompWriter()
		w.openSegment()
		n, err := d.decodeRecords(raw, func(m Meta, v *trace.View) {
			emitted++
			if v.Machine != int(m.Machine) || v.CPUTime != int64(m.Time) || uint32(v.Type) != m.Type {
				t.Fatalf("record %+v with view of %v %d %d", m, v.Type, v.Machine, v.CPUTime)
			}
			out := v.AppendLine(nil, 0)
			if len(out) > MaxFrameSize {
				t.Fatalf("record renders %d bytes", len(out))
			}
			first, firstTyped = append(first, Rec{m, string(out)}), append(firstTyped, typedOf(v))
			w.add(m, v)
			var again trace.View
			var st trace.TypedState
			c := obs.NewCursor([]byte(typedOf(v)), errRecord)
			if again.DecodeTyped(&c, &st, v.Type, v.Machine, v.CPUTime); c.Err() != nil || c.Remaining() != 0 || typedOf(&again) != typedOf(v) {
				t.Fatalf("record %q encoded again decodes to other slots: %v", out, c.Err())
			}
			keys, _ := trace.SlotKeys(v.Type, v.Type.String())
			for _, key := range keys {
				ref := trace.NewFieldRef(key)
				if n, ok := v.NameOf(&ref); ok && !standardName(n) {
					return
				}
			}
			ev, err := trace.ParseOne(out)
			if err != nil || ev.Type != v.Type || ev.Machine != v.Machine || ev.CPUTime != v.CPUTime || ev.ProcTime != v.ProcTime {
				t.Fatalf("record renders %q, which reads %+v: %v", out, ev, err)
			}
			for _, key := range keys {
				ref := trace.NewFieldRef(key)
				gv, gok := v.Field(key)
				gn, gnok := v.NameOf(&ref)
				wn, wnok := ev.Names[key]
				wv, wok := ev.Fields[key]
				if key == "type" { // the header's, as Field answers it
					wv, wok = uint64(ev.Type), true
				}
				if gv != wv || gok != wok || gn != wn || gnok != wnok {
					t.Fatalf("record renders %q: %s is %d, %v, %v, %v; the line reads %d, %v, %v, %v", out, key, gv, gok, gn, gnok, wv, wok, wn, wnok)
				}
			}
		})
		if n != emitted {
			t.Fatalf("decodeRecords = %d, %v over %d bytes with %d emitted", n, err, len(raw), emitted)
		}
		d2 := AcquireDecoder()
		defer ReleaseDecoder(d2)
		var again []Rec
		var againTyped []string
		if n, err := d2.decodeRecords(w.enc, func(m Meta, v *trace.View) {
			again, againTyped = append(again, Rec{m, string(v.AppendLine(nil, 0))}), append(againTyped, typedOf(v))
		}); err != nil || n != emitted {
			t.Fatalf("transcoded payload: decodeRecords = %d, %v over %d bytes, want the %d records", n, err, len(w.enc), emitted)
		}
		if !slices.Equal(again, first) || !slices.Equal(againTyped, firstTyped) {
			t.Fatalf("transcoded payload decodes to\n%+v\nthe payload itself to\n%+v", again, first)
		}
	})
}

// TestTypedShapeZeroAllocs: with its buffers warm, staging a record
// allocates nothing, and neither does decoding it back, as a view or as
// a line.
func TestTypedShapeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	recs := shapeRecs(rand.New(rand.NewSource(2)), 400)
	w := newCompWriter()
	lines := make([][]byte, len(recs))
	for i, r := range recs {
		lines[i] = []byte(r.Line)
	}
	stage := func() {
		w.openSegment()
		for i, r := range recs {
			w.stage(r.Meta, lines[i], r.slots)
		}
	}
	stage()
	if allocs := testing.AllocsPerRun(10, stage); allocs != 0 || w.nTyped != len(recs) {
		t.Fatalf("staging %d records: %.0f allocations, %d typed; want 0, all", len(recs), allocs, w.nTyped)
	}

	data, err := newCompWriter().encodeRuns(shapeBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	rs := newReaderSegment("s0-000001-000001.seg", 0, 1, 1, 0, data)
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	var st ScanStats
	n := 0
	scan := func() {
		if st, err = rs.ScanViews(d, func(_ Meta, v *trace.View) { n += int(v.Type) }); err != nil {
			t.Fatal(err)
		}
		if _, err = rs.Scan(d, func(_ Meta, line []byte) { n += len(line) }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 || st.Records != len(recs) {
		t.Fatalf("scanning %d records: %.0f allocations, want 0 (%d expected)", st.Records, allocs, len(recs))
	}
}
