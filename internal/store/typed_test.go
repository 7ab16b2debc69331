package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// shapeRec is one record of the shape tests: what is stored, and the
// shape the writer must give it.
type shapeRec struct {
	Rec
	kind  string
	typed bool
}

// storedOrder is the order the standard descriptions store each event
// type's body fields in (trace's canonicalOrder, spelled out).
var storedOrder = map[meter.Type][]string{
	meter.EvSend:       {"pid", "pc", "sock", "msgLength", "destNameLen", "destName"},
	meter.EvRecvCall:   {"pid", "pc", "sock"},
	meter.EvRecv:       {"pid", "pc", "sock", "msgLength", "sourceNameLen", "sourceName"},
	meter.EvSocket:     {"pid", "pc", "sock", "domain", "type", "protocol"},
	meter.EvDup:        {"pid", "pc", "sock", "newSock"},
	meter.EvDestSocket: {"pid", "pc", "sock"},
	meter.EvConnect:    {"pid", "pc", "sock", "sockNameLen", "peerNameLen", "sockName", "peerName"},
	meter.EvAccept:     {"pid", "pc", "sock", "newSock", "sockNameLen", "peerNameLen", "sockName", "peerName"},
	meter.EvFork:       {"pid", "pc", "newPid"},
	meter.EvTermProc:   {"pid", "pc", "status"},
}

// shapeRecs makes n seeded records of every kind of line a store is
// handed: what the standard filter writes, whole and with fields
// discarded (typed), and everything else (text) — wide, foreign-keyed,
// hex, octal, a repeated key, a number no uint64 holds, unreadable, a
// header that is not the Meta, a Meta type of another type slot. The
// clock advances with ties; the Meta is the line's own unless the kind
// says otherwise.
func shapeRecs(rng *rand.Rand, n int) []shapeRec {
	names := []meter.Name{{}, meter.InetName(7, 80), meter.InetName(1<<31, 65535), meter.UnixName("/tmp/srv"), meter.PairName(3)}
	out := make([]shapeRec, 0, n)
	for i := 0; i < n; i++ {
		typ := meter.Type(1 + rng.Intn(10))
		m := Meta{Machine: uint16(rng.Intn(4)), Time: uint32(i/3*40 + rng.Intn(2)*5), Type: uint32(typ), PID: uint32(100 + rng.Intn(4))}
		var body []string
		for _, key := range storedOrder[typ] {
			val := fmt.Sprint(rng.Intn(3) * rng.Intn(1<<uint(1+rng.Intn(31))))
			switch {
			case key == "pid":
				val = fmt.Sprint(m.PID)
			case strings.HasSuffix(key, "Name"):
				val = names[rng.Intn(len(names))].String()
			}
			body = append(body, key+"="+val)
		}
		head := fmt.Sprintf("%v machine=%d cpuTime=%d procTime=%d", typ, m.Machine, m.Time, rng.Intn(4)*10)
		r := shapeRec{kind: "standard", typed: true}
		switch k := rng.Intn(24); {
		case k < 10:
		case k < 14:
			r.kind = "discard"
			kept := body[:0]
			for _, f := range body {
				if rng.Intn(3) > 0 {
					kept = append(kept, f)
				}
			}
			body = kept
		default:
			r.typed = false
			switch k {
			case 14:
				r.kind = "wide"
				for j := 0; j < 17; j++ {
					body = append(body, fmt.Sprintf("extra%d=%d", j, j))
				}
			case 15:
				r.kind, body = "foreign key", append(body, "where=unix:/x")
			case 16:
				r.kind, body[0] = "hex", fmt.Sprintf("pid=%#x", m.PID)
			case 17:
				r.kind, body[1] = "octal", "pc=017"
			case 18:
				r.kind, body = "repeated key", append(body, "pid=104")
				m.PID = 104
			case 19:
				r.kind, body[1] = "20 digits", "pc=99999999999999999999"
			case 20:
				r.kind, head, body = "unreadable", "NOT A TRACE LINE", nil
			case 21:
				r.kind = "header is not the Meta"
				m.Time++
			case 22:
				r.kind = "type of another slot"
				m.Type += nameSlots
			case 23:
				r.kind, body = "out of order", append(body[1:], body[0])
			}
		}
		r.Rec = Rec{Meta: m, Line: strings.Join(append([]string{head}, body...), " ")}
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
		st, err := rs.Scan(d, nil, func(m Meta, line []byte) { got = append(got, Rec{m, string(line)}) })
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: %v", rs.Name, err)
		}
		sum.Blocks, sum.Records, sum.Typed = sum.Blocks+st.Blocks, sum.Records+st.Records, sum.Typed+st.Typed
	}
	return got, sum
}

// TestShapesReturnEveryLine: whatever it is handed, the store hands
// back byte for byte, in order, sealed, archived or from an unsealed
// tail; and the typed shape is taken exactly for the standard lines
// whose header is the record's Meta — by the writer's count, by the
// reader's, and by the view's own word.
func TestShapesReturnEveryLine(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := shapeRecs(rng, 1500)
		reg := obs.NewRegistry()
		be := NewMemBackend()
		st, err := Open(be, Config{Shards: 1, SegmentCap: 8 << 10, BlockTarget: 1 << 10, ArchiveAfter: 4000, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		wantTyped := 0
		kinds := map[string]int{}
		var batch []BatchRec
		for i, r := range recs {
			var v trace.View
			m := r.Meta
			oracle := v.ParseStandard([]byte(r.Line)) && v.Machine == int(m.Machine) && v.CPUTime == int64(m.Time) && uint32(v.Type) == m.Type
			if oracle != r.typed {
				t.Fatalf("seed %d: %s line %q with %+v: standard with its Meta in the header = %v", seed, r.kind, r.Line, m, oracle)
			}
			if r.typed {
				wantTyped++
			}
			// Singly (a flush, and a sync marker, in mid-block after every
			// record) and in batches of odd sizes.
			if i%400 < 40 && len(batch) == 0 {
				if err := st.Append(m, r.Line); err != nil {
					t.Fatal(err)
				}
			} else if batch = append(batch, BatchRec{Meta: m, Line: []byte(r.Line)}); len(batch) >= 1+i%7 {
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
		if len(kinds) != 12 {
			t.Fatalf("seed %d: %d kinds of line generated, want 12: %v", seed, len(kinds), kinds)
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
		typed, text := reg.Counter("store.records_typed").Load(), reg.Counter("store.records_text").Load()
		if sum.Typed != wantTyped || typed != int64(wantTyped) || text != int64(len(recs)-wantTyped) {
			t.Fatalf("seed %d: %d standard records; scans saw %d typed, the writer counted %d typed and %d text of %d",
				seed, wantTyped, sum.Typed, typed, text, len(recs))
		}
		if sum.Blocks < 30 {
			t.Fatalf("seed %d: %d blocks; the run is meant to cross many block boundaries", seed, sum.Blocks)
		}
		// Sealed, with the cold segments archived: rewritten through text,
		// the same lines in the same shapes.
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
		again, sum2 := scanAll(t, be)
		if len(again) != len(got) || sum2.Typed != wantTyped {
			t.Fatalf("seed %d: after sealing and archiving %d records, %d typed; before %d, %d", seed, len(again), sum2.Typed, len(got), wantTyped)
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("seed %d record %d changed when its segment was rewritten: %+v, was %+v", seed, i, again[i], got[i])
			}
		}
	}
}

// TestTypedBlocksDecodeAlone: typed records are deltas against the last
// record of their type in the same block and no further — any block of
// a sealed segment decodes with every other pruned, in any order — and
// the text lines sharing a type slot with them, or with each other
// across types, disturb nothing.
func TestTypedBlocksDecodeAlone(t *testing.T) {
	var recs []Rec
	for i := 0; i < 600; i++ {
		m := Meta{Machine: 1, Time: uint32(i), Type: uint32(meter.EvSend), PID: uint32(100 + i%3)}
		line := fmt.Sprintf("SEND machine=1 cpuTime=%d procTime=%d pid=%d pc=%d sock=3 msgLength=%d destNameLen=16 destName=inet:%d:80", i, i/7*10, m.PID, 16384+i%5, 16+i*37%2000, i%2)
		switch i % 5 {
		case 1: // text, in the slot of the typed SENDs
			line += " note=1"
		case 2: // text under a type that shares SEND's slot
			m.Type += nameSlots
		case 3: // typed, of another type
			m.Type = uint32(meter.EvFork)
			line = fmt.Sprintf("FORK machine=1 cpuTime=%d procTime=0 pid=%d pc=7 newPid=%d", i, m.PID, 200+i)
		}
		recs = append(recs, Rec{m, line})
	}
	data, err := newCompWriter(2048).encodeSealed(recs)
	if err != nil {
		t.Fatal(err)
	}
	rs := newReaderSegment("s0-000001-000001.seg", 0, 1, 1, 0, data)
	blocks := rs.Blocks()
	if rs.FormatVersion() != 3 || len(blocks) < 10 {
		t.Fatalf("v%d with %d blocks", rs.FormatVersion(), len(blocks))
	}
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	at := make([]int, len(blocks)+1)
	for i, b := range blocks {
		at[i+1] = at[i] + int(b.Index.Count)
	}
	typed := 0
	for _, k := range rand.New(rand.NewSource(1)).Perm(len(blocks)) {
		i := at[k]
		nth := -1
		st, err := rs.Scan(d, func(Index) bool { nth++; return nth == k }, func(m Meta, line []byte) {
			if (Rec{m, string(line)}) != recs[i] {
				t.Fatalf("block %d alone: record %d is %+v %q, want %+v", k, i, m, line, recs[i])
			}
			i++
		})
		if err != nil || i != at[k+1] || st.BlocksPruned != len(blocks)-1 {
			t.Fatalf("block %d alone: %v, records %d..%d of %d..%d, stats %+v", k, err, at[k], i, at[k], at[k+1], st)
		}
		typed += st.Typed
	}
	if typed != len(recs)*3/5 {
		t.Fatalf("%d of %d records typed, want three in five", typed, len(recs))
	}
}

// TestTornTypedTailSalvage: an unsealed v3 file cut anywhere — inside a
// typed record, a Meta, a stored-block header — yields a prefix of its
// records, each byte for byte, and never a record it did not hold; the
// prefix only grows with the cut.
func TestTornTypedTailSalvage(t *testing.T) {
	be := NewMemBackend()
	st, err := Open(be, Config{Shards: 1, BlockTarget: 512})
	if err != nil {
		t.Fatal(err)
	}
	var want []Rec
	var batch []BatchRec
	for _, r := range shapeRecs(rand.New(rand.NewSource(9)), 60) {
		want = append(want, r.Rec)
		// A sync marker after one record, then after three, and so on.
		if batch = append(batch, BatchRec{Meta: r.Meta, Line: []byte(r.Line)}); len(batch) == 1+len(want)/2%2*2 {
			if err := st.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := st.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	names, _ := be.List()
	if len(names) != 1 {
		t.Fatalf("segments %v, want one unsealed", names)
	}
	whole, _ := be.Read(names[0])
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
	if err := be.Create(names[0], whole[:len(whole)*2/3]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(be, Config{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	got, sum := scanAll(t, be)
	if len(got) == 0 || len(got) >= len(want) || sum.Typed == 0 {
		t.Fatalf("recovered %d of %d records, %d typed", len(got), len(want), sum.Typed)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered record %d is %+v, stored %+v", i, got[i], want[i])
		}
	}
}

// checkLazyView holds a view a decoder read typed, before anything has
// filled it, to a copy forced to fill (by LineLen): Field, FieldOf and
// NameField answer the same for every key of every type, the header
// names, traceType, a foreign key and ""; Event, AppendLine, LineLen and
// AppendTyped, each the first thing asked of a fresh copy, give the
// same bytes.
func checkLazyView(t *testing.T, lazy *trace.View) {
	t.Helper()
	filled := *lazy
	filled.LineLen()
	keys := []string{"machine", "cpuTime", "procTime", "type", "traceType", "noSuchKey", ""}
	for _, order := range storedOrder {
		keys = append(keys, order...)
	}
	for _, k := range keys {
		ref := trace.NewFieldRef(k)
		lv, lok := lazy.Field(k)
		rv, rok := lazy.FieldOf(&ref)
		fv, fok := filled.Field(k)
		ln, lnok := lazy.NameField(k)
		fn, fnok := filled.NameField(k)
		if lv != fv || lok != fok || rv != fv || rok != fok || ln != fn || lnok != fnok {
			t.Fatalf("%q: key %q lazy %d, %v / %d, %v / %v, %v; filled %d, %v / %v, %v",
				filled.AppendLine(nil), k, lv, lok, rv, rok, ln, lnok, fv, fok, fn, fnok)
		}
	}
	var enc1, enc2 trace.TypedState
	for what, same := range map[string]func(c *trace.View) bool{
		"Event":      func(c *trace.View) bool { return fmt.Sprint(c.Event()) == fmt.Sprint(filled.Event()) },
		"AppendLine": func(c *trace.View) bool { return string(c.AppendLine(nil)) == string(filled.AppendLine(nil)) },
		"LineLen":    func(c *trace.View) bool { return c.LineLen() == filled.LineLen() },
		"AppendTyped": func(c *trace.View) bool {
			return string(c.AppendTyped(nil, &enc1)) == string(filled.AppendTyped(nil, &enc2))
		},
	} {
		if c := *lazy; !same(&c) {
			t.Fatalf("%q: %s differs between the lazy view and the filled one", filled.AppendLine(nil), what)
		}
	}
}

// FuzzTypedPayload feeds arbitrary bytes to the record decoder as a v3
// block payload. It must not panic; no record it emits is larger than a
// frame may be; every view it fills regenerates a line the trace parser
// reads back as the same record; and the records it emits, transcoded
// as the cold rewrite moves them — a typed one as its view, any other
// as its line — decode again to the same Metas and lines.
func FuzzTypedPayload(f *testing.F) {
	w := newCompWriter(1 << 20)
	w.openSegment()
	for _, r := range shapeRecs(rand.New(rand.NewSource(5)), 80) {
		if err := w.stage(r.Meta, []byte(r.Line), nil); err != nil {
			f.Fatal(err)
		}
		if w.stagedN%20 == 0 {
			f.Add(append([]byte(nil), w.enc...))
		}
	}
	f.Add([]byte{1, 2, 1, 1, 1, 0})
	// A text record whose opcode is past int's range: a dictionary
	// reference the decoder once took for a negative index.
	f.Add([]byte{1, 2, 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{1, 2, 1, 1, 3, 0x20, 0x20, 2, 0, 0, 80, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0})
	// payloadDecoder borrows a decoder set to read a bare v3 block payload
	// that defines its dictionary as it goes.
	payloadDecoder := func() *Decoder {
		d := AcquireDecoder()
		d.payload, d.growDict, d.dict = payloadV3, true, d.dictBuf[:0]
		d.resetBlockCoding()
		return d
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := payloadDecoder()
		defer ReleaseDecoder(d)
		emitted := 0
		var first []Rec
		w := newCompWriter(math.MaxInt)
		w.openSegment()
		n, consumed, err := d.decodeRecords(raw, func(m Meta, v *trace.View, line []byte) {
			emitted++
			if v != nil {
				checkLazyView(t, v)
				first = append(first, Rec{m, string(v.AppendLine(nil))})
			} else {
				first = append(first, Rec{m, string(line)})
			}
			if err := w.add(m, v, line); err != nil {
				t.Fatal(err)
			}
			if v == nil {
				if len(line) > MaxFrameSize {
					t.Fatalf("text record of %d bytes", len(line))
				}
				return
			}
			if line != nil || v.Machine != int(m.Machine) || v.CPUTime != int64(m.Time) || uint32(v.Type) != m.Type {
				t.Fatalf("typed record %+v with view %q and line %q", m, v.AppendLine(nil), line)
			}
			out := v.AppendLine(nil)
			ev, err := trace.ParseOne(out)
			if err != nil || len(out) > MaxFrameSize {
				t.Fatalf("typed record regenerates %q (%d bytes): %v", out, len(out), err)
			}
			var again trace.View
			if !again.ParseStandard(out) || fmt.Sprint(again.Event()) != fmt.Sprint(ev) || fmt.Sprint(v.Event()) != fmt.Sprint(ev) {
				t.Fatalf("typed record regenerates %q, which is not standard or not the view's record", out)
			}
		})
		if n != emitted || consumed > len(raw) || (err == nil && consumed != len(raw)) {
			t.Fatalf("decodeRecords = %d, %d, %v over %d bytes with %d emitted", n, consumed, err, len(raw), emitted)
		}
		d2 := payloadDecoder()
		defer ReleaseDecoder(d2)
		var again []Rec
		if n, consumed, err := d2.decodeRecords(w.enc, d2.lines(func(m Meta, line []byte) {
			again = append(again, Rec{m, string(line)})
		})); err != nil || n != emitted || consumed != len(w.enc) {
			t.Fatalf("transcoded payload: decodeRecords = %d, %d, %v over %d bytes, want the %d records", n, consumed, err, len(w.enc), emitted)
		}
		if !slices.Equal(again, first) {
			t.Fatalf("transcoded payload decodes to\n%+v\nthe payload itself to\n%+v", again, first)
		}
	})
}

// TestTypedShapeZeroAllocs: with its buffers warm, staging a standard
// record — the parse, the regenerate check, the typed form — allocates
// nothing and touches no dictionary, and neither does decoding a record
// of either shape back, as a view or as a line.
func TestTypedShapeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	recs := shapeRecs(rand.New(rand.NewSource(2)), 400)
	w := newCompWriter(1 << 20)
	typed := recs[:0:0]
	for _, r := range recs {
		if r.typed {
			typed = append(typed, r)
		}
	}
	stageTyped := func() {
		w.openSegment()
		for _, r := range typed {
			w.lineBuf = append(w.lineBuf[:0], r.Line...)
			if err := w.stage(r.Meta, w.lineBuf, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	stageTyped()
	if allocs := testing.AllocsPerRun(10, stageTyped); allocs != 0 || w.nTyped != len(typed) || len(w.dictEntries) != 0 {
		t.Fatalf("staging %d standard records: %.0f allocations, %d typed, %d dictionary entries; want 0, all, 0", len(typed), allocs, w.nTyped, len(w.dictEntries))
	}

	var all []Rec
	for _, r := range recs {
		all = append(all, r.Rec)
	}
	data, err := newCompWriter(4096).encodeSealed(all)
	if err != nil {
		t.Fatal(err)
	}
	rs := newReaderSegment("s0-000001-000001.seg", 0, 1, 1, 0, data)
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	var st ScanStats
	n := 0
	scan := func() {
		if st, err = rs.ScanViews(d, nil, func(_ Meta, v *trace.View, line []byte) { n += len(line) }); err != nil {
			t.Fatal(err)
		}
		if _, err = rs.Scan(d, nil, func(_ Meta, line []byte) { n += len(line) }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 || st.Typed != len(typed) || st.Records != len(recs) {
		t.Fatalf("scanning %d records, %d typed: %.0f allocations, want 0 (%d, %d typed expected)", st.Records, st.Typed, allocs, len(recs), len(typed))
	}
}
