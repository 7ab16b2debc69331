package filter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"

	"dpm/internal/meter"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// The filter hands the store every kept record typed (BatchRec.Slots),
// and the line it writes is only the rendering of those slots, so what
// the store gives back is what the flat log got. Here every kept record
// is held to its line: the slots spell it byte for byte, and where every
// name is one a line spells, the trace parser reads the line back as the
// record the slots hold.

// spelled reports whether a line spells the name: what AppendText writes
// for it, one blank-free token, parses back to all sixteen bytes.
func spelled(n meter.Name) bool {
	text := string(n.AppendText(nil))
	p, err := meter.ParseName(text)
	return err == nil && p == n && !strings.ContainsFunc(text, unicode.IsSpace)
}

// slotsMatchParse runs eng over stream into one batch and holds every
// kept record to its line. It returns how many records hold only names a
// line spells, and how many do not.
func slotsMatchParse(t testing.TB, eng *Engine, stream []byte) (plain, odd int) {
	t.Helper()
	var b Batch
	if _, err := eng.ProcessBatch(stream, &b); err != nil {
		t.Fatal(err)
	}
	for i, r := range b.StoreRecs() {
		m := r.Meta
		if r.Slots == nil {
			t.Fatalf("record %d %+v %q went without its slots", i, m, r.Line)
		}
		var v trace.View
		v.PointAt(r.Slots, meter.Type(m.Type), int(m.Machine), int64(m.Time))
		if got := v.AppendLine(nil, 0); !bytes.Equal(got, r.Line) {
			t.Fatalf("record %d: the slots spell %q, the line is %q", i, got, r.Line)
		}
		keys, names := trace.SlotKeys(v.Type, v.Type.String())
		ok := true
		for k, key := range keys {
			ref := trace.NewFieldRef(key)
			if n, has := v.NameOf(&ref); has && names>>k&1 != 0 {
				ok = ok && spelled(n)
			}
		}
		if !ok {
			odd++
			continue
		}
		plain++
		ev, err := trace.ParseOne(r.Line)
		if err != nil || ev.Type != v.Type || ev.Machine != v.Machine || ev.CPUTime != v.CPUTime || ev.ProcTime != v.ProcTime {
			t.Fatalf("record %d: line %q reads %+v, %v", i, r.Line, ev, err)
		}
		for _, key := range keys {
			ref := trace.NewFieldRef(key)
			gn, gnok := v.NameOf(&ref)
			wn, wnok := ev.Names[key]
			gv, gok := r.Slots.Field(v.Type, slices.Index(keys, key))
			if wv, wok := ev.Fields[key]; gv != wv || gok != wok || gn != wn || gnok != wnok {
				t.Fatalf("record %d: line %q reads %s as %d, %v, %v, %v; the slots hold %d, %v, %v, %v", i, r.Line, key, wv, wok, wn, wnok, gv, gok, gn, gnok)
			}
		}
	}
	return plain, odd
}

// oddName builds a name from its family and the 14 bytes after it.
func oddName(family uint16, rest string) (n meter.Name) {
	binary.LittleEndian.PutUint16(n[:], family)
	copy(n[2:], rest)
	return n
}

// oddNames are socket names at the edge of what a standard line spells:
// one no standard line spells, or one the line spells without bytes the
// record holds.
var oddNames = []meter.Name{
	meter.UnixName("/a b"),                                // a blank: the line splits there
	meter.UnixName("/a\x80"),                              // past ASCII
	meter.UnixName("/a\tb"),                               // a control byte
	oddName(meter.AFInet, "\x00\x50\x01\x02\x03\x04junk"), // bytes past the host
	oddName(meter.AFUnix, "/ab\x00cd"),                    // bytes past a NUL
	oddName(meter.AFUnspec, "\x00\x01"),                   // unset, but not zero
	oddName(7, "\x01\x02"),                                // a family written in hex
	oddName(meter.AFUnix, ""),                             // an empty path
	meter.UnixName("/a=b"),
	meter.UnixName("/tmp/fourteen!"), // the whole 14 bytes
	meter.PairName(3),
	meter.InetName(0, 0),
}

// oddNameMessages puts every odd name in every name field of the standard
// event types, beside an ordinary name.
func oddNameMessages() [][]byte {
	inet := meter.InetName(228320140, 512)
	h := meter.Header{Machine: 3, CPUTime: 4000, ProcTime: 20}
	var msgs [][]byte
	for _, n := range oddNames {
		for _, body := range []meter.Body{
			&meter.Send{PID: 3, Sock: 4, MsgLength: 9, DestNameLen: 16, DestName: n},
			&meter.Recv{PID: 3, Sock: 4, MsgLength: 9, SourceNameLen: 16, SourceName: n},
			&meter.Connect{PID: 3, Sock: 4, SockNameLen: 16, PeerNameLen: 16, SockName: n, PeerName: inet},
			&meter.Accept{PID: 3, Sock: 4, NewSock: 5, SockNameLen: 16, PeerNameLen: 16, SockName: inet, PeerName: n},
		} {
			m := meter.Msg{Header: h, Body: body}
			msgs = append(msgs, m.AppendEncode(nil))
			h.CPUTime++
		}
	}
	return msgs
}

// typingStream is the corpus the typed hand-off is held to: every
// standard event type over the operator matrix's header and body values,
// and every odd name in every name field.
func typingStream() []byte {
	var stream []byte
	for _, raw := range append(corpusMessages(), oddNameMessages()...) {
		stream = append(stream, raw...)
	}
	return stream
}

// sendDescription is StandardDescriptions with its SEND line replaced.
func sendDescription(line string) string {
	std := strings.Split(StandardDescriptions, "\n")
	for i, l := range std {
		if strings.HasPrefix(l, "SEND ") {
			std[i] = line
		}
	}
	return strings.Join(std, "\n")
}

// TestSlotsMatchParseDescriptions holds the typed hand-off to the parse
// under description files other than the standard one that a field plan
// still expresses — fields dropped, narrowed to two bytes, or moved to
// other offsets — kept whole and under every rule set of the matrix.
func TestSlotsMatchParseDescriptions(t *testing.T) {
	for _, c := range []struct{ name, send string }{
		{"standard", "SEND 1, " + stdSend},
		{"subset order", "SEND 1, pid,0,4,10 msgLength,12,4,10 destName,20,16,16"},
		{"a two-byte field", "SEND 1, pid,0,2,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16"},
		{"moved and overlapping", "SEND 1, pid,16,4,10 sock,0,2,10 msgLength,1,4,8 destName,20,16,16"},
	} {
		stream := typingStream()
		for _, rules := range equivalenceRuleSets {
			eng, err := NewEngine([]byte(sendDescription(c.send)), []byte(rules))
			if err != nil {
				t.Fatalf("%s, rules %q: %v", c.name, rules, err)
			}
			slotsMatchParse(t, eng, stream)
			if rules != "" {
				continue
			}
			// The first record of the corpus is a SEND to an Internet name.
			var b Batch
			if _, err := eng.ProcessBatch(stream, &b); err != nil {
				t.Fatal(err)
			}
			if recs := b.StoreRecs(); recs[0].Meta.Type != uint32(meter.EvSend) || recs[0].Slots == nil {
				t.Fatalf("%s: first record %+v %q typed %v, want a SEND, typed", c.name, recs[0].Meta, recs[0].Line, recs[0].Slots != nil)
			}
		}
	}
}

// stdSend is the body of StandardDescriptions' SEND line.
const stdSend = "pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16"

// TestNewEngineRefusals: a description no field plan expresses stops the
// filter at start, with an error naming its line — each SEND line here
// is line 2 of its file, and what a rule would discard does not matter.
func TestNewEngineRefusals(t *testing.T) {
	for _, c := range []struct{ name, send string }{
		{"renamed event", "SENDTO 1, " + stdSend},
		{"another type's name", "RECEIVE 1, " + stdSend},
		{"a type trace does not know", "SEND 11, " + stdSend},
		{"a key out of the stored order", "SEND 1, " + stdSend + " hop,12,4,10"},
		{"a body field named after a header field", "SEND 1, pid,0,4,10 cpuTime,4,4,10 sock,8,4,10"},
		{"a key with an equals sign", "SEND 1, pid,0,4,10 sock=1,8,4,10"},
		{"fields out of order", "SEND 1, pc,4,4,10 pid,0,4,10 sock,8,4,10"},
		{"a repeated key", "SEND 1, " + stdSend + " pid,0,4,10"},
		{"a negative offset", "SEND 1, pid,-4,4,10"},
		{"an offset past the largest body", "SEND 1, pid,229,4,10"},
		{"an offset that wraps the reach", "SEND 1, pid,9223372036854775807,4,10"},
		{"a name offset that wraps the reach", "SEND 1, pid,0,4,10 destName,9223372036854775800,16,16"},
		{"a negative width", "SEND 1, pid,8,-4,10"},
		{"an eight-byte number", "SEND 1, pid,0,8,10"},
		{"a 16-byte number", "SEND 1, pid,0,4,10 pc,4,4,10 sock,20,16,16"},
		{"a four-byte name", "SEND 1, pid,0,4,10 destName,8,4,10"},
		{"a number in base 16", "SEND 1, pid,0,4,10 pc,4,4,16"},
		{"sixty more fields", "SEND 1, " + stdSend + strings.Repeat(" x,0,4,10", 60)},
	} {
		for _, rules := range []string{"", "pc=#*\nhop=#*\nx=#*\ncpuTime=#*"} {
			_, err := NewEngine([]byte(sendDescription(c.send)), []byte(rules))
			if err == nil || !strings.Contains(err.Error(), "descriptions line 2:") {
				t.Errorf("%s, rules %q: NewEngine error %v, want a refusal of descriptions line 2", c.name, rules, err)
			}
		}
	}
}

// randomDescriptions draws a descriptions file a field plan expresses:
// each standard event type, or most of them, with a subset of its stored
// order in that order, at offsets that may overlap, numbers two or four
// bytes wide in base 10 or 8.
func randomDescriptions(rng *rand.Rand) *Descriptions {
	text := "HEADER size machine cpuTime procTime traceType\n"
	for typ := meter.EvSend; typ <= meter.EvTermProc; typ++ {
		if rng.Intn(8) == 0 {
			continue
		}
		keys, names := trace.SlotKeys(typ, typ.String())
		fields := ""
		for k, key := range keys {
			switch {
			case rng.Intn(4) == 0:
			case names>>k&1 != 0:
				fields += fmt.Sprintf(" %s,%d,16,16", key, rng.Intn(40))
			default:
				fields += fmt.Sprintf(" %s,%d,%d,%d", key, rng.Intn(40), 2+2*rng.Intn(2), 8+2*rng.Intn(2))
			}
		}
		if fields != "" { // a line names one field at least
			text += fmt.Sprintf("%s %d,%s\n", typ, typ, fields)
		}
	}
	d, err := ParseDescriptions([]byte(text))
	if err != nil {
		panic(err)
	}
	return d
}

// recordingTap keeps what the engine taps: each kept record's Meta and
// the line its slots spell before the rule's discards.
type recordingTap struct {
	metas []store.Meta
	lines []string
}

func (r *recordingTap) TapRecord(m *store.Meta, s *trace.Slots) {
	r.metas = append(r.metas, *m)
	r.lines = append(r.lines, string(s.AppendLine(nil, meter.Type(m.Type), int(m.Machine), int64(m.Time))))
}

func (r *recordingTap) TapFlush() {}

// FuzzSlotsMatchParse holds the engine to the reference — Extract,
// Rules.Select, Record.Format (interp_test.go) — over random accepted
// description files, rule sets and meter messages: messages of the types
// the file describes, random bytes with socket names of every kind laid
// over the 16-byte fields, the last one at times cut short. A file the
// engine refuses is replaced by one drawn from the seed, and the rules
// get a few drawn from it too. Record for record, the engine keeps what
// the reference keeps, writes its line, gives its Meta, taps it whole,
// and hands the store the slots the reference's kept fields fill; and,
// as slotsMatchParse checks, the line is what those slots spell.
func FuzzSlotsMatchParse(f *testing.F) {
	f.Add(StandardDescriptions, "", int64(1))
	f.Add(StandardDescriptions, "machine=5, cpuTime<10000, msgLength=#*\ntype=8, sockName=peerName\n", int64(2))
	f.Add(sendDescription("SEND 1, pid,16,4,10 sock,0,2,10 msgLength,1,4,8 destName,20,16,16"), "pid=#*\nsock=#*", int64(3))
	f.Add("HEADER size\nCONNECT 7, pid,0,4,10 sockName,4,16,16 peerName,20,16,16\n", "sockName!=peerName, pid=#*\nsockName=peerName", int64(4))
	f.Add("HEADER size\nCONNECT 7, pid,0,4,10 sockName=unix:a,4,16,16\n", "", int64(5))
	// Beside the odd names, names that differ from two of them only past
	// the host or past a NUL: a name compare sees all sixteen bytes.
	names := append([]meter.Name{{}, meter.InetName(7, 80), meter.UnixName("/srv"), meter.UnixName("/a peerName=-"),
		oddName(meter.AFInet, "\x00\x50\x01\x02\x03\x04"), oddName(meter.AFUnix, "/ab")}, oddNames...)
	f.Fuzz(func(t *testing.T, desc, rules string, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseDescriptions([]byte(desc))
		if err == nil {
			_, err = CompileProgram(d, nil)
		}
		if err != nil {
			d = randomDescriptions(rng)
		}
		rs, err := ParseRules([]byte(rules + "\n" + randomRules(rng)))
		if err != nil {
			return
		}
		var described []*EventDesc
		for typ := meter.EvSend; typ <= meter.EvTermProc; typ++ {
			if ev, ok := d.Event(typ); ok {
				described = append(described, ev)
			}
		}
		if len(described) == 0 {
			return
		}
		var stream []byte
		var kept []*Record
		var discards []map[string]bool
		var refErr error
		for i := 0; i < 64 && refErr == nil; i++ {
			ev := described[rng.Intn(len(described))]
			size := 0
			for _, fd := range ev.Fields {
				size = max(size, fd.Offset+fd.Length)
			}
			body := make([]byte, size)
			rng.Read(body)
			for _, fd := range ev.Fields {
				if fd.Length == meter.NameSize && rng.Intn(4) > 0 {
					n := names[rng.Intn(len(names))]
					copy(body[fd.Offset:], n[:])
				}
			}
			if size > 0 && rng.Intn(32) == 0 {
				body = body[:rng.Intn(size)]
			}
			raw := make([]byte, meter.HeaderSize, meter.HeaderSize+len(body))
			binary.LittleEndian.PutUint32(raw[0:], uint32(meter.HeaderSize+len(body)))
			binary.LittleEndian.PutUint16(raw[4:], uint16(rng.Intn(4)))
			binary.LittleEndian.PutUint32(raw[8:], uint32(rng.Intn(1<<20)))
			binary.LittleEndian.PutUint32(raw[16:], uint32(rng.Intn(100)))
			binary.LittleEndian.PutUint32(raw[20:], uint32(ev.Type))
			raw = append(raw, body...)
			stream = append(stream, raw...)
			rec, err := d.Extract(raw)
			if refErr = err; err != nil {
				break
			}
			if keep, ds := rs.Select(rec); keep {
				kept, discards = append(kept, rec), append(discards, ds)
			}
		}

		eng := &Engine{prog: mustCompile(t, d, rs)}
		tap := new(recordingTap)
		eng.SetTap(tap)
		var b Batch
		_, err = eng.ProcessBatch(stream, &b)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("engine error %v, reference %v", err, refErr)
		}
		if b.Len() != len(kept) || len(tap.metas) != len(kept) {
			t.Fatalf("engine kept %d records and tapped %d, reference %d", b.Len(), len(tap.metas), len(kept))
		}
		for i, r := range b.StoreRecs() {
			rec := kept[i]
			pid, _ := rec.Field("pid")
			meta := store.Meta{Machine: rec.Machine, Time: rec.CPUTime, Type: uint32(rec.Type), PID: uint32(pid)}
			if line := rec.Format(discards[i]); string(r.Line) != line || r.Meta != meta {
				t.Fatalf("record %d: engine %+v %q, reference %+v %q", i, r.Meta, r.Line, meta, line)
			}
			if line := rec.Format(nil); tap.lines[i] != line || tap.metas[i] != meta {
				t.Fatalf("record %d: tapped %+v %q, reference %+v %q", i, tap.metas[i], tap.lines[i], meta, line)
			}
			var want trace.Slots
			want.Reset(int64(rec.ProcTime))
			keys, _ := trace.SlotKeys(rec.Type, rec.Event)
			for _, rf := range rec.Fields {
				if k := slices.Index(keys, rf.Name); discards[i][rf.Name] {
					continue
				} else if !rf.IsName {
					want.SetVal(k, rf.Value)
				} else {
					want.SetName(k, rf.Addr)
				}
			}
			var got, ref trace.View
			got.PointAt(&b.slots[i], rec.Type, int(rec.Machine), int64(rec.CPUTime))
			ref.PointAt(&want, rec.Type, int(rec.Machine), int64(rec.CPUTime))
			gotTyped, refTyped := got.AppendTyped(nil, new(trace.TypedState)), ref.AppendTyped(nil, new(trace.TypedState))
			if !bytes.Equal(gotTyped, refTyped) || r.Slots == nil {
				t.Fatalf("record %d %q: slots %x, reference %x", i, r.Line, gotTyped, refTyped)
			}
		}
		if refErr != nil {
			return
		}
		slotsMatchParse(t, eng, stream)
	})
}
