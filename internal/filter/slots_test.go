package filter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// The filter hands the store a kept record typed (BatchRec.Slots) instead
// of letting the store parse its line back, so the exactness the store
// used to prove per record at stage is proved here: a record goes typed
// exactly when trace.View.ParseStandard accepts its line with the
// record's Meta as the header, and its typed form is byte for byte what
// the store made of the parse.

// slotsMatchParse runs eng over stream into one batch and holds every
// kept record to the parse of its line, with AppendTyped run against one
// state per side that moves on record by record, as a block's does. A
// record for which ambiguous says its line spells another record (a blank
// in a name, an '=' in a field name) may go as text when its line is
// standard. It returns how many records went each way.
func slotsMatchParse(t testing.TB, eng *Engine, stream []byte, ambiguous func(i int) bool) (typed, text int) {
	t.Helper()
	var b Batch
	if _, err := eng.ProcessBatch(stream, &b); err != nil {
		t.Fatal(err)
	}
	var fromSlots, fromParse trace.TypedState
	for i, r := range b.StoreRecs() {
		var parsed, slotted trace.View
		m := r.Meta
		std := parsed.ParseStandard(r.Line) &&
			parsed.Machine == int(m.Machine) && parsed.CPUTime == int64(m.Time) && uint32(parsed.Type) == m.Type
		if r.Slots == nil {
			if std && (ambiguous == nil || !ambiguous(i)) {
				t.Fatalf("record %d %+v: line %q is standard, the record went as text", i, m, r.Line)
			}
			text++
			continue
		}
		if !std {
			t.Fatalf("record %d %+v: typed, but line %q is not standard", i, m, r.Line)
		}
		typed++
		slotted.PointAt(r.Slots, meter.Type(m.Type), int(m.Machine), int64(m.Time))
		got, want := slotted.AppendTyped(nil, &fromSlots), parsed.AppendTyped(nil, &fromParse)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d %q: typed form %x from the slots, %x from the parse", i, r.Line, got, want)
		}
		if got := slotted.AppendLine(nil, nil); !bytes.Equal(got, r.Line) {
			t.Fatalf("record %d: the slots spell %q, the line is %q", i, got, r.Line)
		}
	}
	return typed, text
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
// under description files that break each rule a plan decides at
// compile time, with the breaking field kept and, where a rule can
// discard it, discarded: whether the SEND records go typed follows.
func TestSlotsMatchParseDescriptions(t *testing.T) {
	const stdSend = "pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16"
	wide := "SEND 1, " + stdSend + strings.Repeat(" x,0,4,10", 60)
	for _, c := range []struct {
		name, send, rules string
		typed             bool
	}{
		{"standard", "SEND 1, " + stdSend, "", true},
		{"renamed event", "SENDTO 1, " + stdSend, "", false},
		{"another type's name", "RECEIVE 1, " + stdSend, "", false},
		{"reordered fields", "SEND 1, pc,4,4,10 pid,0,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16", "", false},
		{"reordered, one discarded", "SEND 1, pc,4,4,10 pid,0,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16", "pc=#*", true},
		{"subset order", "SEND 1, pid,0,4,10 msgLength,12,4,10 destName,20,16,16", "", true},
		{"a key out of the stored order, kept", "SEND 1, " + stdSend + " hop,12,4,10", "", false},
		{"a key out of the stored order, discarded", "SEND 1, " + stdSend + " hop,12,4,10", "hop=#*", true},
		{"a repeated key", "SEND 1, " + stdSend + " pid,0,4,10", "", false},
		{"a hex field, kept", "SEND 1, pid,0,4,10 pc,4,4,16 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16", "", false},
		{"a hex field, discarded", "SEND 1, pid,0,4,10 pc,4,4,16 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16", "pc=#*", true},
		{"a two-byte field", "SEND 1, pid,0,2,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16", "", true},
		{"a 16-byte field under a key not ending in Name", "SEND 1, pid,0,4,10 pc,4,4,10 sock,20,16,16", "", false},
		{"a number under a key ending in Name", "SEND 1, pid,0,4,10 destName,8,4,10", "", false},
		{"a body field named cpuTime, kept", "SEND 1, pid,0,4,10 cpuTime,4,4,10 sock,8,4,10", "", false},
		{"a body field named cpuTime, discarded", "SEND 1, pid,0,4,10 cpuTime,4,4,10 sock,8,4,10", "cpuTime=#*", true},
		{"a body field named machine, kept", "SEND 1, machine,0,4,10 pc,4,4,10", "", false},
		{"a key with an equals sign", "SEND 1, pid,0,4,10 sock=1,8,4,10", "", false},
		{"a wide plan", wide, "", false},
		{"a wide plan, its extra keys discarded", wide, "x=#*", true},
	} {
		eng, err := NewEngine([]byte(sendDescription(c.send)), []byte(c.rules))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		stream := typingStream()
		slotsMatchParse(t, eng, stream, nil)
		// Whether the SEND records with an ordinary name go typed: the
		// first of the corpus has an Internet destination.
		var b Batch
		if _, err := eng.ProcessBatch(stream, &b); err != nil {
			t.Fatal(err)
		}
		recs := b.StoreRecs()
		if recs[0].Meta.Type != uint32(meter.EvSend) || (recs[0].Slots != nil) != c.typed {
			t.Fatalf("%s: first record %+v %q typed %v, want %v", c.name, recs[0].Meta, recs[0].Line, recs[0].Slots != nil, c.typed)
		}
		for _, rules := range equivalenceRuleSets {
			eng, err := NewEngine([]byte(sendDescription(c.send)), []byte(rules))
			if err != nil {
				t.Fatalf("%s, rules %q: %v", c.name, rules, err)
			}
			slotsMatchParse(t, eng, stream, nil)
		}
	}
}

// FuzzSlotsMatchParse holds the typed hand-off to the parse over random
// description files, rule sets and meter messages: messages of the types
// the file describes, random bytes with socket names of every kind laid
// over the 16-byte fields. A line that spells another record than its
// own — a blank in a name, an '=' in a field name — may be standard and
// go as text: its record is not what the line says.
func FuzzSlotsMatchParse(f *testing.F) {
	f.Add(StandardDescriptions, "", int64(1))
	f.Add(StandardDescriptions, "machine=5, cpuTime<10000, msgLength=#*\ntype=8, sockName=peerName\n", int64(2))
	f.Add(sendDescription("SEND 1, pc,4,4,10 pid,0,4,10 sock,20,16,16 hop,8,4,16"), "hop=#*\npc=#*", int64(3))
	f.Add("HEADER size\nCONNECT 7, pid,0,4,10 sockName,4,16,16 peerName,20,16,16 x,0,2,10\n", "x=#*", int64(4))
	f.Add("HEADER size\nCONNECT 7, pid,0,4,10 sockName=unix:a,4,16,16\n", "", int64(5))
	names := append([]meter.Name{{}, meter.InetName(7, 80), meter.UnixName("/srv"), meter.UnixName("/a peerName=-")}, oddNames...)
	f.Fuzz(func(t *testing.T, desc, rules string, seed int64) {
		d, err := ParseDescriptions([]byte(desc))
		if err != nil {
			return
		}
		for _, ev := range d.events {
			for _, fd := range ev.Fields {
				if fd.Offset < 0 || fd.Length < 0 || fd.Offset+fd.Length > 512 {
					return // messages that large are not what this is about
				}
			}
		}
		rs, err := ParseRules([]byte(rules))
		if err != nil {
			return
		}
		var described []*EventDesc
		for typ := meter.Type(0); typ < 16; typ++ {
			if ev, ok := d.Event(typ); ok {
				described = append(described, ev)
			}
		}
		if len(described) == 0 {
			return
		}
		prog := CompileProgram(d, rs)
		rng := rand.New(rand.NewSource(seed))
		var stream []byte
		var kept []*Record
		var discards []map[string]bool
		for i := 0; i < 64; i++ {
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
			raw := make([]byte, meter.HeaderSize, meter.HeaderSize+len(body))
			binary.LittleEndian.PutUint32(raw[0:], uint32(meter.HeaderSize+len(body)))
			binary.LittleEndian.PutUint16(raw[4:], uint16(rng.Intn(4)))
			binary.LittleEndian.PutUint32(raw[8:], uint32(rng.Intn(1<<20)))
			binary.LittleEndian.PutUint32(raw[16:], uint32(rng.Intn(100)))
			binary.LittleEndian.PutUint32(raw[20:], uint32(ev.Type))
			raw = append(raw, body...)
			rec := new(Record)
			if _, err := prog.ExtractInto(rec, raw); err != nil {
				break
			}
			stream = append(stream, raw...)
			if keep, ds := rs.Select(rec); keep {
				kept, discards = append(kept, rec), append(discards, ds)
			}
		}
		slotsMatchParse(t, &Engine{desc: d, rules: rs, prog: prog}, stream, func(i int) bool {
			for _, fd := range kept[i].Fields {
				if !discards[i][fd.Name] && (strings.Contains(fd.Name, "=") ||
					fd.IsName && bytes.IndexByte(fd.Addr.AppendText(nil), ' ') >= 0) {
					return true
				}
			}
			return false
		})
	})
}

// TestStoreBytesWithAndWithoutSlots: one generated meter stream through
// a Pipeline into two stores, the second fed by an engine whose plans
// type nothing — every record crossing as text, for the store to parse,
// which is the path before the hand-off. Every segment file is the same
// bytes, sealed, compacted and archived, and so are the shape counters;
// and each side's counters balance (checkConservation).
func TestStoreBytesWithAndWithoutSlots(t *testing.T) {
	var streams [2][]byte // one per source
	rng := rand.New(rand.NewSource(26))
	corpus, odd := corpusMessages(), oddNameMessages()
	for i := 0; i < 3000; i++ {
		raw := corpus[rng.Intn(len(corpus))]
		if rng.Intn(20) == 0 {
			raw = odd[rng.Intn(len(odd))]
		}
		// A random machine and a clock that advances, so that records
		// spread over the shards and segments go cold.
		raw = append([]byte(nil), raw...)
		binary.LittleEndian.PutUint16(raw[4:], uint16(rng.Intn(6)))
		binary.LittleEndian.PutUint32(raw[8:], uint32(i*7))
		streams[i%2] = append(streams[i%2], raw...)
	}
	run := func(eng *Engine) (*store.MemBackend, map[string]int64) {
		be, reg := store.NewMemBackend(), obs.NewRegistry()
		st, err := store.Open(be, store.Config{Shards: 3, SegmentCap: 4 << 10, ArchiveAfter: 2000, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		pipe := NewPipeline(eng, PipelineConfig{Workers: 1, Obs: reg}, Sinks{Store: st}, nil)
		// Chunks that split frames, the sources taking turns from one
		// goroutine: the one worker sees the same chunks in the same order
		// on both runs.
		srcs := []*Source{pipe.NewSource(), pipe.NewSource()}
		var offs [2]int
		for n := 0; offs[0] < len(streams[0]) || offs[1] < len(streams[1]); n++ {
			s := n % 2
			end := min(offs[s]+97+n%300, len(streams[s]))
			if !srcs[s].Feed(append([]byte(nil), streams[s][offs[s]:end]...)) {
				t.Fatal("pipeline refused feed")
			}
			offs[s] = end
		}
		pipe.Close()
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		checkConservation(t, reg, 0)
		counters := map[string]int64{}
		for _, name := range []string{"store.records_typed", "store.records_text", "store.archive_runs", "store.compactions"} {
			counters[name] = reg.Counter(name).Load()
		}
		return be, counters
	}
	typedBE, typedCounts := run(mustEngine(t, "machine>=3, pid=#*\npc>0\n"))
	textBE, textCounts := run(untyped(mustEngine(t, "machine>=3, pid=#*\npc>0\n")))
	if fmt.Sprint(typedCounts) != fmt.Sprint(textCounts) {
		t.Fatalf("counters with slots %v, without %v", typedCounts, textCounts)
	}
	if typedCounts["store.records_typed"] == 0 || typedCounts["store.records_text"] == 0 || typedCounts["store.archive_runs"] == 0 {
		t.Fatalf("counters %v: the stream is meant to store both shapes and archive", typedCounts)
	}
	var names, textNames []string
	typedList, _ := typedBE.List()
	textList, _ := textBE.List()
	for _, e := range typedList {
		names = append(names, e.Name)
	}
	for _, e := range textList {
		textNames = append(textNames, e.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(textNames) {
		t.Fatalf("segments with slots %v, without %v", names, textNames)
	}
	for _, name := range names {
		a, _ := typedBE.Read(name)
		b, _ := textBE.Read(name)
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %s: %d bytes with slots, %d without, and they differ", name, len(a), len(b))
		}
	}
}

// mustEngine builds an engine over the standard descriptions.
func mustEngine(t *testing.T, rules string) *Engine {
	t.Helper()
	eng, err := NewEngine([]byte(StandardDescriptions), []byte(rules))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// untyped makes eng type nothing: every plan's typed plan is emptied, so
// its batches hand the store text only.
func untyped(eng *Engine) *Engine {
	for _, pl := range eng.prog.plans {
		if pl != nil {
			pl.keepAll.typed = typedPlan{}
			for i := range pl.rules {
				pl.rules[i].typed = typedPlan{}
			}
		}
	}
	return eng
}
