package trace

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// errTypedTest is what a cursor decodeTyped reads through fails with.
var errTypedTest = errors.New("typed record")

// decodeTyped runs DecodeTyped over raw and returns the bytes it took
// and whether it read a record.
func decodeTyped(v *View, raw []byte, st *TypedState, typ meter.Type, machine int, cpuTime int64) (int, bool) {
	c := obs.NewCursor(raw, errTypedTest)
	v.DecodeTyped(&c, st, typ, machine, cpuTime)
	return c.Off(), c.Err() == nil
}

// checkTypedRoundTrip encodes the record of a line the filter writes
// (viewOf) against enc and decodes it against dec — two states that must
// have seen the same records — and holds the decoded view to the encoded
// one: every field the same, and a rendered line that is the line. It
// returns the encoded size.
func checkTypedRoundTrip(t *testing.T, enc, dec *TypedState, line []byte) int {
	t.Helper()
	w := viewOf(t, line)
	raw := w.AppendTyped([]byte{0xEE}, enc)[1:]
	if raw[0]&typedShape == 0 {
		t.Fatalf("line %q: typed record starts with %#x, without its shape bit", line, raw[0])
	}
	// A dirty view, and bytes after the record: neither may show.
	r := viewOf(t, []byte("ACCEPT machine=9 cpuTime=9 procTime=9 pid=9 sockName=inet:9:9 peerName=unix:x"))
	n, ok := decodeTyped(r, append(raw[:len(raw):len(raw)], 0xFF, 0xFF), dec, w.Type, w.Machine, w.CPUTime)
	if !ok || n != len(raw) {
		t.Fatalf("line %q: DecodeTyped took %d of %d bytes, ok=%v", line, n, len(raw), ok)
	}
	if got := r.AppendLine(nil, 0); !bytes.Equal(got, line) {
		t.Fatalf("line %q rendered as %q", line, got)
	}
	keys := []string{"machine", "cpuTime", "procTime", "type", "traceType", "absent", ""}
	for _, vt := range viewTypes {
		keys = append(keys, vt.order...)
	}
	for _, k := range keys {
		gv, gok := r.Field(k)
		gn, gnok := r.NameField(k)
		if wv, wok := w.Field(k); gv != wv || gok != wok {
			t.Fatalf("line %q: Field(%q) = %d, %v decoded, %d, %v encoded", line, k, gv, gok, wv, wok)
		}
		if wn, wnok := w.NameField(k); gn != wn || gnok != wnok {
			t.Fatalf("line %q: NameField(%q) = %v, %v decoded, %v, %v encoded", line, k, gn, gnok, wn, wnok)
		}
	}
	if *enc != *dec {
		t.Fatalf("line %q: writer and reader state parted", line)
	}
	// Every proper prefix is a torn record, not a shorter one.
	for cut := 0; cut < len(raw); cut++ {
		st := *dec
		if n, ok := decodeTyped(r, raw[:cut], &st, w.Type, w.Machine, w.CPUTime); ok {
			t.Fatalf("line %q: the first %d of %d bytes decode as a record of %d", line, cut, len(raw), n)
		}
	}
	return len(raw)
}

func standardCorpus(tb testing.TB) []string {
	return append(canonicalCorpus(tb), strings.Split(strings.TrimSpace(sampleLog), "\n")...)
}

// TestTypedRoundTrip: every line the filter writes is standard, and its
// typed form decodes to the view the parse gives — first against an
// empty state, then against whatever the lines before left, in any
// interleaving of types.
func TestTypedRoundTrip(t *testing.T) {
	lines := standardCorpus(t)
	for _, line := range lines {
		var enc, dec TypedState
		checkTypedRoundTrip(t, &enc, &dec, []byte(line))
	}
	var enc, dec TypedState
	first, again := 0, 0
	for _, line := range lines {
		first += checkTypedRoundTrip(t, &enc, &dec, []byte(line))
	}
	for i := len(lines) - 1; i >= 0; i-- {
		again += checkTypedRoundTrip(t, &enc, &dec, []byte(lines[i]))
	}
	if again >= first {
		t.Errorf("the same lines again took %d bytes after %d: deltas buy nothing", again, first)
	}
	// The same record twice is flags + changed and nothing else.
	line := []byte(lines[0])
	checkTypedRoundTrip(t, &enc, &dec, line)
	if n := checkTypedRoundTrip(t, &enc, &dec, line); n != 2 {
		t.Errorf("a repeated record takes %d bytes, want 2", n)
	}
	// A name no line spells — a path with a blank, an unset name with a
	// byte set, a family written in hex — is kept whole, and renders as
	// AppendText writes it.
	for _, n := range []meter.Name{meter.UnixName("/tmp/a b"), {0, 0, 1, 2, 3}, {9, 0, 0xff}} {
		var s Slots
		s.Reset(0)
		s.SetName(5, n)
		var w, r View
		w.PointAt(&s, meter.EvSend, 1, 2)
		raw := w.AppendTyped(nil, &enc)
		if _, ok := decodeTyped(&r, raw, &dec, meter.EvSend, 1, 2); !ok {
			t.Fatalf("name %x does not decode", n)
		}
		if got, ok := r.NameField("destName"); !ok || got != n {
			t.Fatalf("name %x decoded as %x", n, got)
		}
		if got, want := r.AppendLine(nil, 0), "SEND machine=1 cpuTime=2 procTime=0 destName="+n.String(); string(got) != want {
			t.Fatalf("name %x rendered %q, want %q", n, got, want)
		}
	}
	// Extremes: every delta wraps or is as long as a varint gets.
	for _, line := range []string{
		"SEND machine=0 cpuTime=0 procTime=0 pid=18446744073709551615 pc=0 sock=9223372036854775808",
		"SEND machine=0 cpuTime=0 procTime=9223372036854775807 pid=0 pc=18446744073709551615 sock=1",
		"SEND machine=0 cpuTime=0 procTime=0 pid=1",
		"SEND machine=0 cpuTime=0 procTime=0",
		"SEND machine=0 cpuTime=0 procTime=0 destName=unix:",
		"SEND machine=0 cpuTime=0 procTime=0 destName=unix:fourteen.bytes",
		"SEND machine=0 cpuTime=0 procTime=0 destName=pair:=",
		"SEND machine=0 cpuTime=0 procTime=0 destName=inet:4294967295:65535",
	} {
		checkTypedRoundTrip(t, &enc, &dec, []byte(line))
	}
}

// TestDecodeTypedRefuses: bytes a writer cannot have produced are
// refused, and the view is left as it was.
func TestDecodeTypedRefuses(t *testing.T) {
	name := func(n meter.Name) string { return string(n[:]) }
	for _, c := range []struct {
		what string
		typ  meter.Type
		raw  string
	}{
		{"empty", meter.EvSend, ""},
		{"flags only", meter.EvSend, "\x01"},
		{"the text shape", meter.EvSend, "\x00\x00"},
		{"an even shape byte", meter.EvSend, "\x02\x00\x00"},
		{"unknown flag", meter.EvSend, "\x09\x00"},
		{"type 0", 0, "\x01\x00"},
		{"type 11", 11, "\x01\x00"},
		{"a field FORK has not", meter.EvFork, "\x03\x08\x00"},
		{"changed but absent", meter.EvSend, "\x03\x01\x02\x02"},
		{"changed in an empty block", meter.EvSend, "\x01\x01\x02"},
		{"procTime below zero", meter.EvSend, "\x05\x00\x01"},
		{"procTime cut", meter.EvSend, "\x05\x00"},
		{"number cut", meter.EvSend, "\x03\x01\x01\x80"},
		{"number too long", meter.EvSend, "\x03\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
		{"name cut", meter.EvSend, "\x03\x20\x20" + name(meter.InetName(1, 2))[:15]},
	} {
		var v View
		var st TypedState
		if n, ok := decodeTyped(&v, []byte(c.raw), &st, c.typ, 1, 2); ok {
			t.Errorf("%s: decoded %d bytes as %q", c.what, n, v.AppendLine(nil, 0))
		} else if v.slot != nil {
			t.Errorf("%s: refused, but the view points at it", c.what)
		}
	}
}

// TestTypedZeroAllocs: encoding a record, decoding it and rendering
// its line allocate nothing.
func TestTypedZeroAllocs(t *testing.T) {
	var views []*View
	for _, l := range standardCorpus(t) {
		views = append(views, viewOf(t, []byte(l)))
	}
	var r View
	var enc, dec TypedState
	buf, out := make([]byte, 0, 256), make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for _, w := range views {
			buf = w.AppendTyped(buf[:0], &enc)
			if _, ok := decodeTyped(&r, buf, &dec, w.Type, w.Machine, w.CPUTime); !ok {
				t.Fatalf("record %q does not decode", w.AppendLine(nil, 0))
			}
			out = r.AppendLine(out[:0], 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per %d typed round trips, want 0", allocs, len(views))
	}
}

// FuzzViewAppendLine holds the rendering to the parser on arbitrary
// bytes. A line ParseOne reads with a header a meter message can carry,
// typed as the filter types a record
// (slotsOf), renders a line that renders itself again, that ParseOne
// reads back with every field the view gives, and whose record survives
// its typed form exactly.
func FuzzViewAppendLine(f *testing.F) {
	for _, line := range standardCorpus(f) {
		f.Add([]byte(line))
		for _, v := range lineSpellings(line) {
			f.Add([]byte(v))
		}
	}
	for _, line := range quirkLines {
		f.Add([]byte(line))
	}
	f.Add([]byte("SEND destName=unix:a\x00b pid=0x10"))
	f.Add([]byte("CONNECT machine=1 peerName=inet:+1:2 sockName=unspec:01"))
	f.Add([]byte("SEND cpuTime=-5 procTime=-1 machine=-2"))
	f.Fuzz(func(t *testing.T, line []byte) {
		// A meter message's header fields are unsigned.
		if ev, err := ParseOne(line); err != nil || ev.Machine < 0 || ev.CPUTime < 0 || ev.ProcTime < 0 {
			return
		}
		out := viewOf(t, line).AppendLine(nil, 0)
		v := viewOf(t, out)
		if again := v.AppendLine(nil, 0); !bytes.Equal(again, out) {
			t.Fatalf("line %q renders %q, which renders %q", line, out, again)
		}
		ev, _ := ParseOne(out)
		for _, key := range append([]string{"machine", "cpuTime", "procTime"}, viewTypes[v.Type].order...) {
			gv, gok := v.Field(key)
			if wv, wok := eventField(&ev, key); gv != wv || gok != wok {
				t.Fatalf("line %q renders %q: Field(%q) = %d, %v; ParseOne reads %d, %v", line, out, key, gv, gok, wv, wok)
			}
		}
		var enc, dec TypedState
		checkTypedRoundTrip(t, &enc, &dec, out)
		checkTypedRoundTrip(t, &enc, &dec, out)
	})
}

// lineSpellings derives from one line the filter writes other spellings
// ParseOne reads: header and body keys out of order, keys the type does
// not have, keys repeated, a name token repeated under other keys.
func lineSpellings(line string) []string {
	toks := strings.Split(line, " ")
	typ, header, body := toks[0], toks[1:4], toks[4:]
	join := func(parts ...[]string) string {
		out := []string{typ}
		for _, p := range parts {
			out = append(out, p...)
		}
		return strings.Join(out, " ")
	}
	reversed := func(in []string) []string {
		out := slices.Clone(in)
		slices.Reverse(out)
		return out
	}
	name := "-"
	for _, tok := range body {
		if _, val, _ := strings.Cut(tok, "="); looksLikeName(val) {
			name = val
		}
	}
	last, _, _ := strings.Cut(body[len(body)-1], "=")
	long := "unix:" + strings.Repeat("p", 24)
	return []string{
		join(reversed(header), body),
		join(body, header),
		join(header[:1], body[:1], header[1:], body[1:]),
		join(header, reversed(body)),
		join(header, body[1:], body[:1]),
		join(header, body[:1], []string{"between=1"}, body[1:]),
		join(header, body[:1], []string{"pidX=1", "p=2", "pi=3"}, body[1:]),
		join(header, []string{last + "=1"}, body),
		join(header, body, body[:1]),
		join(header, body, []string{"pid=1"}),
		join(header, body, header[2:]),
		join(header, body, []string{"again=" + name}),
		join(header, body, []string{"again=" + name, "and=" + name + "0"}),
		join(header, body, []string{"n1=inet:7:90", "n2=inet:7:91", "n3=inet:7:9", "n4=inet:7:91"}),
		join(header, body, []string{"l1=" + long, "l2=" + long, "l3=" + long + "q", "s1=unix:p", "s2=unix:p"}),
	}
}

// quirkLines are lines on which a parser could part ways with ParseOne,
// some of them lines ParseOne refuses.
var quirkLines = []string{
	"SEND",
	"SEND pid=0",
	"SEND pid=18446744073709551615",
	"SEND machine=9223372036854775807 cpuTime=9223372036854775807",
	"SOCKET machine=1 type=2 traceType=9 pid=3", // header type shadows the body's
	"SEND destName=inet:7:9 pid=1",              // inet name: host is the value
	"SEND destName=- a=unix: b=pair:x c=unix:a=b",
	"SEND a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8 i=9 j=10 k=11 l=12 m=13 n=14 o=15 p=16",
	"SEND a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8 i=9 j=10 k=11 l=12 m=13 n=14 o=15 p=16 q=17",
	"SEND pid=18446744073709551616",
	"SEND pid=99999999999999999999",
	"SEND machine=9223372036854775808",
	"SEND cpuTime=-5 procTime=+5 machine=007",
	"SEND pid=1 pid=2",
	"SEND x=5 x=inet:1:2",
	"SEND x=inet:1:2 x=5",
	"SEND x=inet:1:2 x=-",
	"SEND machine=1 machine=2",
	"SEND pid=0x10 pc=010 sock=0b11 n=1_000",
	"SEND destName=inet:1:2junk",
	"SEND destName=inet:+1:2 peer=inet:01:2",
	"SEND destName=inet:4294967296:1",
	"SEND destName=unspec:00",
	"SEND destName=unix:a\x00b",
	"SEND destName=unix:caf\u00e9",
	" SEND pid=1",
	"SEND pid=1 ",
	"SEND  pid=1",
	"SEND\tpid=1",
	"SEND\u00a0pid=1",
	"SEND\u2003pid=1 sock=2",
	"SEND pid=1\u0085sock=2",
	"SEND pid=1\r",
	"SEND pid",
	"SEND =1",
	"SEND pid=",
	"SEND pid==1",
	"SEND machine=- pid=1",
	"SEND machine=inet:1:2",
	"send pid=1",
	"SENDX pid=1",
	"",
	" ",
	// Keys of the type's order, and keys that only look like one.
	"SEND machine=1 cpuTime=2 procTime=3 pid=4 pc=5 sock=6",
	"SEND procTime=1 machine=2 cpuTime=3 pid=4",
	"SEND sock=1 pid=2 pc=3",
	"SEND sock=1 pid=2 sock=3",
	"SEND msgLength=1 msgLength=2 x=3333333",
	"SEND msgLengthX=1 msgLength=2 destNameLen=33",
	"SEND destNameLe=1 destNameLen=2 destName=- destNam=3",
	"SEND machine=1 cpuTime=2 machine=3 pid=44444444",
	"SEND machine=1 pid=2 machine=3",
	"SEND machine=18446744073709551615 pid=11111111",
	"SEND machine= cpuTime=2",
	"SEND machine=1x cpuTime=2",
	"SEND machine=1  cpuTime=2",
	"SEND pid=0 pc=0 sock=00000000",
	"SEND pid=0 pc=0 sock=0",
	"SEND pid=18446744073709551615 pc=18446744073709551615 sock=9999999999999999999",
	"SEND pid=28446744073709551615 pc=1",
	"SEND pid=184467440737095516150 pc=1",
	"SEND pid=08446744073709551615 pc=1",
	"SEND msgLength=12345678901234567890123 pc=1",
	// A name token repeated, and ones that only start alike.
	"SEND a=inet:1:2 b=inet:1:2 c=inet:1:3 d=inet:1:2",
	"SEND a=inet:1:2 b=inet:1:2x",
	"SEND a=inet:1:2 b=inet:1:",
	"SEND a=inet:9:9 b=inet:9:90", // a name token, and one more byte
	"SEND a=- b=- c=-x",
	"SEND a=unix: b=unix: c=unix:unix:",
	"SEND a=unix:ppppppppppppppppppppppppppp b=unix:ppppppppppppppppppppppppppp c=unix:p",
}
