package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dpm/internal/meter"
)

// checkTypedRoundTrip encodes a standard line against enc and decodes
// it against dec — two states that must have seen the same records —
// and holds the decoded view to the parsed one: the same event, and a
// regenerated line that is the line. It returns the encoded size.
func checkTypedRoundTrip(t *testing.T, enc, dec *TypedState, line []byte) int {
	t.Helper()
	var w, r View
	if !w.ParseStandard(line) {
		t.Fatalf("line %q is not standard", line)
	}
	raw := w.AppendTyped([]byte{0xEE}, enc)[1:]
	if raw[0]&typedShape == 0 {
		t.Fatalf("line %q: typed record starts with %#x, which reads as the text shape", line, raw[0])
	}
	// A dirty view, and bytes after the record: neither may show.
	if !r.ParseStandard([]byte("ACCEPT machine=9 cpuTime=9 procTime=9 pid=9 sockName=inet:9:9 peerName=unix:x")) {
		t.Fatal("warm-up line is not standard")
	}
	n, ok := r.DecodeTyped(append(raw[:len(raw):len(raw)], 0xFF, 0xFF), dec, w.Type, w.Machine, w.CPUTime)
	if !ok || n != len(raw) {
		t.Fatalf("line %q: DecodeTyped took %d of %d bytes, ok=%v", line, n, len(raw), ok)
	}
	checkLazyView(t, &r)
	if got := r.AppendLine(nil, nil); !bytes.Equal(got, line) {
		t.Fatalf("line %q regenerated as %q", line, got)
	}
	if got, want := r.Event(), w.Event(); !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\ndecoded %+v\nparsed  %+v", line, got, want)
	}
	for _, k := range []string{"pid", "msgLength", "destName", "peerName", "machine", "procTime", "type", "absent"} {
		gv, gok := r.Field(k)
		gn, gnok := r.NameField(k)
		if wv, wok := w.Field(k); gv != wv || gok != wok {
			t.Fatalf("line %q: Field(%q) = %d, %v decoded, %d, %v parsed", line, k, gv, gok, wv, wok)
		}
		if wn, wnok := w.NameField(k); gn != wn || gnok != wnok {
			t.Fatalf("line %q: NameField(%q) = %v, %v decoded, %v, %v parsed", line, k, gn, gnok, wn, wnok)
		}
	}
	if *enc != *dec {
		t.Fatalf("line %q: writer and reader state parted", line)
	}
	// Every proper prefix is a torn record, not a shorter one.
	for cut := 0; cut < len(raw); cut++ {
		st := *dec
		if n, ok := r.DecodeTyped(raw[:cut], &st, w.Type, w.Machine, w.CPUTime); ok {
			t.Fatalf("line %q: the first %d of %d bytes decode as a record of %d", line, cut, len(raw), n)
		}
	}
	return len(raw)
}

// checkLazyView holds a view DecodeTyped read, and nothing has filled
// yet, to a copy of it forced to fill: Field, FieldOf and NameField give
// the same answer for every key of every type, the header names,
// traceType, a foreign key and "", without filling the view; Event,
// AppendLine and AppendTyped, each the first thing asked of a
// fresh copy, give the same bytes.
func checkLazyView(t *testing.T, lazy *View) {
	t.Helper()
	if lazy.slot == nil {
		t.Fatal("DecodeTyped left the view filled")
	}
	filled := *lazy
	filled.fill()
	keys := []string{"machine", "cpuTime", "procTime", "type", "traceType", "noSuchKey", ""}
	for _, vt := range viewTypes {
		keys = append(keys, vt.order...)
	}
	for _, k := range keys {
		ref := NewFieldRef(k)
		lv, lok := lazy.Field(k)
		rv, rok := lazy.FieldOf(&ref)
		fv, fok := filled.Field(k)
		if lv != fv || lok != fok || rv != fv || rok != fok {
			t.Fatalf("%q: Field(%q) = %d, %v and FieldOf %d, %v lazy; %d, %v filled", filled.AppendLine(nil, nil), k, lv, lok, rv, rok, fv, fok)
		}
		ln, lnok := lazy.NameField(k)
		if fn, fnok := filled.NameField(k); ln != fn || lnok != fnok {
			t.Fatalf("%q: NameField(%q) = %v, %v lazy, %v, %v filled", filled.AppendLine(nil, nil), k, ln, lnok, fn, fnok)
		}
	}
	if lazy.slot == nil {
		t.Fatal("asking a field filled the view")
	}
	var enc1, enc2 TypedState
	for what, same := range map[string]func(c *View) bool{
		"Event":       func(c *View) bool { return reflect.DeepEqual(c.Event(), filled.Event()) },
		"AppendLine":  func(c *View) bool { return bytes.Equal(c.AppendLine(nil, nil), filled.AppendLine(nil, nil)) },
		"AppendTyped": func(c *View) bool { return bytes.Equal(c.AppendTyped(nil, &enc1), filled.AppendTyped(nil, &enc2)) },
	} {
		if c := *lazy; !same(&c) {
			t.Fatalf("%q: %s differs between the lazy view and the filled one", filled.AppendLine(nil, nil), what)
		}
	}
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

// TestParseStandardRefuses: lines the view reads, most of them in
// place, that the typed form cannot carry exactly.
func TestParseStandardRefuses(t *testing.T) {
	for _, line := range []string{
		"SEND machine=1 cpuTime=2 procTime=3 pid=4 extra=5", // a foreign key
		"SEND machine=1 cpuTime=2 procTime=3 pc=4 pid=5",    // stored order
		"SEND machine=1 cpuTime=2 procTime=3 pid=4 pid=5",   // a repeated key
		"SEND machine=1 cpuTime=2 pid=4",                    // header not whole
		"SEND cpuTime=2 machine=1 procTime=3 pid=4",         // header out of order
		"SEND machine=1 cpuTime=2 pid=4 procTime=3",         // header out of place
		"SEND pid=4", // no header
		"SEND machine=1 cpuTime=2 procTime=3 pid=0x4",                       // hex
		"SEND machine=1 cpuTime=2 procTime=3 pid=04",                        // octal
		"SEND machine=1 cpuTime=2 procTime=3 pid=inet:1:2",                  // a name where a number goes
		"SEND machine=1 cpuTime=2 procTime=3 destName=7",                    // a number where a name goes
		"SEND machine=1 cpuTime=2 procTime=3 destName=unix:fifteen...bytes", // cut to fourteen
		"SEND machine=1 cpuTime=2 procTime=3 destName=inet:1:2x",
		"SEND machine=1 cpuTime=2 procTime=3 pid=99999999999999999999",
		"SEND machine=1 cpuTime=2 procTime=3 pid=4 ",
		" SEND machine=1 cpuTime=2 procTime=3 pid=4",
		"SEND machine=1 cpuTime=2 procTime=3  pid=4",
		"FORK machine=1 cpuTime=2 procTime=3 pid=4 pc=5 sock=6", // another type's key
		"NOT A TRACE LINE",
		"",
	} {
		var v View
		if v.ParseStandard([]byte(line)) {
			t.Errorf("line %q taken as standard", line)
		}
	}
}

// TestDecodeTypedRefuses: bytes a writer cannot have produced, a name
// no standard line spells among them, are refused by DecodeTyped itself
// and not when a lazy view is filled.
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
		{"name of no family", meter.EvSend, "\x03\x20\x20" + name(meter.Name{3})},
		{"unset name with a byte set", meter.EvSend, "\x03\x20\x20" + name(meter.Name{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})},
		{"Internet name with a tail", meter.EvSend, "\x03\x20\x20" + name(meter.Name{2, 0, 0, 0, 0, 0, 0, 0, 0, 1})},
		{"path with a blank", meter.EvSend, "\x03\x20\x20" + name(meter.UnixName("a b"))},
		{"path with a high byte", meter.EvSend, "\x03\x20\x20" + name(meter.UnixName("a\xc2\xa0b"))},
		{"path past its NUL", meter.EvSend, "\x03\x20\x20" + name(meter.Name{1, 0, 'a', 0, 'b'})},
	} {
		var v View
		var st TypedState
		if n, ok := v.DecodeTyped([]byte(c.raw), &st, c.typ, 1, 2); ok {
			t.Errorf("%s: decoded %d bytes as %q", c.what, n, v.AppendLine(nil, nil))
		} else if v.slot != nil {
			t.Errorf("%s: refused, but left to a later fill", c.what)
		}
	}
}

// TestTypedZeroAllocs: parsing a standard line, the regenerate check,
// encoding, decoding and regenerating allocate nothing.
func TestTypedZeroAllocs(t *testing.T) {
	var lines [][]byte
	for _, l := range standardCorpus(t) {
		lines = append(lines, []byte(l))
	}
	var w, r View
	var enc, dec TypedState
	buf, out := make([]byte, 0, 256), make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		for _, line := range lines {
			if !w.ParseStandard(line) {
				t.Fatalf("line %q is not standard", line)
			}
			buf = w.AppendTyped(buf[:0], &enc)
			if _, ok := r.DecodeTyped(buf, &dec, w.Type, w.Machine, w.CPUTime); !ok {
				t.Fatalf("line %q does not decode", line)
			}
			out = r.AppendLine(out[:0], nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per %d typed round trips, want 0", allocs, len(lines))
	}
}

// FuzzViewAppendLine holds AppendLine to the parser on arbitrary bytes.
// Whatever the view reads in place it writes back as a line that reads
// the same; where Event.AppendFormat — the other formatter, which knows
// nothing of views — gives the input back, so does AppendLine; and a
// line ParseStandard accepts survives its typed form exactly.
func FuzzViewAppendLine(f *testing.F) {
	for _, line := range standardCorpus(f) {
		f.Add([]byte(line))
		for _, q := range lineVariants(line) {
			f.Add([]byte(q.line))
		}
	}
	for _, q := range viewQuirks {
		f.Add([]byte(q.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var v View
		if !v.parseCanonical(line) {
			if v.ParseStandard(line) {
				t.Fatalf("line %q is standard but not read in place", line)
			}
			return
		}
		want, err := ParseOne(line)
		if err != nil {
			t.Fatalf("line %q read in place, ParseOne: %v", line, err)
		}
		out := v.AppendLine(nil, nil)
		if got, err := ParseOne(out); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("line %q written back as %q, which reads %+v (%v), not %+v", line, out, got, err, want)
		}
		if formatted := want.AppendFormat(nil); bytes.Equal(formatted, line) && !bytes.Equal(out, line) {
			t.Fatalf("line %q is what Event.AppendFormat writes, AppendLine writes %q", line, out)
		}
		if v.ParseStandard(line) {
			var enc, dec TypedState
			checkTypedRoundTrip(t, &enc, &dec, line)
			checkTypedRoundTrip(t, &enc, &dec, line)
		} else if bytes.Equal(out, line) {
			// Exact, and still refused: only for a key or a kind of value
			// the type's stored order does not have.
			standard := true
			for i := 0; i < v.n; i++ {
				f := &v.fields[i]
				standard = standard && f.ord >= 0 && f.isName == (typedLayouts[v.Type].names>>f.ord&1 != 0)
			}
			if standard {
				t.Fatalf("line %q regenerates exactly from standard fields and was refused", line)
			}
		}
	})
}
