package trace

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// canonicalLines is one stored line of every event type, whole and
// with two fields discarded, as the filter writes them (meter message →
// Extract → Record.AppendFormat). internal/filter reaches this package
// through internal/store, so the lines are spelled out here and
// TestCanonicalLinesAreTheFilters (corpus_test.go, outside the package)
// holds them to the filter.
var canonicalLines = []string{
	"SEND machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16544 sock=4 msgLength=512 destNameLen=16 destName=inet:228320140:3000",
	"SEND machine=5 cpuTime=9500 procTime=120 pc=16544 msgLength=512 destNameLen=16 destName=inet:228320140:3000",
	"SEND machine=5 cpuTime=9500 procTime=120 pid=1 pc=0 sock=4 msgLength=0 destNameLen=0 destName=-",
	"SEND machine=5 cpuTime=9500 procTime=120 pc=0 msgLength=0 destNameLen=0 destName=-",
	"RECEIVECALL machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16560 sock=4",
	"RECEIVECALL machine=5 cpuTime=9500 procTime=120 pc=16560",
	"RECEIVE machine=5 cpuTime=9500 procTime=120 pid=2122 pc=16576 sock=5 msgLength=512 sourceNameLen=16 sourceName=pair:pair#3",
	"RECEIVE machine=5 cpuTime=9500 procTime=120 pc=16576 msgLength=512 sourceNameLen=16 sourceName=pair:pair#3",
	"SOCKET machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16592 sock=257 domain=2 type=1 protocol=0",
	"SOCKET machine=5 cpuTime=9500 procTime=120 pc=16592 domain=2 type=1 protocol=0",
	"DUP machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16608 sock=257 newSock=258",
	"DUP machine=5 cpuTime=9500 procTime=120 pc=16608 newSock=258",
	"DESTSOCKET machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16624 sock=257",
	"DESTSOCKET machine=5 cpuTime=9500 procTime=120 pc=16624",
	"CONNECT machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16640 sock=257 sockNameLen=0 peerNameLen=16 sockName=- peerName=unix:/tmp/srv",
	"CONNECT machine=5 cpuTime=9500 procTime=120 pc=16640 sockNameLen=0 peerNameLen=16 sockName=- peerName=unix:/tmp/srv",
	"ACCEPT machine=5 cpuTime=9500 procTime=120 pid=2122 pc=16656 sock=513 newSock=514 sockNameLen=16 peerNameLen=16 sockName=inet:228320140:3000 peerName=inet:228320140:3000",
	"ACCEPT machine=5 cpuTime=9500 procTime=120 pc=16656 newSock=514 sockNameLen=16 peerNameLen=16 sockName=inet:228320140:3000 peerName=inet:228320140:3000",
	"FORK machine=5 cpuTime=9500 procTime=120 pid=2120 pc=16672 newPid=2121",
	"FORK machine=5 cpuTime=9500 procTime=120 pc=16672",
	"TERMPROC machine=5 cpuTime=9500 procTime=120 pid=2121 pc=16688 status=4294967295",
	"TERMPROC machine=5 cpuTime=9500 procTime=120 pc=16688",
}

func canonicalCorpus(testing.TB) []string { return slices.Clone(canonicalLines) }

// eventField resolves a field on a parsed event the way the query
// engine did before the view existed: header fields by name, then the
// maps. It is the oracle View.Field is checked against.
func eventField(e *Event, name string) (uint64, bool) {
	switch name {
	case "machine":
		return uint64(e.Machine), true
	case "cpuTime":
		return uint64(e.CPUTime), true
	case "procTime":
		return uint64(e.ProcTime), true
	case "type", "traceType":
		return uint64(e.Type), true
	}
	v, ok := e.Fields[name]
	return v, ok
}

// checkViewAgrees asserts the view's one contract: whatever the line,
// Parse accepts it exactly when ParseOne does, every field either side
// could know resolves identically, and Event() is ParseOne's event.
// It reports whether the line took the in-place path.
func checkViewAgrees(t *testing.T, line []byte) (canonical bool) {
	t.Helper()
	var v View
	// A dirty view must not leak its last record into this one.
	if err := v.Parse([]byte("ACCEPT machine=9 cpuTime=9 procTime=9 pid=9 stale=9 sockName=inet:9:9")); err != nil {
		t.Fatal(err)
	}
	return checkViewAgreesOn(t, &v, line)
}

// checkViewAgreesOn is checkViewAgrees on a view in whatever state its
// last lines left it: what it remembers of them (the last name token)
// must not show in this one.
func checkViewAgreesOn(t *testing.T, v *View, line []byte) (canonical bool) {
	t.Helper()
	want, werr := ParseOne(line)
	gerr := v.Parse(line)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("line %q: ParseOne err %v, View.Parse err %v", line, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("line %q: ParseOne err %q, View.Parse err %q", line, werr, gerr)
		}
		return false
	}
	keys := []string{"machine", "cpuTime", "procTime", "type", "traceType", "size", "absent", "stale", ""}
	for k := range want.Fields {
		keys = append(keys, k)
	}
	for k := range want.Names {
		keys = append(keys, k)
	}
	for i := 0; i < v.n; i++ {
		keys = append(keys, string(v.key(i)))
	}
	for _, k := range keys {
		wv, wok := eventField(&want, k)
		if gv, gok := v.Field(k); gv != wv || gok != wok {
			t.Fatalf("line %q: Field(%q) = %d, %v; event has %d, %v", line, k, gv, gok, wv, wok)
		}
		wn, wok := want.Names[k]
		if gn, gok := v.NameField(k); gn != wn || gok != wok {
			t.Fatalf("line %q: NameField(%q) = %v, %v; event has %v, %v", line, k, gn, gok, wn, wok)
		}
	}
	if got := v.Event(); !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q:\nEvent()  = %+v\nParseOne = %+v", line, got, want)
	}
	return v.n >= 0
}

func TestViewCanonicalLines(t *testing.T) {
	for _, line := range append(canonicalCorpus(t), strings.Split(strings.TrimSpace(sampleLog), "\n")...) {
		if !checkViewAgrees(t, []byte(line)) {
			t.Errorf("canonical line %q was not parsed in place", line)
		}
	}
}

// lineVariants derives from one canonical line the lines on which the
// parse's fast steps — header and body keys taken by compare against
// the type's order, the remembered name token — could part ways with
// the generic step, each with the path that must serve it.
func lineVariants(line string) []struct {
	line      string
	canonical bool
} {
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
	long := "unix:" + strings.Repeat("p", len(View{}.memo[0].text))
	return []struct {
		line      string
		canonical bool
	}{
		{join(reversed(header), body), true},                                         // header reordered
		{join(body, header), true},                                                   // ... and after the body
		{join(header[:1], body[:1], header[1:], body[1:]), true},                     // ... and among it
		{join(header, reversed(body)), true},                                         // body keys out of type order
		{join(header, body[1:], body[:1]), true},                                     // ... only the first
		{join(header, body[:1], []string{"between=1"}, body[1:]), true},              // a foreign key between schema keys
		{join(header, body[:1], []string{"pidX=1", "p=2", "pi=3"}, body[1:]), true},  // ... that starts like one
		{join(header, []string{last + "=1"}, body), false},                           // a schema key before its hit
		{join(header, body, body[:1]), false},                                        // ... and after it
		{join(header, body, []string{"pid=1"}), !strings.HasPrefix(body[0], "pid=")}, // ... in the last bytes of the line
		{join(header, body, header[2:]), false},                                      // a header key again
		{join(header, body, []string{"again=" + name}), true},                        // the name token under another key
		{join(header, body, []string{"again=" + name, "and=" + name + "0"}), name != "-"},
		{join(header, body, []string{"n1=inet:7:90", "n2=inet:7:91", "n3=inet:7:9", "n4=inet:7:91"}), true}, // differing in the last byte
		{join(header, body, []string{"l1=" + long, "l2=" + long, "l3=" + long + "q", "s1=unix:p", "s2=unix:p"}), true},
	}
}

func TestViewLineVariants(t *testing.T) {
	var shared View // every line also on one view, after every other
	for _, line := range canonicalCorpus(t) {
		if strings.Count(line, " ") < 4 {
			continue // both discards on: no body to vary
		}
		for _, q := range lineVariants(line) {
			if got := checkViewAgrees(t, []byte(q.line)); got != q.canonical {
				t.Errorf("line %q: parsed in place = %v, want %v", q.line, got, q.canonical)
			}
			if got := checkViewAgreesOn(t, &shared, []byte(q.line)); got != q.canonical {
				t.Errorf("line %q on a used view: parsed in place = %v, want %v", q.line, got, q.canonical)
			}
		}
	}
}

// TestViewTypeTable: the scan's table is the parser's two maps, and no
// body field of a type is a header key (a cursor hit past the header is
// never checked for being one).
func TestViewTypeTable(t *testing.T) {
	for name, typ := range typeByName {
		e := viewTypes[typ]
		if e.name != name || len(e.keys) != len(headerKeys)+len(canonicalOrder[typ]) {
			t.Errorf("type %v: table has %q with %d keys, maps have %q with %d", typ, e.name, len(e.keys), name, len(headerKeys)+len(canonicalOrder[typ]))
		}
		for _, key := range canonicalOrder[typ] {
			if key == "machine" || key == "cpuTime" || key == "procTime" {
				t.Errorf("type %v: body field %q is a header key", typ, key)
			}
		}
	}
}

// viewQuirks are lines on which an in-place parser and ParseOne could
// part ways; canonical says which path must serve them. Some ParseOne
// rejects — then both must.
var viewQuirks = []struct {
	line      string
	canonical bool
}{
	{"SEND", true},
	{"SEND pid=0", true},
	{"SEND pid=18446744073709551615", true},
	{"SEND machine=9223372036854775807 cpuTime=9223372036854775807", true},
	{"SOCKET machine=1 type=2 traceType=9 pid=3", true}, // header type shadows the body's
	{"SEND destName=inet:7:9 pid=1", true},              // inet name: host is the value
	{"SEND destName=- a=unix: b=pair:x c=unix:a=b", true},
	{"SEND a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8 i=9 j=10 k=11 l=12 m=13 n=14 o=15 p=16", true},
	{"SEND a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8 i=9 j=10 k=11 l=12 m=13 n=14 o=15 p=16 q=17", false},
	{"SEND pid=18446744073709551616", false},
	{"SEND pid=99999999999999999999", false},
	{"SEND machine=9223372036854775808", false},
	{"SEND cpuTime=-5 procTime=+5 machine=007", false},
	{"SEND pid=1 pid=2", false},
	{"SEND x=5 x=inet:1:2", false},
	{"SEND x=inet:1:2 x=5", false},
	{"SEND x=inet:1:2 x=-", false},
	{"SEND machine=1 machine=2", false},
	{"SEND pid=0x10 pc=010 sock=0b11 n=1_000", false},
	{"SEND destName=inet:1:2junk", false},
	{"SEND destName=inet:+1:2 peer=inet:01:2", false},
	{"SEND destName=inet:4294967296:1", false},
	{"SEND destName=unspec:00", false},
	{"SEND destName=unix:a\x00b", false},
	{"SEND destName=unix:caf\u00e9", false},
	{" SEND pid=1", false},
	{"SEND pid=1 ", false},
	{"SEND  pid=1", false},
	{"SEND\tpid=1", false},
	{"SEND\u00a0pid=1", false},
	{"SEND\u2003pid=1 sock=2", false},
	{"SEND pid=1\u0085sock=2", false},
	{"SEND pid=1\r", false},
	{"SEND pid", false},
	{"SEND =1", false},
	{"SEND pid=", false},
	{"SEND pid==1", false},
	{"SEND machine=- pid=1", false},
	{"SEND machine=inet:1:2", false},
	{"send pid=1", false},
	{"SENDX pid=1", false},
	{"", false},
	{" ", false},
	// Keys taken by compare against the type's order, and keys that only
	// look like it.
	{"SEND machine=1 cpuTime=2 procTime=3 pid=4 pc=5 sock=6", true},
	{"SEND procTime=1 machine=2 cpuTime=3 pid=4", true},
	{"SEND sock=1 pid=2 pc=3", true},
	{"SEND sock=1 pid=2 sock=3", false},
	{"SEND msgLength=1 msgLength=2 x=3333333", false},
	{"SEND msgLengthX=1 msgLength=2 destNameLen=33", true},
	{"SEND destNameLe=1 destNameLen=2 destName=- destNam=3", true},
	{"SEND machine=1 cpuTime=2 machine=3 pid=44444444", false},
	{"SEND machine=1 pid=2 machine=3", false},
	{"SEND machine=18446744073709551615 pid=11111111", false},
	{"SEND machine= cpuTime=2", false},
	{"SEND machine=1x cpuTime=2", false},
	{"SEND machine=1  cpuTime=2", false},
	{"SEND pid=0 pc=0 sock=00000000", false},
	{"SEND pid=0 pc=0 sock=0", true},
	{"SEND pid=18446744073709551615 pc=18446744073709551615 sock=9999999999999999999", true},
	{"SEND pid=28446744073709551615 pc=1", false},
	{"SEND pid=184467440737095516150 pc=1", false},
	{"SEND pid=08446744073709551615 pc=1", false},
	{"SEND msgLength=12345678901234567890123 pc=1", false},
	// The remembered name token.
	{"SEND a=inet:1:2 b=inet:1:2 c=inet:1:3 d=inet:1:2", true},
	{"SEND a=inet:1:2 b=inet:1:2x", false},
	{"SEND a=inet:1:2 b=inet:1:", false},
	{"SEND a=inet:9:9 b=inet:9:90", true}, // the token checkViewAgrees leaves behind, and one more byte
	{"SEND a=- b=- c=-x", false},
	{"SEND a=unix: b=unix: c=unix:unix:", true},
	{"SEND a=unix:ppppppppppppppppppppppppppp b=unix:ppppppppppppppppppppppppppp c=unix:p", true},
}

func TestViewQuirks(t *testing.T) {
	for _, q := range viewQuirks {
		if got := checkViewAgrees(t, []byte(q.line)); got != q.canonical {
			t.Errorf("line %q: parsed in place = %v, want %v", q.line, got, q.canonical)
		}
	}
}

// FuzzViewParse holds the view to ParseOne on arbitrary bytes.
func FuzzViewParse(f *testing.F) {
	for _, line := range canonicalCorpus(f) {
		f.Add([]byte(line))
	}
	for _, q := range viewQuirks {
		f.Add([]byte(q.line))
	}
	for _, line := range canonicalCorpus(f)[:2] {
		for _, q := range lineVariants(line) {
			f.Add([]byte(q.line))
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		canonical := checkViewAgrees(t, line)
		// Again on a view that has just parsed this very line, so that it
		// remembers the line's own last name token.
		var v View
		v.Parse(line)
		if again := checkViewAgreesOn(t, &v, line); again != canonical {
			t.Fatalf("line %q: parsed in place = %v, on a view that knows it %v", line, canonical, again)
		}
	})
}

// TestViewParseZeroAllocs: parsing a canonical line and reading its
// fields allocates nothing — the property the scan paths are built on.
func TestViewParseZeroAllocs(t *testing.T) {
	var lines [][]byte
	for _, l := range canonicalCorpus(t) {
		lines = append(lines, []byte(l))
	}
	var v View
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for _, line := range lines {
			if err := v.Parse(line); err != nil {
				t.Fatal(err)
			}
			a, _ := v.Field("msgLength")
			b, _ := v.Field("destName")
			n, _ := v.NameField("peerName")
			sink += a + b + uint64(n[2])
		}
	})
	if allocs != 0 {
		t.Fatalf("View.Parse + Field allocates %.0f times per %d lines, want 0", allocs, len(lines))
	}
	_ = sink
}

// formatFprintf is Event.Format as it was before AppendFormat: one
// fmt.Fprintf per field and an emitted-set per event. It stays as the
// oracle AppendFormat is checked against. Its order for two or more
// non-canonical fields of one kind was map order; AppendFormat sorts
// them, so the comparison uses at most one of each.
func formatFprintf(e *Event) string {
	var b strings.Builder
	b.WriteString(e.Event)
	fmt.Fprintf(&b, " machine=%d cpuTime=%d procTime=%d", e.Machine, e.CPUTime, e.ProcTime)
	emitted := make(map[string]bool)
	for _, key := range canonicalOrder[e.Type] {
		if n, ok := e.Names[key]; ok {
			fmt.Fprintf(&b, " %s=%s", key, n.String())
			emitted[key] = true
		} else if v, ok := e.Fields[key]; ok {
			fmt.Fprintf(&b, " %s=%d", key, v)
			emitted[key] = true
		}
	}
	for key, v := range e.Fields {
		if !emitted[key] {
			if _, isName := e.Names[key]; !isName {
				fmt.Fprintf(&b, " %s=%d", key, v)
			}
		}
	}
	for key, n := range e.Names {
		if !emitted[key] {
			fmt.Fprintf(&b, " %s=%s", key, n.String())
		}
	}
	return b.String()
}

func TestAppendFormatMatchesFormat(t *testing.T) {
	lines := canonicalCorpus(t)
	for _, line := range lines {
		// Canonical, then with one numeric and one name field the type's
		// canonical order does not know, then with a negative header.
		for _, l := range []string{line, line + " zz=7 yy=inet:3:4", strings.Replace(line, "cpuTime=9500", "cpuTime=-12", 1)} {
			ev, err := ParseOne([]byte(l))
			if err != nil {
				t.Fatal(err)
			}
			want := formatFprintf(&ev)
			if got := string(ev.AppendFormat([]byte("x"))); got != "x"+want {
				t.Errorf("AppendFormat = %q\n      Format was %q", got, "x"+want)
			}
			if got := ev.Format(); got != want {
				t.Errorf("Format = %q, was %q", got, want)
			}
		}
	}
	// Several unknown fields come out sorted within their kind.
	ev, err := ParseOne([]byte("FORK machine=1 pid=2 b=1 zeta=unix:z a=2 alpha=- newPid=3"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ev.Format(), "FORK machine=1 cpuTime=0 procTime=0 pid=2 newPid=3 a=2 b=1 alpha=- zeta=unix:z"; got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

// TestAppendFormatZeroAllocs: rendering a record of the standard shape
// into a buffer with room costs no allocation — a reply is one buffer,
// not a string per record.
func TestAppendFormatZeroAllocs(t *testing.T) {
	var events []Event
	for _, line := range canonicalCorpus(t) {
		ev, err := ParseOne([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	buf := make([]byte, 0, 1<<12)
	allocs := testing.AllocsPerRun(100, func() {
		out := buf
		for i := range events {
			out = append(events[i].AppendFormat(out), '\n')
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFormat allocates %.0f times per %d events, want 0", allocs, len(events))
	}
}

// BenchmarkViewParse is the cost of the record tier's parse: one
// canonical line of every event type, all fields kept, per iteration;
// ns/record and 0 allocs. The host this repository is measured on runs
// at two speeds 1.75x apart for minutes at a time, so ns/record cannot
// be held against a row archived on another day; x-ParseOne can: how
// many times faster than ParseOne — the oracle, which a change to the
// view leaves alone — the view read the same lines, both timed in this
// process just before, in alternating chunks, each side at its best
// chunk. scripts/bench_filter.sh gates it.
func BenchmarkViewParse(b *testing.B) {
	var lines [][]byte
	for i, l := range canonicalCorpus(b) {
		if i%2 == 0 {
			lines = append(lines, []byte(l))
		}
	}
	var v View
	best := func(iters int, parse func(line []byte) error) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			for _, line := range lines {
				if err := parse(line); err != nil {
					b.Fatal(err)
				}
			}
		}
		return time.Since(start) / time.Duration(iters)
	}
	one, view := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for chunk := 0; chunk < 20; chunk++ {
		one = min(one, best(200, func(line []byte) error { _, err := ParseOne(line); return err }))
		view = min(view, best(2000, v.Parse))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, line := range lines {
			if err := v.Parse(line); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/record")
	b.ReportMetric(float64(one)/float64(view), "x-ParseOne")
}
