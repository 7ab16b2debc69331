package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dpm/internal/meter"
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

// slotsOf types an event as the filter hands it over: each key of its
// type's stored order it carries, with a value of the key's kind.
func slotsOf(e *Event) *Slots {
	s := new(Slots)
	s.Reset(e.ProcTime)
	keys, names := SlotKeys(e.Type, e.Event)
	for k, key := range keys {
		if n, ok := e.Names[key]; ok && names>>k&1 != 0 {
			s.SetName(k, n)
		} else if v, ok := e.Fields[key]; ok && names>>k&1 == 0 {
			s.SetVal(k, v)
		}
	}
	return s
}

// viewOf is the view of the record a line ParseOne reads, pointed at
// the record's slots (slotsOf).
func viewOf(tb testing.TB, line []byte) *View {
	tb.Helper()
	ev, err := ParseOne(line)
	if err != nil {
		tb.Fatal(err)
	}
	v := new(View)
	v.PointAt(slotsOf(&ev), ev.Type, ev.Machine, ev.CPUTime)
	return v
}

// TestViewCanonicalLines: the view of every line the filter writes
// answers every field — header, each key of every stored order, an
// absent one — as ParseOne's event does, and writes the line back byte
// for byte.
func TestViewCanonicalLines(t *testing.T) {
	keys := []string{"machine", "cpuTime", "procTime", "type", "traceType", "size", "absent", ""}
	for _, vt := range viewTypes {
		keys = append(keys, vt.order...)
	}
	for _, line := range append(canonicalCorpus(t), strings.Split(strings.TrimSpace(sampleLog), "\n")...) {
		v := viewOf(t, []byte(line))
		want, _ := ParseOne([]byte(line))
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
		if got := v.AppendLine(nil, 0); string(got) != line {
			t.Errorf("line %q written back as %q", line, got)
		}
	}
}

// checkViewAgrees holds the view of the record a line ParseOne reads —
// typed as the filter types a record (slotsOf) — to ParseOne's event:
// each header field as the event has it; each key of the type's stored
// order as the event has it, where the event carries it with the key's
// kind of value, and absent where not; every other key absent. A line
// ParseOne refuses has no record to view.
func checkViewAgrees(t *testing.T, line []byte) {
	t.Helper()
	ev, err := ParseOne(line)
	if err != nil {
		return
	}
	var v View
	v.PointAt(slotsOf(&ev), ev.Type, ev.Machine, ev.CPUTime)
	order, names := SlotKeys(ev.Type, ev.Event)
	keys := []string{"machine", "cpuTime", "procTime", "type", "traceType", "size", "absent", ""}
	for _, vt := range viewTypes {
		keys = append(keys, vt.order...)
	}
	for k := range ev.Fields {
		keys = append(keys, k)
	}
	for k := range ev.Names {
		keys = append(keys, k)
	}
	for _, key := range keys {
		var wv uint64
		var wn meter.Name
		var wok, wnok bool
		switch k := slices.Index(order, key); {
		case slices.Contains([]string{"machine", "cpuTime", "procTime", "type", "traceType"}, key):
			wv, wok = eventField(&ev, key)
		case k >= 0 && names>>k&1 != 0:
			// An Internet name's value is its host.
			if wn, wnok = ev.Names[key]; wnok && wn.Family() == meter.AFInet {
				host, _ := wn.Inet()
				wv, wok = uint64(host), true
			}
		case k >= 0:
			wv, wok = ev.Fields[key]
		}
		if gv, gok := v.Field(key); gv != wv || gok != wok {
			t.Fatalf("line %q: Field(%q) = %d, %v; want %d, %v", line, key, gv, gok, wv, wok)
		}
		if gn, gok := v.NameField(key); gn != wn || gok != wnok {
			t.Fatalf("line %q: NameField(%q) = %v, %v; want %v, %v", line, key, gn, gok, wn, wnok)
		}
	}
}

// TestViewLineVariants: the view agrees with ParseOne over the
// spellings of every line the filter writes that ParseOne reads too.
func TestViewLineVariants(t *testing.T) {
	for _, line := range canonicalCorpus(t) {
		for _, v := range lineSpellings(line) {
			checkViewAgrees(t, []byte(v))
		}
	}
}

// TestViewQuirks: the view agrees with ParseOne over lines on which a
// parser could part ways with it.
func TestViewQuirks(t *testing.T) {
	for _, line := range quirkLines {
		checkViewAgrees(t, []byte(line))
	}
}

// FuzzViewParse holds the view of a parsed record to ParseOne on
// arbitrary bytes (checkViewAgrees).
func FuzzViewParse(f *testing.F) {
	for _, line := range canonicalCorpus(f) {
		f.Add([]byte(line))
	}
	for _, line := range quirkLines {
		f.Add([]byte(line))
	}
	for _, line := range canonicalCorpus(f)[:2] {
		for _, v := range lineSpellings(line) {
			f.Add([]byte(v))
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkViewAgrees(t, line) })
}

// TestViewTypeTable: the scan's table is meter's layout table, names
// and field orders, and no body field of a type is a header key.
func TestViewTypeTable(t *testing.T) {
	for _, lay := range meter.Layouts() {
		var order []string
		for _, f := range lay.Fields {
			order = append(order, f.Name)
		}
		if e := viewTypes[lay.Type]; e.name != lay.Name || !slices.Equal(e.order, order) {
			t.Errorf("type %v: table has %q with %v, meter has %q with %v", lay.Type, e.name, e.order, lay.Name, order)
		}
		for _, key := range order {
			if key == "machine" || key == "cpuTime" || key == "procTime" {
				t.Errorf("type %v: body field %q is a header key", lay.Type, key)
			}
		}
	}
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
	var order []string
	if int(e.Type) < len(viewTypes) {
		order = viewTypes[e.Type].order
	}
	for _, key := range order {
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
