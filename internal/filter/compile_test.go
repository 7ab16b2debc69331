package filter

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// The compiled program (compile.go) must select, discard, and format
// byte-identically to the interpreter (interp_test.go: Descriptions.Extract,
// Rules.Select and Record.Format) — the interpreter is the semantic
// reference, the program is the hot path.
// These tests sweep the Figure 3.3–3.4 operator matrix over a message
// corpus covering every standard event type and compare the two
// pipelines record by record — and hold what the program hands the
// store typed to the parse of its line (slotsMatchParse).

// corpusMessages builds encoded meter messages spanning every standard
// event type, with header and body values chosen to straddle the rule
// thresholds used in equivalenceRuleSets.
func corpusMessages() [][]byte {
	inetA := meter.InetName(228320140, 512)
	inetB := meter.InetName(228320140, 513)
	unixA := meter.UnixName("/tmp/a")
	unixB := meter.UnixName("/tmp/b")
	var zero meter.Name

	var msgs [][]byte
	add := func(h meter.Header, body meter.Body) {
		m := meter.Msg{Header: h, Body: body}
		msgs = append(msgs, m.AppendEncode(nil))
	}
	headers := []meter.Header{
		{Machine: 5, CPUTime: 900, ProcTime: 30},
		{Machine: 5, CPUTime: 10000, ProcTime: 0},
		{Machine: 2, CPUTime: 123456, ProcTime: 99},
		{Machine: 0, CPUTime: 0, ProcTime: 0},
	}
	for _, h := range headers {
		for _, name := range []meter.Name{inetA, unixA, zero} {
			add(h, &meter.Send{PID: 3, PC: 0x1234, Sock: 4, MsgLength: 512, DestNameLen: 16, DestName: name})
			add(h, &meter.Send{PID: 7, PC: 0, Sock: 1, MsgLength: 511, DestNameLen: 16, DestName: name})
			add(h, &meter.Recv{PID: 3, PC: 8, Sock: 4, MsgLength: 600, SourceNameLen: 16, SourceName: name})
		}
		add(h, &meter.RecvCall{PID: 3, PC: 1, Sock: 4})
		add(h, &meter.SocketCrt{PID: 3, PC: 2, Sock: 4, Domain: 2, SockType: 1, Protocol: 0})
		add(h, &meter.Dup{PID: 3, PC: 3, Sock: 4, NewSock: 5})
		add(h, &meter.Dup{PID: 3, PC: 3, Sock: 6, NewSock: 6})
		add(h, &meter.DestSocket{PID: 3, PC: 4, Sock: 4})
		add(h, &meter.Connect{PID: 3, PC: 5, Sock: 4, SockNameLen: 16, PeerNameLen: 16, SockName: inetA, PeerName: inetB})
		add(h, &meter.Accept{PID: 3, PC: 6, Sock: 4, NewSock: 7, SockNameLen: 16, PeerNameLen: 16, SockName: unixA, PeerName: unixA})
		add(h, &meter.Accept{PID: 3, PC: 6, Sock: 4, NewSock: 7, SockNameLen: 16, PeerNameLen: 16, SockName: unixA, PeerName: unixB})
		add(h, &meter.Fork{PID: 3, PC: 7, NewPID: 44})
		add(h, &meter.TermProc{PID: 3, PC: 9, Status: 1})
	}
	return msgs
}

// equivalenceRuleSets sweeps the operator matrix: every comparison
// operator against literals, the '*' wildcard, numeric and socket-name
// field references, '#' discards (body, name, header, and wildcard
// forms), alternatives, and rules over fields some types lack.
var equivalenceRuleSets = []string{
	"",                                       // no rules: keep everything
	"machine=5, cpuTime<10000",               // Figure 3.3, first rule
	"type=1, msgLength>=512",                 // Figure 3.3, second rule
	"machine=5, cpuTime<10000, msgLength=#*", // Figure 3.4, wildcard discard
	"type=8, sockName=peerName",              // Figure 3.4, name-to-name equality
	"sockName!=peerName",
	"sockName>peerName", // non-EQ/NE name comparison: always passes (interpreter quirk)
	"sockName<=peerName",
	"sock=newSock", // numeric field-to-field
	"pid<newPid",
	"pid=3",
	"pid!=3",
	"pid>3",
	"pid<3",
	"pid>=3",
	"pid<=3",
	"traceType=9",
	"procTime>50",
	"size>=40",
	"msgLength=512",      // field only SEND/RECEIVE carry
	"newSock=*",          // wildcard over a sometimes-missing field
	"sock=missing",       // reference to a nonexistent field: never matches
	"destName=228320140", // name field compared as its Inet host value
	"destName=pid",       // name-to-scalar reference: never matches
	"pid=destName",       // scalar-to-name reference: numeric comparison
	"machine=*, pid=#*",
	"type=1, destName=#*",                // discard a name field
	"machine=#5, cpuTime<10000",          // header discard: a formatting no-op
	"pid=#3, sock=#4",                    // multiple discards in one rule
	"machine=2\nmachine=5, pid>1\npid=7", // alternatives; first match wins discards
	"pid=#3\npid=3",                      // same condition, different discards by order
	"cpuTime>=900, cpuTime<=123456",
}

// interpretStream runs the reference pipeline — Descriptions.Extract,
// Rules.Select, Record.Format — over a frame stream and returns the
// kept lines.
func interpretStream(t *testing.T, d *Descriptions, rs Rules, msgs [][]byte) []string {
	t.Helper()
	var lines []string
	for _, raw := range msgs {
		rec, err := d.Extract(raw)
		if err != nil {
			t.Fatal(err)
		}
		keep, discards := rs.Select(rec)
		if !keep {
			continue
		}
		lines = append(lines, rec.Format(discards))
	}
	return lines
}

// compiledLine runs one message through the program as ProcessBatch
// does: decoded into slots, selected, the rule's discards dropped and the
// line written from what is left.
func compiledLine(t *testing.T, prog *Program, raw []byte) (keep bool, rule int, line string) {
	t.Helper()
	var (
		h meter.Header
		s trace.Slots
	)
	pl, err := prog.decode(raw, &h, &s)
	if err != nil {
		t.Fatal(err)
	}
	if keep, rule = pl.selectRec(&h, &s, raw[meter.HeaderSize:]); !keep {
		return false, rule, ""
	}
	if rule >= 0 {
		s.Drop(pl.rules[rule].drop)
	}
	return true, rule, string(s.AppendLine(nil, h.TraceType, int(h.Machine), int64(h.CPUTime)))
}

// mustCompile compiles rules against descriptions that must be accepted.
func mustCompile(t testing.TB, d *Descriptions, rs Rules) *Program {
	t.Helper()
	prog, err := CompileProgram(d, rs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestCompiledProgramEquivalence(t *testing.T) {
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	msgs, typing := corpusMessages(), typingStream()
	var plain, odd int
	for _, text := range equivalenceRuleSets {
		rs, err := ParseRules([]byte(text))
		if err != nil {
			t.Fatalf("rules %q: %v", text, err)
		}
		prog := mustCompile(t, d, rs)
		// What the program hands the store is what its line says
		// (slots_test.go), over the corpus and the odd names.
		p, o := slotsMatchParse(t, &Engine{prog: prog}, typing)
		plain, odd = plain+p, odd+o
		want := interpretStream(t, d, rs, msgs)

		// Compiled path, record by record.
		var got []string
		for i, raw := range msgs {
			rec, err := d.Extract(raw)
			if err != nil {
				t.Fatal(err)
			}
			ikeep, irule := rs.SelectSource(rec)
			keep, rule, line := compiledLine(t, prog, raw)
			if keep != ikeep || rule != irule {
				t.Fatalf("rules %q msg %d: compiled (%v,%d) vs interpreter (%v,%d)",
					text, i, keep, rule, ikeep, irule)
			}
			if keep {
				got = append(got, line)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rules %q: compiled kept %d records, interpreter %d", text, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rules %q record %d:\ncompiled    %q\ninterpreter %q", text, i, got[i], want[i])
			}
		}
	}
	// Records with names no line spells go typed as the rest do.
	if plain == 0 || odd == 0 {
		t.Fatalf("%d records with names a line spells, %d with others: the corpus is meant to have both", plain, odd)
	}
}

// TestProcessBatchEquivalence proves the whole batch pipeline — the
// path the standard filter runs — produces the same flat-log bytes and
// store metadata as the interpreter composition.
func TestProcessBatchEquivalence(t *testing.T) {
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	msgs := corpusMessages()
	var stream []byte
	for _, raw := range msgs {
		stream = append(stream, raw...)
	}
	for _, text := range equivalenceRuleSets {
		eng, err := NewEngine([]byte(StandardDescriptions), []byte(text))
		if err != nil {
			t.Fatalf("rules %q: %v", text, err)
		}
		rs, err := ParseRules([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		want := interpretStream(t, d, rs, msgs)
		wantLog := ""
		if len(want) > 0 {
			wantLog = strings.Join(want, "\n") + "\n"
		}

		var batch Batch
		rest, err := eng.ProcessBatch(stream, &batch)
		if err != nil {
			t.Fatalf("rules %q: %v", text, err)
		}
		if len(rest) != 0 {
			t.Fatalf("rules %q: %d bytes unconsumed", text, len(rest))
		}
		if string(batch.Lines) != wantLog {
			t.Fatalf("rules %q: batch log bytes differ\ngot  %q\nwant %q", text, batch.Lines, wantLog)
		}
		if batch.Len() != len(want) {
			t.Fatalf("rules %q: batch has %d records, want %d", text, batch.Len(), len(want))
		}
		for i := range want {
			if string(batch.Line(i)) != want[i] {
				t.Fatalf("rules %q record %d: %q want %q", text, i, batch.Line(i), want[i])
			}
		}
		// Store metadata: machine/time/type from the header, pid from
		// the record when the type carries one.
		recs := batch.StoreRecs()
		j := 0
		for _, raw := range msgs {
			rec, err := d.Extract(raw)
			if err != nil {
				t.Fatal(err)
			}
			keep, _ := rs.Select(rec)
			if !keep {
				continue
			}
			m := recs[j].Meta
			pid, _ := rec.Field("pid")
			if m.Machine != rec.Machine || m.Time != rec.CPUTime ||
				m.Type != uint32(rec.Type) || m.PID != uint32(pid) {
				t.Fatalf("rules %q record %d: meta %+v vs record %+v pid=%d", text, j, m, rec, pid)
			}
			j++
		}
	}
}

// randomRules draws a rule set of one to three rules over header and
// body fields, names included, and one no type carries: every operator
// against literals, wildcards and other fields, some of them discards.
func randomRules(rng *rand.Rand) string {
	fields := []string{"machine", "cpuTime", "procTime", "type", "size", "pid", "pc", "sock",
		"newSock", "msgLength", "destName", "sourceName", "sockName", "peerName", "nosuch"}
	ops := []string{"=", "!=", ">", "<", ">=", "<="}
	var lines []string
	for r := 0; r < rng.Intn(3)+1; r++ {
		var parts []string
		for c := 0; c < rng.Intn(3)+1; c++ {
			f := fields[rng.Intn(len(fields))]
			op := ops[rng.Intn(len(ops))]
			var rhs string
			switch rng.Intn(4) {
			case 0:
				rhs = "*"
			case 1:
				rhs = fields[rng.Intn(len(fields))]
			default:
				rhs = fmt.Sprintf("%d", rng.Intn(1024))
			}
			if rng.Intn(4) == 0 {
				rhs = "#" + rhs
			}
			parts = append(parts, f+op+rhs)
		}
		lines = append(lines, strings.Join(parts, ", "))
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestCompiledProgramEquivalenceRandom cross-checks compiled selection
// against the interpreter over randomly generated rule sets, a wider
// net than the curated matrix.
func TestCompiledProgramEquivalenceRandom(t *testing.T) {
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	msgs, typing := corpusMessages(), typingStream()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		text := randomRules(rng)
		rs, err := ParseRules([]byte(text))
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, text, err)
		}
		prog := mustCompile(t, d, rs)
		slotsMatchParse(t, &Engine{prog: prog}, typing)
		for i, raw := range msgs {
			rec, err := d.Extract(raw)
			if err != nil {
				t.Fatal(err)
			}
			ikeep, irule := rs.SelectSource(rec)
			keep, rule, got := compiledLine(t, prog, raw)
			if keep != ikeep || rule != irule {
				t.Fatalf("trial %d rules %q msg %d: compiled (%v,%d) vs interpreter (%v,%d)",
					trial, text, i, keep, rule, ikeep, irule)
			}
			if !keep || rule < 0 {
				continue
			}
			if want := rec.Format(rs[rule].DiscardSet()); got != want {
				t.Fatalf("trial %d rules %q msg %d:\ncompiled    %q\ninterpreter %q",
					trial, text, i, got, want)
			}
		}
	}
}

// TestAppendFormatMatchesFormat pins the append-based formatter to the
// string-building reference over every corpus record with no discards.
func TestAppendFormatMatchesFormat(t *testing.T) {
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range corpusMessages() {
		rec, err := d.Extract(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := rec.Format(nil)
		got := string(rec.AppendFormat(nil, 0))
		if got != want {
			t.Fatalf("msg %d: AppendFormat %q, Format %q", i, got, want)
		}
	}
}
