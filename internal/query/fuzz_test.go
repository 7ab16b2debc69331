package query

import (
	"errors"
	"slices"
	"testing"

	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// FuzzCompiledQueryMatch holds the compiled conditions to the reference
// interpreter: for any rules and any record line the trace parser reads
// — typed as the filter types a record (LineRec), encoded and decoded as
// the store keeps it — the compiled rules select the view as the
// interpreter selects the record's event, by the same rule, and drop the
// same keys. The seeds cover wildcards, numeric and name field-to-field
// comparisons, a body field called type under the header name that
// shadows it, and fields no record has.
func FuzzCompiledQueryMatch(f *testing.F) {
	const (
		socket  = "SOCKET machine=1 cpuTime=20 procTime=3 pid=4 pc=5 sock=6 domain=2 type=1 protocol=0"
		connect = "CONNECT machine=2 cpuTime=30 procTime=0 pid=7 pc=8 sock=3 sockNameLen=16 peerNameLen=16 sockName=inet:1:80 peerName=inet:1:80"
		send    = "SEND machine=3 cpuTime=40 procTime=10 pid=100 pc=16384 sock=3 msgLength=512 destNameLen=16 destName=inet:2:9"
	)
	for _, seed := range []struct{ rules, line string }{
		{"type=4", socket},
		{"type=1,domain=2", socket},
		{"traceType=4,type<2", socket},
		{"type=peerName", "SOCKET machine=1 cpuTime=2 procTime=3 type=inet:1:2 peerName=inet:1:2"},
		{"sockName=peerName", connect},
		{"sockName!=peerName\nsock>=pid", connect},
		{"peerName>sockName,sockName=#*", connect},
		{"peerName=1,sockName=1", "CONNECT machine=2 cpuTime=30 procTime=0 sockName=unix:/tmp/s peerName=inet:1:80"},
		{"msgLength>=sock,pid=#*", send},
		{"destName=2\nmachine=3", send},
		{"absent=*", send},
		{"newPid=*\npid=*,pc=#*", "FORK machine=1 cpuTime=5 procTime=0 pid=9 pc=1 newPid=10"},
		{"x=y,cpuTime<100", "SEND machine=1 cpuTime=2 procTime=3 x=7 y=7"},
		{"pid=0x10", "SEND pid=0x10 machine=1 cpuTime=2 procTime=3 destName=inet:1:2"},
		{"", send},
	} {
		f.Add(seed.rules, []byte(seed.line))
	}
	f.Fuzz(func(t *testing.T, rules string, line []byte) {
		q, err := Compile(rules)
		if err != nil {
			return
		}
		ev, err := trace.ParseOne(line)
		if err != nil || ev.Machine < 0 || ev.Machine > 0xffff || ev.CPUTime < 0 || ev.CPUTime > 0xffffffff {
			return
		}
		r := LineRec(store.Meta{Machine: uint16(ev.Machine), Time: uint32(ev.CPUTime), Type: uint32(ev.Type)}, string(line))
		var v, typed trace.View
		var enc, dec trace.TypedState
		v.PointAt(r.Slots, ev.Type, ev.Machine, ev.CPUTime)
		c := obs.NewCursor(v.AppendTyped(nil, &enc), errors.New("typed record"))
		if typed.DecodeTyped(&c, &dec, v.Type, v.Machine, v.CPUTime); c.Err() != nil {
			t.Fatalf("line %q does not decode: %v", line, c.Err())
		}
		// The record the store keeps, as the trace parser reads its line.
		kept, err := trace.ParseOne(typed.AppendLine(nil, 0))
		if err != nil {
			return // a name no line spells
		}
		got, drop := q.match(&typed)
		keep, rule := selectSource(q.Rules, (*eventSource)(&kept))
		var want uint8
		if keep && rule >= 0 {
			keys, _ := trace.SlotKeys(kept.Type, kept.Event)
			for key := range discardSet(q.Rules[rule]) {
				if k := slices.Index(keys, key); k >= 0 {
					want |= 1 << k
				}
			}
		}
		if got != keep || drop != want {
			t.Fatalf("rules %q, line %q: compiled %v %#x, interpreted %v %#x", rules, line, got, drop, keep, want)
		}
	})
}
