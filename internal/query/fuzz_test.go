package query

import (
	"maps"
	"testing"

	"dpm/internal/trace"
)

// FuzzCompiledQueryMatch holds the compiled conditions to the reference
// interpreter: for any rules and any record line, the view the line
// parses into and, for a standard line, the view decoded from its typed
// form are selected by the compiled rules as by the interpreter over the
// view's Event — by the same rule, with the same discards, or by
// neither. The seeds cover wildcards, numeric and name field-to-field
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
		check := func(v *trace.View, what string) {
			got, discards := q.match(v)
			ev := v.Event()
			keep, rule := selectSource(q.Rules, (*eventSource)(&ev))
			var want map[string]bool
			if keep && rule >= 0 {
				want = q.Rules[rule].DiscardSet()
			}
			if got != keep || !maps.Equal(discards, want) {
				t.Fatalf("rules %q, %s line %q: compiled %v %v, interpreted %v %v", rules, what, line, got, discards, keep, want)
			}
		}
		var v trace.View
		if v.Parse(line) != nil {
			return
		}
		check(&v, "parsed")
		if !v.ParseStandard(line) {
			return
		}
		var enc, dec trace.TypedState
		var typed trace.View
		if _, ok := typed.DecodeTyped(v.AppendTyped(nil, &enc), &dec, v.Type, v.Machine, v.CPUTime); !ok {
			t.Fatalf("standard line %q does not decode", line)
		}
		check(&typed, "typed")
	})
}
