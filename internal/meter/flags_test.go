package meter

import (
	"strings"
	"testing"
)

func TestFlagSelectsOwnType(t *testing.T) {
	pairs := map[Type]Flag{
		EvSend:       MSend,
		EvRecvCall:   MReceiveCall,
		EvRecv:       MReceive,
		EvSocket:     MSocket,
		EvDup:        MDup,
		EvDestSocket: MDestSocket,
		EvConnect:    MConnect,
		EvAccept:     MAccept,
		EvFork:       MFork,
		EvTermProc:   MTermProc,
	}
	for typ, flag := range pairs {
		if !flag.Selects(typ) {
			t.Errorf("flag %b does not select its own type %v", flag, typ)
		}
		if FlagFor(typ) != flag {
			t.Errorf("FlagFor(%v) = %b, want %b", typ, FlagFor(typ), flag)
		}
		for other := range pairs {
			if other != typ && flag.Selects(other) {
				t.Errorf("flag for %v also selects %v", typ, other)
			}
		}
	}
}

func TestMAllSelectsEverythingButImmediate(t *testing.T) {
	for _, lay := range Layouts() {
		if !MAll.Selects(lay.Type) {
			t.Errorf("MAll does not select %v", lay.Type)
		}
	}
	if MAll.Immediate() {
		t.Error("MAll must not imply immediate delivery")
	}
}

func TestParseFlag(t *testing.T) {
	cases := []struct {
		tok   string
		want  Flag
		clear bool
	}{
		{"send", MSend, false},
		{"-send", MSend, true},
		{"all", MAll, false},
		{"-all", MAll, true},
		{"RECEIVE", MReceive, false},
		{"immediate", MImmediate, false},
		{"receivecall", MReceiveCall, false},
	}
	for _, c := range cases {
		got, clear, err := ParseFlag(c.tok)
		if err != nil {
			t.Errorf("ParseFlag(%q): %v", c.tok, err)
			continue
		}
		if got != c.want || clear != c.clear {
			t.Errorf("ParseFlag(%q) = (%b, %v), want (%b, %v)", c.tok, got, clear, c.want, c.clear)
		}
	}
}

func TestParseFlagUnknown(t *testing.T) {
	if _, _, err := ParseFlag("bogus"); err == nil {
		t.Fatal("ParseFlag(bogus) succeeded")
	}
	if _, _, err := ParseFlag("-"); err == nil {
		t.Fatal("ParseFlag(-) succeeded")
	}
}

func TestSetflagsUnionSemantics(t *testing.T) {
	// Section 4.3: "If two setflags commands are executed, the set of
	// active flags is the union of the two groups"; resetting is only
	// explicit, with '-'.
	var f Flag
	apply := func(toks ...string) {
		for _, tok := range toks {
			bits, clear, err := ParseFlag(tok)
			if err != nil {
				t.Fatal(err)
			}
			if clear {
				f &^= bits
			} else {
				f |= bits
			}
		}
	}
	apply("send", "receive")
	apply("fork")
	if !f.Selects(EvSend) || !f.Selects(EvRecv) || !f.Selects(EvFork) {
		t.Fatalf("union lost flags: %b", f)
	}
	apply("-send")
	if f.Selects(EvSend) {
		t.Fatal("-send did not clear send")
	}
	if !f.Selects(EvRecv) || !f.Selects(EvFork) {
		t.Fatal("-send cleared unrelated flags")
	}
	apply("-all")
	if f != 0 {
		t.Fatalf("-all left flags: %b", f)
	}
}

func TestFlagNamesOrderStable(t *testing.T) {
	f := MSend | MReceive | MFork | MAccept | MConnect
	got := strings.Join(f.FlagNames(), " ")
	// The order matches the section 4.3 flag list: fork before send,
	// send before receive, accept before connect.
	want := "fork send receive accept connect"
	if got != want {
		t.Fatalf("FlagNames = %q, want %q", got, want)
	}
}

func TestAllFlagNamesSortedAndComplete(t *testing.T) {
	names := AllFlagNames()
	if len(names) != 12 {
		t.Fatalf("AllFlagNames has %d entries, want 12", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestFlagString(t *testing.T) {
	if got := (MSend | MFork).String(); got != "fork send" {
		t.Fatalf("String = %q", got)
	}
	if got := Flag(0).String(); got != "-" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestImmediate(t *testing.T) {
	if (MSend).Immediate() {
		t.Fatal("MSend alone must not be immediate")
	}
	if !(MSend | MImmediate).Immediate() {
		t.Fatal("MImmediate not detected")
	}
}
