package live

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dpm/internal/meter"
	"dpm/internal/obs"
)

// sampleCollector builds a collector holding a little of everything:
// procs, pairs, a connection, matched and pending traffic.
func sampleCollector(seed uint16) *Collector {
	c := NewCollector(Config{})
	cn := meter.InetName(uint32(seed), 10)
	sn := meter.InetName(uint32(seed+1), 20)
	conn := entry(meter.EvConnect, seed, 1, 3, 0, 10)
	conn.Name1, conn.Name2 = cn, sn
	acc := entry(meter.EvAccept, seed+1, 2, 0, 6, 20)
	acc.Name1, acc.Name2 = sn, cn
	send := entry(meter.EvSend, seed, 1, 3, 100, 30)
	recv := entry(meter.EvRecv, seed+1, 2, 6, 100, 40)
	dg := entry(meter.EvSend, seed, 1, 9, 64, 50)
	dg.Name1 = meter.InetName(uint32(seed+2), 30)
	term := entry(meter.EvTermProc, seed, 1, 0, 0, 60)
	c.apply([]tapEntry{conn, acc, send, recv, dg, term})
	return c
}

// TestSectionMergeCommutativeAssociative checks the obs.SectionMerger
// contract for all three payloads: merging in any order or grouping,
// pair by pair or all in one call, yields the same bytes.
func TestSectionMergeCommutativeAssociative(t *testing.T) {
	captures := map[string][]func() []byte{}
	for _, seed := range []uint16{0, 5, 9} {
		c := sampleCollector(seed)
		captures[SectionComm] = append(captures[SectionComm], c.captureComm)
		captures[SectionPar] = append(captures[SectionPar], c.capturePar)
		captures[SectionMatch] = append(captures[SectionMatch], c.captureMatch)
	}
	mergers := map[string]obs.SectionMerger{
		SectionComm:  mergeCommPayload,
		SectionPar:   mergeParPayload,
		SectionMatch: mergeMatchPayload,
	}
	for name, caps := range captures {
		merge := mergers[name]
		a, b, c := caps[0](), caps[1](), caps[2]()
		ab, err := merge(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ba, err := merge(b, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ab, ba) {
			t.Fatalf("%s: merge not commutative", name)
		}
		abc1, err := merge(ab, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bc, err := merge(b, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		abc2, err := merge(a, bc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(abc1, abc2) {
			t.Fatalf("%s: merge not associative", name)
		}
		if abc, err := merge(c, a, b); err != nil || !bytes.Equal(abc, abc1) {
			t.Fatalf("%s: one merge of three differs from two of two (%v)", name, err)
		}
	}
}

// TestMergeThroughSnapshots runs the real cluster path: two machines'
// registry snapshots, marshalled, parsed, and merged — the decoded
// live state must be the key-wise sum/union of the two.
func TestMergeThroughSnapshots(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ca := NewCollector(Config{Obs: regA})
	cb := NewCollector(Config{Obs: regB})
	ca.apply([]tapEntry{entry(meter.EvRecvCall, 0, 100, 3, 0, 10)})
	cb.apply([]tapEntry{entry(meter.EvRecvCall, 1, 200, 3, 0, 30)})
	cb.apply([]tapEntry{entry(meter.EvRecvCall, 0, 100, 3, 0, 50)}) // same proc seen remotely
	sa, err := obs.ParseSnapshot(regA.Snapshot().MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := obs.ParseSnapshot(regB.Snapshot().MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	sa.Merge(sb)
	sec := sa.Section(SectionComm)
	if sec == nil || len(sa.Sections) != 3 {
		t.Fatalf("merged snapshot sections: %+v", sa.Sections)
	}
	st, err := DecodeComm(sec.Data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 || len(st.Procs) != 2 {
		t.Fatalf("merged comm: %+v", st)
	}
	for i := range st.Procs {
		p := &st.Procs[i]
		want := int64(1)
		if p.Machine == 0 && p.PID == 100 {
			want = 2
		}
		if p.RecvCalls != want {
			t.Fatalf("proc m%d/p%d recvCalls %d, want %d", p.Machine, p.PID, p.RecvCalls, want)
		}
	}
	par, err := DecodePar(sa.Section(SectionPar).Data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.Procs {
		p := &par.Procs[i]
		if p.Machine == 0 && p.PID == 100 {
			if p.First != 10 || p.Last != 50 {
				t.Fatalf("interval union: %+v", *p)
			}
		}
	}
}

// TestCorruptPayloadsRejected pins the decoder behavior on the fuzz
// corpus shapes: truncation and oversized counts fail with
// ErrBadSection rather than panicking or misreading.
func TestCorruptPayloadsRejected(t *testing.T) {
	c := sampleCollector(0)
	for name, data := range map[string][]byte{
		SectionComm:  c.captureComm(),
		SectionPar:   c.capturePar(),
		SectionMatch: c.captureMatch(),
	} {
		decode := func(b []byte) error {
			var err error
			switch name {
			case SectionComm:
				_, err = DecodeComm(b)
			case SectionPar:
				_, err = DecodePar(b)
			case SectionMatch:
				_, err = DecodeMatch(b)
			}
			return err
		}
		if err := decode(data); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", name, err)
		}
		for cut := 1; cut <= len(data); cut++ {
			if err := decode(data[:len(data)-cut]); !errors.Is(err, ErrBadSection) {
				t.Fatalf("%s: truncated by %d: err=%v", name, cut, err)
			}
		}
	}
	// A corrupt count field must be bounded, not allocated.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := DecodePar(huge); !errors.Is(err, ErrBadSection) {
		t.Fatalf("oversized count: %v", err)
	}
	// Merging corrupt bytes degrades: the obs layer keeps both inputs.
	good := c.capturePar()
	if _, err := mergeParPayload(good, []byte{1, 2, 3}); !errors.Is(err, ErrBadSection) {
		t.Fatalf("merge of corrupt payload must error: %v", err)
	}
	sa := &obs.Snapshot{Sections: []obs.Section{{Name: SectionPar, Version: SectionVersion, Data: good}}}
	sb := &obs.Snapshot{Sections: []obs.Section{{Name: SectionPar, Version: SectionVersion, Data: []byte{1, 2, 3}}}}
	sa.Merge(sb)
	if len(sa.Sections) != 2 {
		t.Fatalf("corrupt merge must keep both sections, got %+v", sa.Sections)
	}
}

// TestUnknownVersionCarried checks mixed-version tolerance end to end:
// a future payload version is merged as an opaque extra section and
// rendered as unsupported, never decoded.
func TestUnknownVersionCarried(t *testing.T) {
	cur := obs.Section{Name: SectionMatch, Version: SectionVersion, Data: sampleCollector(0).captureMatch()}
	future := obs.Section{Name: SectionMatch, Version: SectionVersion + 1, Data: []byte("opaque-future-bytes")}
	sa := &obs.Snapshot{Sections: []obs.Section{cur}}
	sb := &obs.Snapshot{Sections: []obs.Section{future}}
	sa.Merge(sb)
	if len(sa.Sections) != 2 {
		t.Fatalf("future version must be carried: %+v", sa.Sections)
	}
	var out strings.Builder
	sa.Render(&out)
	if !strings.Contains(out.String(), fmt.Sprintf("unsupported payload v%d", SectionVersion+1)) {
		t.Fatalf("render: %q", out.String())
	}
	if !strings.Contains(out.String(), "live matching:") {
		t.Fatalf("current version must still render: %q", out.String())
	}
}

// TestVersionOneRefused: a version-1 payload — fixed-width process rows —
// is neither merged nor decoded. Two of them stay two sections, and each
// renders as unsupported, even when its bytes would parse as version 2.
func TestVersionOneRefused(t *testing.T) {
	c := sampleCollector(4)
	for name, data := range map[string][]byte{SectionComm: c.captureComm(), SectionPar: c.capturePar()} {
		sa := &obs.Snapshot{Sections: []obs.Section{{Name: name, Version: 1, Data: data}}}
		sb := &obs.Snapshot{Sections: []obs.Section{{Name: name, Version: 1, Data: data}}}
		sa.Merge(sb)
		if len(sa.Sections) != 2 {
			t.Fatalf("%s: version-1 payloads merged: %+v", name, sa.Sections)
		}
		var out strings.Builder
		sa.Render(&out)
		if got := strings.Count(out.String(), "unsupported payload v1"); got != 2 {
			t.Fatalf("%s: render %q", name, out.String())
		}
	}
}

// TestRenderSections spot-checks the human-readable render of all
// three operators.
func TestRenderSections(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(Config{Obs: reg})
	send := entry(meter.EvSend, 0, 1, 3, 100, 10)
	send.Name1 = meter.InetName(1, 99)
	c.apply([]tapEntry{send})
	var out strings.Builder
	reg.Snapshot().Render(&out)
	s := out.String()
	for _, want := range []string{
		"live communication: 1 events, 1 procs, sends 1 (100 B)",
		"send sizes: <=2^7:1",
		"m0->m1",
		"live parallelism: 1 procs (1 running)",
		"live matching: 0 conns, stream 0, dgram 0, aged out 0, pending 1",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("render missing %q:\n%s", want, s)
		}
	}
}

// TestSectionRoundTrip re-encodes a payload through its merger, alone,
// and checks nothing changes — the encode and decode are exact
// inverses on canonical payloads.
func TestSectionRoundTrip(t *testing.T) {
	c := sampleCollector(3)
	comm := c.captureComm()
	st, err := DecodeComm(comm)
	if err != nil {
		t.Fatal(err)
	}
	again, err := mergeCommPayload(comm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comm, again) {
		t.Fatalf("comm payload not canonical:\n%x\n%x", comm, again)
	}
	st2, err := DecodeComm(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("comm state changed across round trip")
	}
}
