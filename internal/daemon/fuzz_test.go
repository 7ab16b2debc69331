package daemon

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeWire holds the message codec to the reference readers of
// wireref_test.go on arbitrary payloads. DecodeWire accepts what
// refDecode accepts, with the same type and fields, refuses the rest
// with ErrWireCorrupt, and what it accepts re-encodes to the same
// bytes. Each typed reader, whether it copies its strings or reads them
// in place, agrees field for field with the reference parser of its
// type: fields past the last read as zero or empty, fields past the
// body are ignored, a number that is none reads as 0, and a create
// whose parameter count its fields cannot hold is refused with
// ErrWireCorrupt. What a typed reader parses re-encodes to the bytes of
// what the reference parsed, and a reader in place reads every string
// from the payload itself.
func FuzzDecodeWire(f *testing.F) {
	for _, c := range wireCases() {
		f.Add(c.msg.Wire().Encode())
	}
	f.Add((&WireMsg{Type: TCreateReq, Fields: []string{"/bin/x", "9223372036854775807"}}).Encode())
	f.Add((&WireMsg{Type: TSetFlagsReq, Fields: []string{"+7", "x", "4294967296", "70000", "h", "p", "-1", "trailing"}}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWire(data)
		ref, refErr := refDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeWire: %v; reference: %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrWireCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if w.Type != ref.Type || !slices.Equal(w.Fields, ref.Fields) {
			t.Fatalf("DecodeWire: %v %q; reference: %v %q", w.Type, w.Fields, ref.Type, ref.Fields)
		}
		if re := w.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("re-encodes to %d bytes, not the %d it came from", len(re), len(data))
		}
		want := refReads(ref)
		for _, own := range []bool{true, false} {
			payload := slices.Clone(data)
			got := typedReads(t, payload, own)
			if len(got) != len(want) {
				t.Fatalf("own %v: %d typed reads, %d reference reads", own, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("own %v, %T:\n got %+v\nwant %+v", own, want[i], got[i], want[i])
				}
				if m, ok := got[i].(Message); ok {
					if re, rw := m.appendWire(nil), want[i].(Message).appendWire(nil); !bytes.Equal(re, rw) {
						t.Fatalf("own %v, %T: re-encodes to %q, the reference's to %q", own, m, re, rw)
					}
				}
			}
			if own {
				continue
			}
			clear(payload)
			for _, v := range got {
				eachString(reflect.ValueOf(v), func(s string) {
					if s != "ok" && strings.Count(s, "\x00") != len(s) {
						t.Fatalf("in place: %T's %q is not read from the payload", v, s)
					}
				})
			}
		}
	})
}

// refused stands for a parse a reader refused with ErrWireCorrupt.
type refused struct{}

// typedReads is every typed reading of payload, which openWire accepts:
// as a process request, a reply and each notice whatever its type, and
// as a create, query or agg request when it is one.
func typedReads(t *testing.T, payload []byte, own bool) []any {
	typ, f, err := openWire(payload, own)
	if err != nil {
		t.Fatalf("openWire refuses what DecodeWire accepts: %v", err)
	}
	at := func() *fieldReader { g := f; return &g }
	rep, err := readReply(payload, own)
	if err != nil {
		t.Fatalf("readReply refuses what DecodeWire accepts: %v", err)
	}
	pr, sc, io := readProcReq(typ, at()), readStateChange(at()), readIOData(at())
	out := []any{&pr, rep, &sc, &io}
	switch typ {
	case TCreateReq:
		r, err := readCreateReq(at())
		switch {
		case err == nil:
			out = append(out, &r)
		case errors.Is(err, ErrWireCorrupt):
			out = append(out, refused{})
		default:
			t.Fatalf("create refused with %v", err)
		}
	case TQueryReq:
		r := readQueryReq(at())
		out = append(out, &r)
	case TAggReq:
		r := readAggReq(at())
		out = append(out, &r)
	}
	return out
}

// refReads is typedReads through the reference parsers.
func refReads(w *WireMsg) []any {
	out := []any{refProcReq(w), refReply(w), refStateChange(w), refIOData(w)}
	switch w.Type {
	case TCreateReq:
		if r, err := refCreateReq(w); err == nil {
			out = append(out, r)
		} else {
			out = append(out, refused{})
		}
	case TQueryReq:
		r, _ := refQueryReq(w)
		out = append(out, r)
	case TAggReq:
		r, _ := refAggReq(w)
		out = append(out, r)
	}
	return out
}

// eachString calls fn with every string v holds in its exported fields.
func eachString(v reflect.Value, fn func(string)) {
	switch v.Kind() {
	case reflect.Pointer:
		eachString(v.Elem(), fn)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				eachString(v.Field(i), fn)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachString(v.Index(i), fn)
		}
	case reflect.String:
		fn(v.String())
	}
}
