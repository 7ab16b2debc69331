package daemon

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzDecodeWire checks the whole-payload message decoder on arbitrary
// bytes: no panics, only ErrWireCorrupt refusals, and an accepted
// payload is exactly one message — it re-encodes to the same bytes.
// The in-place decode of a lent frame accepts and refuses what the
// copying decode does, and yields exactly its type and fields, each
// read from the payload's own bytes.
func FuzzDecodeWire(f *testing.F) {
	f.Add((&CreateReq{Filename: "/bin/x", Params: []string{"a", "b"}, UID: 1}).Wire().Encode())
	f.Add((&StateChange{Machine: "red", PID: 7, Reason: "normal"}).Wire().Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWire(data)
		lent := slices.Clone(data)
		in, inErr := decodeWire(lent, true)
		if (err == nil) != (inErr == nil) {
			t.Fatalf("copying decode: %v; in place: %v", err, inErr)
		}
		if err != nil {
			if !errors.Is(err, ErrWireCorrupt) || !errors.Is(inErr, ErrWireCorrupt) {
				t.Fatalf("unexpected error class: %v; in place: %v", err, inErr)
			}
			return
		}
		if re := w.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("re-encodes to %d bytes, not the %d it came from", len(re), len(data))
		}
		if in.Type != w.Type || !slices.Equal(in.Fields, w.Fields) {
			t.Fatalf("in place: %v %q; copying: %v %q", in.Type, in.Fields, w.Type, w.Fields)
		}
		clear(lent)
		for i, f := range in.Fields {
			if strings.Count(f, "\x00") != len(f) {
				t.Fatalf("in place: field %d is not read from the payload", i)
			}
		}
	})
}
