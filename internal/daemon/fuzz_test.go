package daemon

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeWire checks the whole-payload message decoder on arbitrary
// bytes: no panics, only ErrWireCorrupt refusals, and an accepted
// payload is exactly one message — it re-encodes to the same bytes.
func FuzzDecodeWire(f *testing.F) {
	f.Add((&CreateReq{Filename: "/bin/x", Params: []string{"a", "b"}, UID: 1}).Wire().Encode())
	f.Add((&StateChange{Machine: "red", PID: 7, Reason: "normal"}).Wire().Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWire(data)
		if err != nil {
			if !errors.Is(err, ErrWireCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if re := w.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("re-encodes to %d bytes, not the %d it came from", len(re), len(data))
		}
	})
}
