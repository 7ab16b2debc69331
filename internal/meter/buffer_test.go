package meter

import (
	"testing"
)

func msgOf(body Body) *Msg {
	return &Msg{Header: Header{Machine: 1}, Body: body}
}

// collectingSend returns a send func and a pointer to the batches it
// received.
func collectingSend() (func([]byte), *[][]byte) {
	var batches [][]byte
	return func(b []byte) {
		cp := append([]byte(nil), b...)
		batches = append(batches, cp)
	}, &batches
}

func TestBufferHoldsUntilThreshold(t *testing.T) {
	send, batches := collectingSend()
	b := NewBuffer(4, send)
	for i := 0; i < 3; i++ {
		b.Add(msgOf(&Fork{PID: uint32(i)}), false)
	}
	if len(*batches) != 0 {
		t.Fatalf("flushed after %d < threshold messages", 3)
	}
	if b.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", b.Pending())
	}
	b.Add(msgOf(&Fork{PID: 3}), false)
	if len(*batches) != 1 {
		t.Fatalf("batches = %d, want 1", len(*batches))
	}
	if b.Pending() != 0 {
		t.Fatalf("Pending = %d after flush, want 0", b.Pending())
	}
	msgs, rest, err := DecodeStream((*batches)[0])
	if err != nil || len(rest) != 0 {
		t.Fatalf("batch not decodable: %v, rest %d", err, len(rest))
	}
	if len(msgs) != 4 {
		t.Fatalf("batch holds %d messages, want 4", len(msgs))
	}
}

func TestImmediateBypassesBuffering(t *testing.T) {
	send, batches := collectingSend()
	b := NewBuffer(100, send)
	b.Add(msgOf(&Fork{}), true)
	if len(*batches) != 1 {
		t.Fatal("immediate message not sent at once")
	}
}

func TestFlushSendsPendingAndIsIdempotent(t *testing.T) {
	send, batches := collectingSend()
	b := NewBuffer(100, send)
	b.Add(msgOf(&Fork{}), false)
	b.Flush()
	if len(*batches) != 1 {
		t.Fatal("Flush did not send pending batch")
	}
	b.Flush()
	if len(*batches) != 1 {
		t.Fatal("empty Flush produced a batch")
	}
}

func TestBufferingReducesFlushes(t *testing.T) {
	// The buffering claim of section 4.1: the number of messages sent
	// to the filter is considerably smaller than the number of events.
	send, _ := collectingSend()
	b := NewBuffer(DefaultBufferCount, send)
	const events = 800
	for i := 0; i < events; i++ {
		b.Add(msgOf(&Send{PID: uint32(i)}), false)
	}
	st := b.Stats()
	if st.Events != events {
		t.Fatalf("Events = %d, want %d", st.Events, events)
	}
	if st.Flushes != events/DefaultBufferCount {
		t.Fatalf("Flushes = %d, want %d", st.Flushes, events/DefaultBufferCount)
	}
}

func TestNoEventLoss(t *testing.T) {
	send, batches := collectingSend()
	b := NewBuffer(7, send)
	const events = 100
	for i := 0; i < events; i++ {
		b.Add(msgOf(&Fork{PID: uint32(i)}), false)
	}
	b.Flush() // process termination forwards unsent messages
	var total int
	var pids []uint32
	for _, batch := range *batches {
		msgs := decodeAll(t, batch)
		total += len(msgs)
		for _, m := range msgs {
			pids = append(pids, m.Body.(*Fork).PID)
		}
	}
	if total != events {
		t.Fatalf("recovered %d events, want %d", total, events)
	}
	for i, pid := range pids {
		if pid != uint32(i) {
			t.Fatalf("event order broken at %d: pid %d", i, pid)
		}
	}
}

func TestThresholdBelowOneMeansUnbuffered(t *testing.T) {
	send, batches := collectingSend()
	b := NewBuffer(0, send)
	b.Add(msgOf(&Fork{}), false)
	if len(*batches) != 1 {
		t.Fatal("threshold 0 should behave as unbuffered")
	}
}

func TestStatsBytes(t *testing.T) {
	send, _ := collectingSend()
	b := NewBuffer(1, send)
	m := msgOf(&Fork{})
	b.Add(m, false)
	if st, want := b.Stats(), len(m.Encode()); st.Bytes != int64(want) {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, want)
	}
}
