package filter

import (
	"testing"

	"dpm/internal/meter"
	"dpm/internal/trace"
)

// These tests lock in the zero-allocation guarantee of the filter hot
// path: decoding, selection, and formatting of a record must not
// touch the heap once buffers are warm. They are regression gates — CI
// fails if an allocation creeps back in.

func allocStream(n int) []byte {
	var stream []byte
	dest := meter.InetName(228320140, 512)
	for i := 0; i < n; i++ {
		m := meter.Msg{
			Header: meter.Header{Machine: uint16(i % 4), CPUTime: uint32(100 * i), ProcTime: uint32(i)},
			Body:   &meter.Send{PID: uint32(i), PC: 0x400, Sock: 3, MsgLength: uint32(64 + i), DestNameLen: 16, DestName: dest},
		}
		stream = m.AppendEncode(stream)
	}
	return stream
}

// TestExtractSelectFormatZeroAllocs gates each step of a record through
// the compiled program on its own: decoding into the slots, selection,
// and formatting the line from them.
func TestExtractSelectFormatZeroAllocs(t *testing.T) {
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules([]byte("machine=1, cpuTime<100000, msgLength=#*\npid>=0\n"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileProgram(d, rs)
	if err != nil {
		t.Fatal(err)
	}
	raw := allocStream(1)
	var (
		h meter.Header
		s trace.Slots
	)
	pl, err := prog.decode(raw, &h, &s)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1024)

	if n := testing.AllocsPerRun(200, func() {
		if _, err := prog.decode(raw, &h, &s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decode allocates %v per record, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		pl.selectRec(&h, &s, raw[meter.HeaderSize:])
	}); n != 0 {
		t.Fatalf("selectRec allocates %v per record, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		dst = s.AppendLine(dst[:0], h.TraceType, int(h.Machine), int64(h.CPUTime))
	}); n != 0 {
		t.Fatalf("AppendLine allocates %v per record, want 0", n)
	}
}

// TestProcessBatchZeroAllocs gates the path every pipeline worker runs —
// decode, select, format, and the batch's store records — at zero
// heap allocations once the batch's and the engine's buffers are warm,
// with every record of the flush handed over typed.
func TestProcessBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation gate runs in the non-race pass")
	}
	eng, err := NewEngine([]byte(StandardDescriptions), []byte("machine>=0, msgLength=#*\n"))
	if err != nil {
		t.Fatal(err)
	}
	stream := allocStream(16)
	var batch Batch
	flush := func() {
		batch.Reset()
		rest, err := eng.ProcessBatch(stream, &batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatal("stream not fully consumed")
		}
		for i, r := range batch.StoreRecs() {
			if r.Slots == nil || len(r.Line) == 0 {
				t.Fatalf("record %d: line %q, typed %v; want a line, typed", i, r.Line, r.Slots != nil)
			}
		}
	}
	// Warm the batch, the engine and the pool so every buffer reaches
	// steady-state capacity.
	flush()
	if batch.Len() != 16 {
		t.Fatalf("kept %d records, want 16", batch.Len())
	}
	if n := testing.AllocsPerRun(100, flush); n != 0 {
		t.Fatalf("ProcessBatch allocates %v per 16-record flush, want 0", n)
	}
}

// TestProcessEachZeroAllocs gates the per-record flush — a worker whose
// connection delivers one frame per read hands ProcessBatch each record
// as a chunk of its own — at zero heap allocations per record, with
// each record handed over typed.
func TestProcessEachZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts; allocation gate runs in the non-race pass")
	}
	eng, err := NewEngine([]byte(StandardDescriptions), []byte("machine>=0, msgLength=#*\n"))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for stream := allocStream(16); len(stream) > 0; {
		size, err := frameSize(stream)
		if err != nil || size == 0 {
			t.Fatalf("frame %d: size %d, err %v", len(frames), size, err)
		}
		frames = append(frames, stream[:size])
		stream = stream[size:]
	}
	var batch Batch
	emitted := 0
	each := func() {
		for _, f := range frames {
			batch.Reset()
			rest, err := eng.ProcessBatch(f, &batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatal("frame not fully consumed")
			}
			recs := batch.StoreRecs()
			if len(recs) != 1 || recs[0].Slots == nil || len(recs[0].Line) == 0 {
				t.Fatalf("kept %d records for one frame; want one line, typed", len(recs))
			}
			emitted++
		}
	}
	// Warm the batch and the engine.
	each()
	if emitted != 16 {
		t.Fatalf("emitted %d records, want 16", emitted)
	}
	if n := testing.AllocsPerRun(100, each); n != 0 {
		t.Fatalf("per-record ProcessBatch allocates %v per 16-record stream, want 0", n)
	}
}

// TestRulesSelectNoDiscardNoAlloc guards the interpreter-side fix:
// a matching rule without '#' conditions must not allocate a discard
// map per record.
func TestRulesSelectNoDiscardNoAlloc(t *testing.T) {
	d, err := ParseDescriptions([]byte(StandardDescriptions))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules([]byte("machine>=0\n"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.Extract(allocStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		keep, discards := rs.Select(rec)
		if !keep || discards != nil {
			t.Fatal("unexpected selection result")
		}
	}); n != 0 {
		t.Fatalf("Select allocates %v per record with no discards, want 0", n)
	}
}

// TestBufferAddSteadyStateZeroAllocs guards the meter buffer's batch
// recycling: once the pending and spare buffers are grown, Add and the
// flush cycle allocate nothing.
func TestBufferAddSteadyStateZeroAllocs(t *testing.T) {
	b := meter.NewBuffer(8, func([]byte) {})
	m := &meter.Msg{Header: meter.Header{Machine: 1}, Body: &meter.Fork{PID: 9, NewPID: 10}}
	for i := 0; i < 32; i++ {
		b.Add(m, false)
	}
	if n := testing.AllocsPerRun(160, func() {
		b.Add(m, false)
	}); n != 0 {
		t.Fatalf("Buffer.Add allocates %v per message at steady state, want 0", n)
	}
}
