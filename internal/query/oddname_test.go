package query_test

import (
	"bytes"
	"testing"

	"dpm/internal/filter"
	"dpm/internal/meter"
	"dpm/internal/query"
	"dpm/internal/store"
)

// TestOddNamesQueryable: records whose socket names no line spells — a
// UNIX path with a blank, which the kernel binds like any other, and an
// AF_UNSPEC name that is not all zero — go from the filter through the
// store to a query like every other record: each is returned, read
// typed, as the very line the flat log got.
func TestOddNamesQueryable(t *testing.T) {
	unspec := meter.Name{0, 0, 1, 0xfe}
	inet := meter.InetName(228320140, 512)
	var stream []byte
	for i, body := range []meter.Body{
		&meter.Send{PID: 3, Sock: 4, MsgLength: 9, DestNameLen: 16, DestName: meter.UnixName("/tmp/a b")},
		&meter.Recv{PID: 3, Sock: 4, MsgLength: 9, SourceNameLen: 16, SourceName: unspec},
		&meter.Connect{PID: 3, Sock: 4, SockNameLen: 16, PeerNameLen: 16, SockName: meter.UnixName("/my sock"), PeerName: unspec},
		&meter.Accept{PID: 3, Sock: 4, NewSock: 5, SockNameLen: 16, PeerNameLen: 16, SockName: inet, PeerName: meter.UnixName("/a b")},
		&meter.Send{PID: 3, Sock: 4, MsgLength: 9, DestNameLen: 16, DestName: inet},
	} {
		m := meter.Msg{Header: meter.Header{Machine: 2, CPUTime: uint32(100 + i), ProcTime: 10}, Body: body}
		stream = m.AppendEncode(stream)
	}
	eng, err := filter.NewEngine([]byte(filter.StandardDescriptions), nil)
	if err != nil {
		t.Fatal(err)
	}
	var b filter.Batch
	if _, err := eng.ProcessBatch(stream, &b); err != nil {
		t.Fatal(err)
	}
	be := store.NewMemBackend()
	st, err := store.Open(be, store.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(b.StoreRecs()); err != nil {
		t.Fatal(err)
	}
	for _, seal := range []bool{false, true} {
		if seal {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		rd, err := store.OpenReader(be)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Compile("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Run(rd, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Records != b.Len() || res.Stats.Typed != res.Stats.Records || res.Stats.Matched != b.Len() {
			t.Fatalf("sealed=%v: stats %+v, want all %d records read typed and returned", seal, res.Stats, b.Len())
		}
		if !bytes.Equal(res.Lines, b.Lines) {
			t.Fatalf("sealed=%v: the query returns\n%s\nthe flat log got\n%s", seal, res.Lines, b.Lines)
		}
	}
}
