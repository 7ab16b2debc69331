package daemon

// The daemon half of the framed protocol: one connection carries one
// exchange or a whole session of concurrent requests, each tagged with
// a request id, and replies return in completion order. The controller
// half lives in session.go (and Exchange in daemon.go); the frame
// format in frame.go.

import (
	"sync"

	"dpm/internal/obs"
)

// serveConn serves one accepted connection. A connection that does not
// open with the session magic is closed without a reply. Each request
// frame is executed on its own goroutine so a slow request (a query
// scanning a large store, say) never blocks the others. The connection
// is closed only after every outstanding handler finished, so a late
// reply can never land on a recycled descriptor.
func (d *daemonState) serveConn(conn int) {
	defer func() { _ = d.p.Close(conn) }()
	var handlers sync.WaitGroup
	defer handlers.Wait()
	rc := receiver{p: d.p, fd: conn}
	fr := frameReader{mem: d.frames}
	defer fr.release()
	if fr.open(rc.recv) != nil {
		return
	}
	saidHello := false
	for {
		f, err := fr.next(rc.recv)
		if err != nil {
			return // EOF, peer gone, or corrupt framing: the connection is over
		}
		switch f.Kind {
		case FrameHello:
			if !helloOK(f.Payload) {
				return // a version we do not speak
			}
			if !saidHello {
				saidHello = true
				// A failed send ends nothing: requests that arrived
				// before the peer went still run, as a lost reply's
				// request does (CreateReq.Token is for that case).
				_, _ = d.p.Send(conn, appendHello(nil))
			}
		case FramePing:
			// Heartbeat: echo the id back. Answered inline — a session
			// wedged behind a slow handler is exactly what the
			// heartbeat must NOT report as alive, but the handlers run
			// concurrently, so only a genuinely dead daemon misses one.
			if _, err := d.p.Send(conn, AppendFrame(nil, FramePong, f.ID, nil)); err != nil {
				return
			}
		case FrameReq:
			if _, _, err := openWire(f.Payload, false); err != nil {
				return // corrupt payload: tear the connection down
			}
			// The handler's own copy: the reader reuses its buffer.
			r := requestFree.Take(len(f.Payload), d.requests)
			if r.serve == nil {
				r.serve = r.run
			}
			r.d, r.conn, r.id, r.done = d, conn, f.ID, &handlers
			r.payload = append(r.payload[:0], f.Payload...)
			handlers.Add(1)
			d.p.Go(r.serve)
		default:
			// Unknown frame kinds are skipped for forward compatibility,
			// the discipline QueryReq field 5 established for the body
			// formats.
		}
	}
}

// request is one request frame a connection serves on a goroutine of
// its own: the connection, the request id and a copy of the payload,
// whose strings the handler reads in place. Requests are recycled
// through requestFree with their payload arrays and their serve funcs,
// so dispatching one allocates only the goroutine's start.
type request struct {
	d       *daemonState
	conn    int
	id      uint64
	payload []byte
	done    *sync.WaitGroup // the connection's outstanding handlers
	serve   func()          // run, made at the request's first use
}

// requestFree holds requests between uses, weighed by their payload
// arrays: a connection's requests are control messages of a few
// hundred bytes, a query's rules a few kilobytes.
var requestFree = &obs.FreeList[*request]{Name: "requests", Count: 64, Bytes: 1 << 20,
	Size:   func(r *request) int { return cap(r.payload) },
	New:    func(n int) *request { return &request{payload: make([]byte, 0, n)} },
	Poison: func(r *request) { obs.PoisonBytes(r.payload) }}

// run handles the request and sends its reply, then gives the request
// back: nothing the handler keeps may point into the payload.
func (r *request) run() {
	d, done := r.d, r.done
	defer done.Done()
	rep := d.handle(r.payload)
	// One Send per frame: kernel sends are atomic, so concurrent
	// repliers cannot interleave frame bytes.
	_ = d.sendReply(r.conn, r.id, &rep)
	r.d, r.done = nil, nil
	requestFree.Put(r, d.requests)
}
