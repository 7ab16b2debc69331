package filter

import (
	"fmt"
	"strconv"
	"unsafe"

	"dpm/internal/fsys"
	"dpm/internal/kernel"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// LogPath returns the log file a filter of the given name writes, in
// the /usr/tmp directory the paper specifies (section 3.4).
func LogPath(name string) string { return "/usr/tmp/" + name + ".log" }

// StorePath returns the event-store directory a filter of the given
// name writes beside its flat log. The flat log remains the
// compatibility surface (getlog, ReadTrace); the store is the indexed
// form queries run against.
func StorePath(name string) string { return "/usr/tmp/" + name + ".store" }

// StatsPath returns the JSON metrics snapshot a filter of the given
// name exports beside its log at shutdown — the forensic record a
// chaos soak inspects after the fact.
func StatsPath(name string) string { return "/usr/tmp/" + name + ".stats.json" }

// DefaultDescriptionsPath and DefaultTemplatesPath are the standard
// file names the controller falls back to ("standard filenames
// ('templates' and 'descriptions') are used", section 4.3).
const (
	DefaultDescriptionsPath = "/etc/meter/descriptions"
	DefaultTemplatesPath    = "/etc/meter/templates"
)

// Engine is the reusable selection/reduction core of a filter: framing
// of the meter byte stream, record decoding via descriptions, and
// rule evaluation. The standard filter drives it from a socket loop;
// custom filters (section 3.4 allows them, "given a few basic
// constraints") can drive it from anything that yields meter bytes.
//
// At construction the descriptions and rules are compiled into a
// program of field plans (compile.go); the steady-state batch path
// decodes, selects and formats records with zero heap allocations per
// record.
type Engine struct {
	prog *Program

	// slots holds the records ProcessBatch is filling a batch with,
	// slots[i] for the batch's record i, each decoded straight into its
	// slot. They are the engine's — one of a pipeline's Workers — and
	// not a pool's or the batch's: batches are pooled, a pool empties at
	// every GC, and each new batch would grow its slots again.
	slots []trace.Slots

	// tap, when non-nil, observes every kept record (tap.go). Not
	// carried by Clone — pipeline engines each get their own.
	tap RecordTap

	// Stats counts the engine's record traffic.
	Received  int
	Kept      int
	Discarded int
}

// NewEngine builds an engine from descriptions and templates file
// contents. Empty templates select everything.
func NewEngine(descData, tmplData []byte) (*Engine, error) {
	d, err := ParseDescriptions(descData)
	if err != nil {
		return nil, err
	}
	r, err := ParseRules(tmplData)
	if err != nil {
		return nil, err
	}
	prog, err := CompileProgram(d, r)
	if err != nil {
		return nil, err
	}
	return &Engine{prog: prog}, nil
}

// Clone returns an engine sharing this engine's compiled program —
// immutable after construction — but with independent statistics and
// buffers. The ingest pipeline holds Workers clones so concurrent
// feeds select without any shared state.
func (e *Engine) Clone() *Engine {
	return &Engine{prog: e.prog}
}

// Batch accumulates one flush's worth of surviving records: the
// concatenated '\n'-terminated log lines (the flat-log image, written
// with a single file append), the per-record store metadata and typed
// form. A Batch is reused across flushes via Reset, so the steady state
// allocates nothing. One engine fills a batch between Resets, and the
// typed forms are that engine's (Engine.slots): StoreRecs hands them to
// the store until the engine's next ProcessBatch into another batch.
type Batch struct {
	// Lines is the flat-log image: each record's formatted line
	// followed by '\n'.
	Lines []byte
	metas []store.Meta
	ends  []int // end offset of each record's line in Lines, excluding '\n'
	slots []trace.Slots
	recs  []store.BatchRec
}

// Reset empties the batch, retaining capacity, and lets go of the
// engine's slots.
func (b *Batch) Reset() {
	b.Lines = b.Lines[:0]
	b.metas = b.metas[:0]
	b.ends = b.ends[:0]
	b.slots = nil
}

// size is the bytes the batch's own arrays hold; the slots are the
// engine's.
func (b *Batch) size() int {
	return cap(b.Lines) + cap(b.ends)*8 + cap(b.metas)*int(unsafe.Sizeof(store.Meta{})) +
		cap(b.recs)*int(unsafe.Sizeof(store.BatchRec{}))
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.ends) }

// Line returns the i'th record's formatted line (no trailing '\n').
// The slice aliases the batch and is valid until the next Reset.
func (b *Batch) Line(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1] + 1
	}
	return b.Lines[start:b.ends[i]]
}

// StoreRecs materializes the batch as store append records. The
// returned slice, its lines and its slots alias the batch and its
// engine; hand it straight to Store.AppendBatch before the next Reset.
func (b *Batch) StoreRecs() []store.BatchRec {
	b.recs = b.recs[:0]
	start := 0
	for i, end := range b.ends {
		b.recs = append(b.recs, store.BatchRec{Meta: b.metas[i], Line: b.Lines[start:end], Slots: &b.slots[i]})
		start = end + 1
	}
	return b.recs
}

// frameSize validates and returns the size field of the frame at the
// front of buf; n == 0 means incomplete.
func frameSize(buf []byte) (int, error) {
	size, err := meter.PeekSize(buf)
	if err != nil {
		return 0, fmt.Errorf("filter: corrupt size field: %w", err)
	}
	return size, nil
}

// ProcessBatch consumes raw meter-stream bytes and appends every
// surviving record's formatted line, store metadata and typed form to
// the batch, returning the unconsumed tail.
// Each message is decoded once, into the slot of the batch's next
// record; selection, the tap, the line and the store read that slot.
// This is the filter's hot path: with the batch's and the engine's
// buffers at capacity it performs zero heap allocations per record.
func (e *Engine) ProcessBatch(buf []byte, b *Batch) (rest []byte, err error) {
	var h meter.Header
	for {
		size, err := frameSize(buf)
		if err != nil || size == 0 {
			return buf, err
		}
		s := e.slot(b)
		pl, err := e.prog.decode(buf[:size], &h, s)
		if err != nil {
			return buf, err
		}
		body := buf[meter.HeaderSize:size]
		buf = buf[size:]
		e.Received++
		keep, rule := pl.selectRec(&h, s, body)
		if !keep {
			e.Discarded++
			continue
		}
		e.Kept++
		// pid leads every stored order.
		pid, _ := s.Field(h.TraceType, 0)
		b.metas = append(b.metas, store.Meta{Machine: h.Machine, Time: h.CPUTime, Type: uint32(h.TraceType), PID: uint32(pid)})
		if e.tap != nil {
			e.tap.TapRecord(&b.metas[len(b.metas)-1], s)
		}
		pr := &pl.keepAll
		if rule >= 0 {
			pr = &pl.rules[rule]
		}
		s.Drop(pr.drop)
		b.Lines = s.AppendLine(b.Lines, h.TraceType, int(h.Machine), int64(h.CPUTime))
		b.ends = append(b.ends, len(b.Lines))
		b.Lines = append(b.Lines, '\n')
	}
}

// slot returns the engine's typed record for the batch's next record.
func (e *Engine) slot(b *Batch) *trace.Slots {
	i := len(b.ends)
	for len(e.slots) <= i {
		e.slots = append(e.slots, trace.Slots{})
	}
	b.slots = e.slots
	return &e.slots[i]
}

// StoreConfig is the configuration every filter opens its event store
// with, its counters on reg — exported so a benchmark of "the filter's
// store" measures this and not a literal of its own. Segments a cpuTime
// half-minute colder than the newest record roll into the archival
// tier; like the flat log, the store keeps every record, so the two
// answer identically.
func StoreConfig(reg *obs.Registry) store.Config {
	return store.Config{Obs: reg, ArchiveAfter: 30_000}
}

// Main is the standard filter program. Its arguments are
//
//	args[0] filter name (determines the log file)
//	args[1] listen port
//	args[2] descriptions file path (optional; default standard file)
//	args[3] templates file path (optional; default standard file)
//
// It binds a stream socket, accepts one meter connection per metered
// process creation, applies selection, and appends surviving records
// to its log file. Each connection is drained by its own goroutine,
// which runs its chunks through a Pipeline in order: selection and
// formatting with one of GOMAXPROCS engines, the store append on the
// sharded store, then the log append, which the pipeline serializes
// across connections. It runs until killed;
// "The events detected and logged by the filter process are not seen
// by the user as they occur" (section 3.4) — the user retrieves the
// log afterwards with getlog.
func Main(p *kernel.Process) int {
	args := p.Args()
	if len(args) < 2 {
		p.Printf("filter: usage: name port [descriptions [templates]]\n")
		return 1
	}
	name := args[0]
	port64, err := strconv.ParseUint(args[1], 10, 16)
	if err != nil {
		p.Printf("filter: bad port %q\n", args[1])
		return 1
	}
	descPath, tmplPath := DefaultDescriptionsPath, DefaultTemplatesPath
	if len(args) > 2 && args[2] != "" {
		descPath = args[2]
	}
	if len(args) > 3 && args[3] != "" {
		tmplPath = args[3]
	}

	descData, err := p.ReadFile(descPath)
	if err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}
	// A missing templates file means no selection: keep everything.
	tmplData, err := p.ReadFile(tmplPath)
	if err != nil {
		tmplData = nil
	}
	eng, err := NewEngine(descData, tmplData)
	if err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}

	// The event store rides beside the flat log: same records, framed
	// and indexed so queries can prune segments instead of shipping the
	// whole log (internal/store). Opening recovers any segments a
	// previous incarnation left unsealed. Every subsystem of the filter
	// hangs its metrics on the machine's registry, so one stats request
	// to the local daemon sees the whole node.
	reg := p.Machine().Obs()
	st, err := store.Open(store.NewFsysBackend(p.Machine().FS(), p.UID(), StorePath(name)), StoreConfig(reg))
	if err != nil {
		p.Printf("filter: store: %v\n", err)
		return 1
	}

	lfd, err := p.Socket(meter.AFInet, kernel.SockStream)
	if err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}
	if err := p.BindPort(lfd, uint16(port64)); err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}
	if err := p.Listen(lfd, 32); err != nil {
		p.Printf("filter: %v\n", err)
		return 1
	}

	// Live streaming analysis taps the pipeline when a factory is
	// installed (core wires internal/analysis/live here); the section
	// providers it registers on reg ride every stats snapshot.
	var taps TapSource
	if fn := loadTapFactory(); fn != nil {
		taps = fn(reg, name)
	}

	logPath := LogPath(name)
	pipe := NewPipeline(eng, PipelineConfig{Obs: reg, Taps: taps}, Sinks{
		Store: st,
		Log:   func(lines []byte) error { return p.AppendFile(logPath, lines) },
	}, nil)
	// On kill the Accept below unwinds, and Close waits for the feeds
	// in progress, which end or unwind at their next system call. The
	// snapshot export runs after Close so its counters are final, and
	// writes through the machine's file system directly — process
	// syscalls are unusable during a kill unwind, and the forensic
	// record matters most when the filter died by fault injection.
	defer p.Machine().ExportStats(StatsPath(name), p.UID())
	defer pipe.Close()

	for {
		nfd, _, err := p.Accept(lfd)
		if err != nil {
			return 0 // killed: normal filter shutdown
		}
		fd := nfd
		src := pipe.NewSource()
		p.Go(func() {
			defer func() { _ = p.Close(fd) }()
			// Until EOF or an error, when the metered process (and
			// every holder of its meter socket) is gone.
			src.Drain(func(max int, get func() []byte) ([]byte, int, error) { return p.RecvLazy(fd, max, get) })
		})
	}
}

// ProgramName is the registry name of the standard filter program; the
// default filter executable file refers to it.
const ProgramName = "dpm-filter"

// Install registers the standard filter program with a cluster and
// writes the standard descriptions and (empty) templates files plus
// the default filter executable onto a machine. uid owns the files.
func Install(c *kernel.Cluster, m *kernel.Machine, uid int) error {
	c.RegisterProgram(ProgramName, Main)
	if err := m.FS().Create(DefaultDescriptionsPath, uid, fsys.DefaultMode, []byte(StandardDescriptions)); err != nil {
		return err
	}
	if !m.FS().Exists(DefaultTemplatesPath) {
		if err := m.FS().Create(DefaultTemplatesPath, uid, fsys.DefaultMode, nil); err != nil {
			return err
		}
	}
	return m.FS().CreateExecutable("/bin/filter", uid, ProgramName)
}
