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
// of the meter byte stream, record extraction via descriptions, and
// rule evaluation. The standard filter drives it from a socket loop;
// custom filters (section 3.4 allows them, "given a few basic
// constraints") can drive it from anything that yields meter bytes.
//
// At construction the descriptions and rules are compiled into an
// index-based program (compile.go); the steady-state batch path
// extracts, selects, formats and types records with zero heap
// allocations per record.
type Engine struct {
	desc  *Descriptions
	rules Rules
	prog  *Program

	// rec is the record every message is extracted into, and slots the
	// typed form of the records ProcessBatch is filling a batch with,
	// slots[i] for the batch's record i. Both are the engine's — one per
	// pipeline worker — and not a pool's or the batch's: batches are
	// pooled, a pool empties at every GC, and each new batch would grow
	// its slots again.
	rec   Record
	slots []trace.Slots

	// tap, when non-nil, observes every kept record (tap.go). Not
	// carried by Clone — pipeline workers each get their own.
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
	return &Engine{desc: d, rules: r, prog: CompileProgram(d, r)}, nil
}

// Clone returns an engine sharing this engine's descriptions, rules,
// and compiled program — all immutable after construction — but with
// independent statistics and buffers. The parallel ingest
// pipeline gives each worker a clone so selection runs without any
// cross-worker state.
func (e *Engine) Clone() *Engine {
	return &Engine{desc: e.desc, rules: e.rules, prog: e.prog}
}

// Batch accumulates one flush's worth of surviving records: the
// concatenated '\n'-terminated log lines (the flat-log image, written
// with a single file append), the per-record store metadata and, for
// every record whose line is standard, its typed form. A Batch is
// reused across flushes via Reset, so the steady state allocates
// nothing. One engine fills a batch between Resets, and the typed forms
// are that engine's (Engine.slots): StoreRecs hands them to the store
// until the engine's next ProcessBatch into another batch.
type Batch struct {
	// Lines is the flat-log image: each record's formatted line
	// followed by '\n'.
	Lines []byte
	metas []store.Meta
	ends  []int  // end offset of each record's line in Lines, excluding '\n'
	typed []bool // whether slots[i] is record i's typed form
	slots []trace.Slots
	recs  []store.BatchRec
}

// Reset empties the batch, retaining capacity, and lets go of the
// engine's slots.
func (b *Batch) Reset() {
	b.Lines = b.Lines[:0]
	b.metas = b.metas[:0]
	b.ends = b.ends[:0]
	b.typed = b.typed[:0]
	b.slots = nil
}

// size is the bytes the batch's own arrays hold; the slots are the
// engine's.
func (b *Batch) size() int {
	return cap(b.Lines) + cap(b.ends)*8 + cap(b.typed) + cap(b.metas)*int(unsafe.Sizeof(store.Meta{})) +
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

// StoreRecs materializes the batch as store append records, typed where
// the line is standard. The returned slice, its lines and its slots
// alias the batch and its engine; hand it straight to Store.AppendBatch
// before the next Reset.
func (b *Batch) StoreRecs() []store.BatchRec {
	b.recs = b.recs[:0]
	start := 0
	for i, end := range b.ends {
		r := store.BatchRec{Meta: b.metas[i], Line: b.Lines[start:end]}
		if b.typed[i] {
			r.Slots = &b.slots[i]
		}
		b.recs = append(b.recs, r)
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
// surviving record's formatted line, store metadata and, where the line
// is standard, typed form to the batch, returning the unconsumed tail.
// This is the filter's hot path: with the batch's and the engine's
// buffers at capacity it performs zero heap allocations per record.
func (e *Engine) ProcessBatch(buf []byte, b *Batch) (rest []byte, err error) {
	rec := &e.rec
	for {
		size, err := frameSize(buf)
		if err != nil || size == 0 {
			return buf, err
		}
		pl, err := e.prog.ExtractInto(rec, buf[:size])
		if err != nil {
			return buf, err
		}
		buf = buf[size:]
		e.Received++
		keep, rule := pl.selectRec(rec)
		if !keep {
			e.Discarded++
			continue
		}
		e.Kept++
		if e.tap != nil {
			e.tap.TapRecord(&pl.tapInfo, rec)
		}
		pr := &pl.keepAll
		if rule >= 0 {
			pr = &pl.rules[rule]
		}
		if pl.wide {
			// More than 64 body fields: the discard set is past the mask,
			// and formatting takes the interpreter's map-based path.
			b.Lines = append(b.Lines, rec.Format(pr.discards)...)
		} else {
			b.Lines = rec.AppendFormat(b.Lines, pr.mask)
		}
		b.ends = append(b.ends, len(b.Lines))
		b.Lines = append(b.Lines, '\n')
		b.metas = append(b.metas, store.Meta{
			Machine: rec.Machine, Time: rec.CPUTime,
			Type: uint32(rec.Type), PID: pl.pid(rec),
		})
		b.typed = append(b.typed, pr.typed.fill(e.slot(b), rec))
	}
}

// slot returns the engine's typed record for the batch's next record.
func (e *Engine) slot(b *Batch) *trace.Slots {
	i := len(b.typed)
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
//	args[4] ingest workers (optional; default GOMAXPROCS)
//
// It binds a stream socket, accepts one meter connection per metered
// process creation, applies selection, and appends surviving records
// to its log file. Each connection is drained by its own goroutine
// into a bounded-parallelism Pipeline: selection and formatting run on
// the pipeline's workers, store appends land concurrently on the
// sharded store, and the flat log is written by one serialized writer
// that preserves per-connection record order. It runs until killed;
// "The events detected and logged by the filter process are not seen
// by the user as they occur" (section 3.4) — the user retrieves the
// log afterwards with getlog.
func Main(p *kernel.Process) int {
	args := p.Args()
	if len(args) < 2 {
		p.Printf("filter: usage: name port [descriptions [templates [workers]]]\n")
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
	workers := 0 // 0: PipelineConfig default (GOMAXPROCS)
	if len(args) > 4 && args[4] != "" {
		w, err := strconv.Atoi(args[4])
		if err != nil || w < 0 {
			p.Printf("filter: bad worker count %q\n", args[4])
			return 1
		}
		workers = w
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
	pipe := NewPipeline(eng, PipelineConfig{Workers: workers, Obs: reg, Taps: taps}, Sinks{
		Store: st,
		Log:   func(lines []byte) error { return p.AppendFile(logPath, lines) },
	}, p.Go)
	// On kill the Accept below unwinds; draining the pipeline before
	// the process finishes keeps shutdown orderly (no worker left
	// blocked on a queue the cluster's shutdown would wait on). The
	// snapshot export runs after the drain so its counters are final,
	// and writes through the machine's file system directly — process
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
