package store

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/trace"
)

// Config tunes a store. The zero value selects the defaults: four
// shards, 32 KiB segments, compaction of four small segments and no
// archival. Whatever it says, a store writes and reads one format —
// segments of typed records, each one DEFLATE stream (see compress.go),
// stored blocks online and DEFLATE at archiveLevel in the archival tier
// — and refuses a file of any other (ErrFormat). A store keeps every
// record it is given: no segment expires.
type Config struct {
	// Shards is the number of concurrent shard writers; records route
	// to shard machine%Shards, so one machine's records stay ordered
	// within one shard.
	Shards int
	// SegmentCap is the frame-data size that triggers rotation: when an
	// active segment reaches it, the segment is sealed (tail written)
	// and the next append starts a fresh one. It is at most
	// maxSegmentBytes (16 MiB).
	SegmentCap int
	// CompactMin is the number of adjacent small sealed segments (under
	// half of SegmentCap) that triggers compaction into one.
	CompactMin int
	// Compress is read by nothing: it selected between the v1 writer and
	// this one while there were two. It, CompressMode and CompressBlocks
	// remain only because bench/layers.go names them, and go when that
	// file builds its store from filter.StoreConfig.
	Compress CompressMode
	// ArchiveAfter, when non-zero, is the cpuTime age (ms behind the
	// newest record the store has seen) past which cold sealed segments
	// roll into the archival tier: up to archiveRunMax segments merged
	// per archive file, DEFLATEd at archiveLevel by the appending
	// goroutine. Archival preserves every record and shape.
	ArchiveAfter uint64
	// Obs is the registry the store's counters and latency histograms
	// live in (store.*); nil gets a private registry.
	Obs *obs.Registry
}

// Default configuration values.
const (
	DefaultShards     = 4
	DefaultSegmentCap = 32 << 10
	DefaultCompactMin = 4

	// archiveRunMax caps how many cold segments one archival pass merges
	// into a single tier-1 file.
	archiveRunMax = 8

	// archiveLevel is the DEFLATE level of tier-1 files. Archival runs on
	// the appending worker, so the level is ingest CPU; by the paired
	// sweep in docs/store.md levels 2 to 5 cost ingest_flood ~10% less CPU
	// per record than 6, and of them 4 archives cheapest and stores least
	// there: tier 1 up to 12% more than at 6, the store at most 1.6%.
	archiveLevel = 4
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.SegmentCap <= 0 {
		c.SegmentCap = DefaultSegmentCap
	}
	c.SegmentCap = min(c.SegmentCap, maxSegmentBytes)
	if c.CompactMin <= 0 {
		c.CompactMin = DefaultCompactMin
	}
	return c
}

// SegmentInfo describes one segment file of a store.
type SegmentInfo struct {
	Name  string
	Shard int
	// Start and End are the segment sequence range the file covers;
	// rotation produces single-sequence segments and compaction or
	// archival widens the range.
	Start, End int
	// Bytes is the v1-equivalent frame-data size — what the records
	// would occupy CRC-framed, whatever the on-disk encoding — the unit
	// of the rotation and compaction thresholds.
	Bytes int
	// DiskBytes is the sealed file's on-disk size (0 while active);
	// Bytes/DiskBytes is the segment's compression ratio.
	DiskBytes int
	// Tier is 0 for the hot tier, 1 for the archival tier.
	Tier   int
	Index  Index
	Sealed bool
}

func segName(shard, start, end, tier int) string {
	prefix := "s"
	if tier > 0 {
		prefix = "a"
	}
	return fmt.Sprintf("%s%d-%06d-%06d.seg", prefix, shard, start, end)
}

// maxShardID is the largest shard a segment name may claim: records
// route to machine%Shards and a machine id is 16 bits, so no store has
// more shards than that — and a stray file name must not be able to
// make Open or OpenReader build a shard per integer below it.
const maxShardID = 0xFFFF

// parseSegName is segName's strict inverse: it accepts exactly the
// names segName writes for a shard up to maxShardID and a sequence
// range 1 <= start <= end that fits an int.
func parseSegName(name string) (shard, start, end, tier int, ok bool) {
	rest, found := strings.CutSuffix(name, ".seg")
	switch {
	case !found:
		return 0, 0, 0, 0, false
	case strings.HasPrefix(rest, "s"):
	case strings.HasPrefix(rest, "a"):
		tier = 1
	default:
		return 0, 0, 0, 0, false
	}
	shard, rest, ok = cutSegNumber(rest[1:], 1, "-")
	if ok {
		start, rest, ok = cutSegNumber(rest, 6, "-")
	}
	if ok {
		end, rest, ok = cutSegNumber(rest, 6, "")
	}
	if !ok || rest != "" || shard > maxShardID || start < 1 || end < start {
		return 0, 0, 0, 0, false
	}
	return shard, start, end, tier, true
}

// cutSegNumber cuts from the front of s a number as fmt's %0<width>d
// writes a non-negative int — decimal digits only, zero-padded to width
// and no further — and the separator that must follow it. A number past
// math.MaxInt is refused: n*10+d overflows exactly when n is past
// maxIntTenth, or at it with d past the last digit of math.MaxInt, two
// constants, so a digit costs no division.
func cutSegNumber(s string, width int, sep string) (n int, rest string, ok bool) {
	const maxIntTenth, maxIntLast = math.MaxInt / 10, math.MaxInt % 10
	i := 0
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		d := int(s[i] - '0')
		if n >= maxIntTenth && (n > maxIntTenth || d > maxIntLast) {
			return 0, "", false
		}
		n = n*10 + d
	}
	if i < width || (i > width && s[0] == '0') {
		return 0, "", false
	}
	rest, ok = strings.CutPrefix(s[i:], sep)
	return n, rest, ok
}

// segRange is the sequence range and tier a segment file's name claims.
type segRange struct{ start, end, tier int }

// currentGeneration picks, from every segment file listed for one
// shard, the ones that are the shard's content now, in rotation order;
// the rest are returned as superseded. rangeOf gives a listed segment's
// range.
//
// Compaction and archival write the merged segment and only then remove
// the run it replaces, so a listing taken in between — or a crash that
// lands there — holds the same records twice. A segment whose range
// lies inside a wider listed segment's (or equals an archival-tier
// segment's) is the older generation and is superseded. The merged file
// wins only if whole reports it completely written: a torn one is
// superseded itself and the run it failed to replace stands. whole is
// asked only about segments that have another listed inside them.
// current is built in listed's array, which the call overwrites.
func currentGeneration[S any](listed []S, rangeOf func(S) segRange, whole func(S) bool) (current, superseded []S) {
	// By start; at one start the widest first, the archive before the
	// hot segment of the same range. Ranges nest or are disjoint, so
	// whatever follows a segment either lies inside it or after it.
	slices.SortFunc(listed, func(a, b S) int {
		x, y := rangeOf(a), rangeOf(b)
		return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(y.end, x.end), cmp.Compare(y.tier, x.tier))
	})
	covered := 0 // sequences up to here belong to a segment already kept
	current = listed[:0]
	for n, seg := range listed {
		end := rangeOf(seg).end
		switch {
		case end <= covered:
			superseded = append(superseded, seg)
		case n+1 < len(listed) && rangeOf(listed[n+1]).end <= end && !whole(seg):
			superseded = append(superseded, seg)
		default:
			current = append(current, seg)
			covered = end
		}
	}
	return current, superseded
}

// Store is a sharded segment writer. All methods are safe for
// concurrent use; appends to different shards do not contend.
type Store struct {
	be  Backend
	cfg Config

	shards []*shard

	// maxSeen is the newest cpuTime any append has carried — the "now"
	// that archival ages are measured against.
	maxSeen atomic.Uint64

	// obs handles, resolved once in Open: the store's write-side
	// counters and latencies live in the registry (Config.Obs) and
	// nowhere else.
	obsAppends     *obs.Counter
	obsRotations   *obs.Counter
	obsCompactions *obs.Counter
	obsRecovered   *obs.Counter
	obsSalvageLost *obs.Counter
	obsAbandoned   *obs.Counter
	obsArchived    *obs.Counter
	obsArchiveRuns *obs.Counter
	obsArchiveIn   *obs.Counter
	obsArchiveOut  *obs.Counter
	obsMaintainErr *obs.Counter
	obsRawBytes    *obs.Counter
	obsCompBytes   *obs.Counter
	obsTyped       *obs.Counter
	obsRewTyped    *obs.Counter
	appendNS       *obs.Histogram
	rotateNS       *obs.Histogram
	compactNS      *obs.Histogram
	archiveNS      *obs.Histogram
	encMem         *obs.FreeStats
}

type shard struct {
	mu         sync.Mutex
	id         int
	nextSeq    int
	active     *SegmentInfo // nil when no segment is being filled
	activePath string       // its path on an FsysBackend, built once, not at every flush
	sealed     []*SegmentInfo
	// cw is the shard's encoder (nil until the shard's first record):
	// append paths stage records in it under mu, so the steady state
	// allocates nothing. pending holds the metadata of the staged records,
	// folded into the active segment's index only once the backend write
	// succeeds.
	cw      *compWriter
	pending []Meta
}

// Open opens (or creates) the store behind a backend. Each segment file
// is checked by a scan that keeps nothing — its tail, the stream's CRC,
// the record count — and a sealed one that passes is adopted as it is.
// An unsealed or damaged segment — what a crashed writer leaves behind —
// is recovered by rewriting its valid record prefix as a sealed segment,
// so every record that survived the crash is indexed and queryable. A
// segment file of another format is not this store's to rewrite: Open
// returns its ErrFormat before it has written or removed anything.
func Open(be Backend, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	listed, err := be.List()
	if err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		be: be, cfg: cfg,
		obsAppends:     reg.Counter("store.appends"),
		obsRotations:   reg.Counter("store.rotations"),
		obsCompactions: reg.Counter("store.compactions"),
		obsRecovered:   reg.Counter("store.recovered"),
		obsSalvageLost: reg.Counter("store.salvage_lost_records"),
		obsAbandoned:   reg.Counter("store.abandoned"),
		obsArchived:    reg.Counter("store.archived_segments"),
		obsArchiveRuns: reg.Counter("store.archive_runs"),
		obsArchiveIn:   reg.Counter("store.archive_in_bytes"),
		obsArchiveOut:  reg.Counter("store.archive_out_bytes"),
		obsMaintainErr: reg.Counter("store.maintain_errors"),
		obsRawBytes:    reg.Counter("store.raw_bytes"),
		obsCompBytes:   reg.Counter("store.compressed_bytes"),
		obsTyped:       reg.Counter("store.records_typed"),
		obsRewTyped:    reg.Counter("store.rewrite_records_typed"),
		appendNS:       reg.Histogram("store.append_ns"),
		rotateNS:       reg.Histogram("store.rotate_ns"),
		compactNS:      reg.Histogram("store.compact_ns"),
		archiveNS:      reg.Histogram("store.archive_ns"),
		encMem:         archiveEncoders.Stats(reg),
	}
	byShard := make(map[int][]*SegmentInfo)
	maxShard := cfg.Shards - 1
	for _, e := range listed {
		sh, start, end, tier, ok := parseSegName(e.Name)
		if !ok {
			continue
		}
		if data, err := be.Read(e.Name); err == nil {
			if err := formatErr(e.Name, data); err != nil {
				return nil, err
			}
		}
		if sh > maxShard {
			maxShard = sh
		}
		byShard[sh] = append(byShard[sh], &SegmentInfo{Name: e.Name, Shard: sh, Start: start, End: end, Tier: tier})
	}
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	for i := 0; i <= maxShard; i++ {
		sh := &shard{id: i, nextSeq: 1}
		// A crash between a merge's Create and its Removes left both
		// generations: adopt one, and finish the removal the crash cut
		// short so the other does not linger on disk — or count it
		// (store.maintain_errors), as a rewrite counts an input that will
		// not go; it hides behind its successor at every open.
		infos, superseded := currentGeneration(byShard[i],
			func(in *SegmentInfo) segRange { return segRange{in.Start, in.End, in.Tier} },
			func(in *SegmentInfo) bool {
				data, err := be.Read(in.Name)
				return err == nil && newReaderSegment(in.Name, in.Shard, in.Start, in.End, in.Tier, data).Sealed
			})
		for _, in := range superseded {
			if be.Remove(in.Name) != nil {
				s.obsMaintainErr.Inc()
			}
		}
		for _, info := range infos {
			data, err := be.Read(info.Name)
			if err != nil {
				return nil, err
			}
			if rs := newReaderSegment(info.Name, info.Shard, info.Start, info.End, info.Tier, data); rs.verify(d) {
				info.Index, info.Bytes, info.DiskBytes, info.Sealed = rs.Index, rs.RawBytes(), len(data), true
			} else {
				// Rewritten under its own name, whatever its tier, by a hot-tier encoder.
				torn := *info
				if _, err := s.rewrite(newCompWriter(), []*SegmentInfo{&torn}, info, true); err != nil {
					return nil, err
				}
				s.obsRecovered.Inc()
				if rs.Sealed { // the tail parsed: it counts what the file held
					s.obsSalvageLost.Add(max(0, int64(rs.Index.Count)-int64(info.Index.Count)))
				}
			}
			if info.Index.Count > 0 && info.Index.MaxTime > s.maxSeen.Load() {
				s.maxSeen.Store(info.Index.MaxTime)
			}
			sh.sealed = append(sh.sealed, info)
			if info.End >= sh.nextSeq {
				sh.nextSeq = info.End + 1
			}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// openLocked ensures the shard has an active segment and its encoder,
// built at the shard's first record rather than at Open (a store opened
// over another's files has a shard for every number those files name).
// Caller holds sh.mu.
func (s *Store) openLocked(sh *shard) {
	if sh.active == nil {
		seq := sh.nextSeq
		sh.nextSeq++
		sh.active = &SegmentInfo{Name: segName(sh.id, seq, seq, 0), Shard: sh.id, Start: seq, End: seq}
		if fb, ok := s.be.(*FsysBackend); ok {
			sh.activePath = fb.path(sh.active.Name)
		}
		if sh.cw == nil {
			sh.cw = newCompWriter()
		}
		sh.cw.openSegment()
	}
}

// appendActive appends data to the shard's active segment, on an
// FsysBackend by the path kept for it. Caller holds sh.mu.
func (s *Store) appendActive(sh *shard, data []byte) error {
	if fb, ok := s.be.(*FsysBackend); ok {
		return fb.fs.Append(sh.activePath, fb.uid, data)
	}
	return s.be.Append(sh.active.Name, data)
}

// noteTime folds one flushed batch's newest cpuTime into the store's
// high-water mark.
func (s *Store) noteTime(t uint64) {
	for {
		cur := s.maxSeen.Load()
		if t <= cur || s.maxSeen.CompareAndSwap(cur, t) {
			return
		}
	}
}

// flushLocked writes the shard's staged records to the active segment,
// folds the pending metadata into its index, and — when the segment
// has reached the cap — seals, compacts, and archives: the staged
// payload goes through the shard's DEFLATE stream (ending on a sync
// marker, so what lands in the file is a decodable prefix) and the
// compressed bytes are appended. The records
// are counted (store.appends) here, once the backend holds them, so a
// batch that fails part-way still counts what it made durable. A backend
// error abandons the whole active segment — the encoder's delta state
// can no longer be reconciled with the file, whose durable prefix the
// next Open salvages. Caller holds sh.mu.
func (s *Store) flushLocked(sh *shard) error {
	w := sh.cw
	if w == nil || w.stagedN == 0 { // nil: a shard visited with no record of the batch
		return nil
	}
	stagedV1 := w.stagedV1
	if err := w.flushStaged(true); err != nil {
		s.abandonLocked(sh)
		return err
	}
	err := s.appendActive(sh, w.sink.buf)
	w.sink.drained()
	if err != nil {
		s.abandonLocked(sh)
		return err
	}
	sh.active.Bytes += stagedV1
	s.obsAppends.Add(int64(len(sh.pending)))
	s.obsTyped.Add(int64(w.nTyped))
	w.nTyped = 0
	var tmax uint64
	for _, m := range sh.pending {
		sh.active.Index.Add(m)
		tmax = max(tmax, uint64(m.Time))
	}
	sh.pending = sh.pending[:0]
	s.noteTime(tmax)
	return s.rotateLocked(sh)
}

// rotateLocked seals the active segment once it has reached the cap,
// then compacts and archives. Caller holds sh.mu.
func (s *Store) rotateLocked(sh *shard) error {
	if sh.active.Bytes < s.cfg.SegmentCap {
		return nil
	}
	if err := s.sealLocked(sh); err != nil {
		return err
	}
	s.obsRotations.Inc()
	// The records are durable: a rewrite that fails leaves its run in
	// place and is counted (store.maintain_errors), not reported as a
	// failed append.
	_ = s.compactLocked(sh)
	_ = s.maintainLocked(sh)
	return nil
}

// abandonLocked drops the active segment after a failed write: its
// in-memory encoder state is unrecoverable, so the segment is orphaned
// unindexed and its durable prefix left for the next Open's salvage.
// Caller holds sh.mu.
func (s *Store) abandonLocked(sh *shard) {
	sh.pending = sh.pending[:0]
	sh.cw.sink.drained()
	sh.active = nil
	s.obsAbandoned.Inc()
}

// BatchRec is one record of an AppendBatch call: Meta, which gives its
// machine, cpuTime and event type, and Slots, the body it is stored as.
// Line is the record's log line, Slots.AppendLine of the Meta; the store
// reads only its length, the record's size. Line and Slots alias
// caller-owned memory, are only read, and are fully consumed before
// AppendBatch returns, so callers can reuse the backing buffers.
type BatchRec struct {
	Meta  Meta
	Line  []byte
	Slots *trace.Slots
}

// AppendBatch appends a batch of records, visiting each shard once:
// all of a shard's records are staged in its encoder and written under
// one lock acquisition, with a backend write per segment-cap boundary
// instead of per record. The filter's dual-sink flush calls this once
// per Recv. Equivalent to one call per record, except that a shard's
// records between two rotations reach the backend in one write: a
// segment still rotates after the record that brings it to SegmentCap,
// so it overshoots the cap by less than that record's FrameSize. On an
// error the records flushed before it stay appended and counted; the
// failing shard's staged ones are dropped. A batch holding a record
// without Slots, of an event type trace does not know, or with a key
// past its type's stored order (which no segment could be read back
// with) is refused whole, before anything is staged.
func (s *Store) AppendBatch(recs []BatchRec) error {
	if len(recs) == 0 {
		return nil
	}
	for i := range recs {
		if recs[i].Slots == nil || recs[i].Meta.Type-1 >= uint32(meter.EvTermProc) || !recs[i].Slots.Fits(meter.Type(recs[i].Meta.Type)) {
			return fmt.Errorf("store: batch record %d of type %d has no typed body of its type", i, recs[i].Meta.Type)
		}
	}
	span := obs.StartSpan(s.appendNS)
	nshards := len(s.shards)
	// One pass over the batch builds a shard-presence bitmask, so shards
	// with no records in this batch are skipped without taking their
	// locks — with concurrent ingest workers each flushing small batches,
	// most shards are usually absent from any given batch.
	var present uint64
	if nshards <= 64 {
		for i := range recs {
			present |= 1 << (int(recs[i].Meta.Machine) % nshards)
		}
	} else {
		present = ^uint64(0)
	}
	for id, sh := range s.shards {
		if nshards <= 64 && present&(1<<id) == 0 {
			continue
		}
		sh.mu.Lock()
		sh.pending = sh.pending[:0]
		for i := range recs {
			if int(recs[i].Meta.Machine)%nshards != id {
				continue
			}
			s.openLocked(sh)
			sh.cw.stage(recs[i].Meta, recs[i].Line, recs[i].Slots)
			sh.pending = append(sh.pending, recs[i].Meta)
			if sh.active.Bytes+sh.cw.stagedV1 >= s.cfg.SegmentCap {
				if err := s.flushLocked(sh); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		err := s.flushLocked(sh)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	span.End()
	return nil
}

// sealLocked writes the active segment's tail and retires it to the
// sealed list. Caller holds sh.mu.
func (s *Store) sealLocked(sh *shard) error {
	a := sh.active
	if a == nil || a.Index.Count == 0 {
		return nil
	}
	span := obs.StartSpan(s.rotateNS)
	tail, disk, err := sh.cw.seal(a.Index, a.Bytes)
	if err == nil {
		err = s.appendActive(sh, tail)
	}
	if err != nil {
		s.abandonLocked(sh)
		return err
	}
	a.DiskBytes = disk
	s.obsRawBytes.Add(int64(a.Bytes))
	s.obsCompBytes.Add(int64(disk))
	a.Sealed = true
	sh.sealed = append(sh.sealed, a)
	sh.active = nil
	span.End()
	return nil
}

// compactLocked merges the trailing run of small sealed segments into
// one when the run reaches CompactMin — the store's answer to a slow
// writer being sealed repeatedly by Flush, so segment count stays
// proportional to data volume. The run stops short of maxSegmentBytes.
// Caller holds sh.mu.
func (s *Store) compactLocked(sh *shard) error {
	small := func(in *SegmentInfo) bool { return in.Tier == 0 && in.Bytes*2 < s.cfg.SegmentCap }
	i, size := len(sh.sealed), 0
	for i > 0 && small(sh.sealed[i-1]) && size+sh.sealed[i-1].Bytes <= maxSegmentBytes {
		i--
		size += sh.sealed[i].Bytes
	}
	run := sh.sealed[i:]
	if len(run) < s.cfg.CompactMin {
		return nil
	}
	span := obs.StartSpan(s.compactNS)
	if err := s.rewriteLocked(sh, i, len(sh.sealed), 0); err != nil {
		return err
	}
	s.obsCompactions.Inc()
	span.End()
	return nil
}

// rewriteLocked replaces the sealed run sh.sealed[i:j] by one merged
// segment of the given tier (rewrite): at archiveLevel by an encoder
// from the pool for tier 1, in stored blocks for tier 0. On any
// failure no file has been touched, the run stands, and
// store.maintain_errors counts it. Caller holds sh.mu.
func (s *Store) rewriteLocked(sh *shard, i, j, tier int) (err error) {
	defer func() {
		if err != nil {
			s.obsMaintainErr.Inc()
		}
	}()
	run := sh.sealed[i:j]
	merged := &SegmentInfo{
		Name:  segName(sh.id, run[0].Start, run[len(run)-1].End, tier),
		Shard: sh.id, Start: run[0].Start, End: run[len(run)-1].End, Tier: tier,
	}
	var w *compWriter
	if tier > 0 {
		w = archiveEncoders.Take(0, s.encMem)
		defer archiveEncoders.Put(w, s.encMem)
	} else {
		w = newCompWriter()
	}
	in, err := s.rewrite(w, run, merged, false)
	if err != nil {
		return err
	}
	for _, info := range run {
		// An input that will not go hides behind the merged file at every
		// open (currentGeneration): counted, and the rewrite stands.
		if info.Name != merged.Name && s.be.Remove(info.Name) != nil {
			s.obsMaintainErr.Inc()
		}
	}
	sh.sealed[i] = merged
	sh.sealed = append(sh.sealed[:i+1], sh.sealed[j:]...)
	if tier > 0 {
		s.obsArchiveIn.Add(int64(in))
		s.obsArchiveOut.Add(int64(merged.DiskBytes))
	}
	s.obsRewTyped.Add(int64(w.nTyped))
	return nil
}

// rewrite writes the records of the segment files ins, in order, as the
// one sealed segment out names, through w, and fills in out's index and
// sizes; it returns the bytes it read. No record is materialized: each
// input is borrowed from the backend and scanned through a pooled
// decoder straight into the encoder as the view it decodes to, no line
// built, parsed or measured (compWriter.add). Nothing is sized per record: each input counts
// whole, at the v1-equivalent bytes it was recorded at (its Bytes, its
// tail's raw total), so out's Bytes are its inputs' sum, and its staged
// payload goes through DEFLATE in one write. Without salvage every input
// must be whole — the tail it was sealed or adopted with, the stream's
// CRC and length, the records its tail counts — or nothing is written.
// With salvage, Open's recovery, an input gives the records before its
// first failure and counts at its size on disk, which is what RawBytes
// reports for an unsealed segment.
func (s *Store) rewrite(w *compWriter, ins []*SegmentInfo, out *SegmentInfo, salvage bool) (in int, err error) {
	w.openSegment()
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	scan := func(m Meta, v *trace.View) {
		out.Index.Add(m)
		w.add(m, v)
	}
	raw := 0
	for _, info := range ins {
		data, err := s.be.Read(info.Name)
		if err != nil {
			return in, err
		}
		in += len(data)
		rs := newReaderSegment(info.Name, info.Shard, info.Start, info.End, info.Tier, data)
		if !salvage && (rs.Index != info.Index || !rs.Sealed) {
			return in, fmt.Errorf("%w: %s: tail is not the one it was sealed with", ErrCorrupt, info.Name)
		}
		st, err := rs.ScanViews(d, scan)
		size := info.Bytes
		if salvage {
			err, size = nil, len(data)
		} else if err == nil && st.Records != int(info.Index.Count) {
			err = fmt.Errorf("%w: %s: tail count %d but %d records", ErrCorrupt, info.Name, info.Index.Count, st.Records)
		}
		if err == nil {
			err = w.flushStaged(false)
		}
		if err != nil {
			return in, err
		}
		raw += size
	}
	data, _, err := w.seal(out.Index, raw)
	if err != nil {
		return in, err
	}
	out.Bytes, out.DiskBytes, out.Sealed = raw, len(data), true
	return in, s.be.Create(out.Name, data)
}

// maintainLocked runs the shard's archival pass: it rolls the oldest run
// of cold hot-tier segments into one archival-tier segment, re-encoded
// at archiveLevel — cold data trades decode cost for space. Ages are
// cpuTime distances from the newest record the store has seen, so
// archival advances with the workload's clock, not the host's. Caller
// holds sh.mu.
func (s *Store) maintainLocked(sh *shard) error {
	if s.cfg.ArchiveAfter == 0 {
		return nil
	}
	maxSeen := s.maxSeen.Load()
	// The oldest contiguous run of cold hot-tier segments; archives
	// already at the front of the list are skipped, never re-archived.
	i := 0
	for i < len(sh.sealed) && sh.sealed[i].Tier != 0 {
		i++
	}
	j, size := i, 0
	for j < len(sh.sealed) && j-i < archiveRunMax && (j == i || size+sh.sealed[j].Bytes <= maxSegmentBytes) &&
		sh.sealed[j].Tier == 0 && sh.sealed[j].Index.MaxTime+s.cfg.ArchiveAfter < maxSeen {
		size += sh.sealed[j].Bytes
		j++
	}
	if j == i {
		return nil
	}
	// A lone cold segment waits another ArchiveAfter before archiving
	// alone: under continuous ingest maintenance runs at every
	// rotation, so segments cool one rotation apart and would otherwise
	// each become a single-segment archive — recompressed but never
	// merged. Deferring the run start lets neighbors cool and join;
	// a straggler with no neighbors still archives at twice the age.
	if j == i+1 && sh.sealed[i].Index.MaxTime+2*s.cfg.ArchiveAfter >= maxSeen {
		return nil
	}
	span := obs.StartSpan(s.archiveNS)
	if err := s.rewriteLocked(sh, i, j, 1); err != nil {
		return err
	}
	s.obsArchived.Add(int64(j - i))
	s.obsArchiveRuns.Inc()
	span.End()
	return nil
}

// Maintain runs the archival pass on every shard now, instead of waiting
// for the next rotation to trigger it.
func (s *Store) Maintain() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := s.maintainLocked(sh)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush seals every non-empty active segment, making all appended
// records visible behind tails (an unsealed segment is still
// readable, but must be scanned).
func (s *Store) Flush() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := s.sealLocked(sh)
		if err == nil {
			err = s.compactLocked(sh)
		}
		if err == nil {
			err = s.maintainLocked(sh)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Segments returns a snapshot of every segment's metadata, sealed and
// active, in shard order.
func (s *Store) Segments() []SegmentInfo {
	var out []SegmentInfo
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, info := range sh.sealed {
			out = append(out, *info)
		}
		if sh.active != nil {
			out = append(out, *sh.active)
		}
		sh.mu.Unlock()
	}
	return out
}

// ReaderSegment is one segment as seen by a Reader: its tail's index
// when sealed (usable for pruning without touching anything before the
// tail), and its raw bytes — borrowed from the backend, never written
// — for when it must actually be scanned.
type ReaderSegment struct {
	Name   string
	Shard  int
	Start  int
	Tier   int
	Index  Index
	Sealed bool
	end    int    // last sequence the file's name claims
	id     uint64 // the file's Entry.ID when it was listed and read
	data   []byte
	tail   tail // a sealed segment's, parsed
}

// newReaderSegment wraps a segment file's borrowed bytes, checking its
// fixed-size tail and nothing before it.
func newReaderSegment(name string, shard, start, end, tier int, data []byte) *ReaderSegment {
	rs := &ReaderSegment{Name: name, Shard: shard, Start: start, Tier: tier, end: end, data: data}
	if t, ok := parseTail(data); ok {
		rs.Index, rs.tail, rs.Sealed = t.Index, t, true
	}
	return rs
}

// Tail returns the TailSize-byte tail of a sealed segment, nil for an
// unsealed one. Its CRC covers every byte of the stream a scan decodes,
// so within one store a name and a tail stand for the segment's records.
func (rs *ReaderSegment) Tail() []byte {
	if !rs.Sealed {
		return nil
	}
	return rs.data[len(rs.data)-TailSize:]
}

// verify reports whether a scan of the whole segment, which keeps
// nothing, finds what its tail says: sealed, the stream intact, and as
// many records as the tail counts.
func (rs *ReaderSegment) verify(d *Decoder) bool {
	if !rs.Sealed {
		return false
	}
	st, err := rs.ScanViews(d, func(Meta, *trace.View) {})
	return err == nil && st.Records == int(rs.Index.Count)
}

// Load decodes the segment's records as text: ScanViews, collected. A
// sealed segment keeps its tail's index and must hold the records the
// tail counts, or its records come back with ErrCorrupt; an unsealed
// one is indexed from its records, and a torn tail yields its valid
// prefix and ErrTruncated.
func (rs *ReaderSegment) Load() (*Segment, error) {
	s := &Segment{Sealed: rs.Sealed}
	if s.Sealed {
		s.Index = rs.Index
	}
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	st, err := rs.ScanViews(d, d.lines(func(m Meta, line []byte) {
		s.Recs = append(s.Recs, Rec{Meta: m, Line: string(line)})
		if !s.Sealed {
			s.Index.Add(m)
		}
	}))
	if err == nil && s.Sealed && st.Records != int(rs.Index.Count) {
		err = fmt.Errorf("%w: tail count %d but %d records", ErrCorrupt, rs.Index.Count, st.Records)
	}
	return s, err
}

// RawBytes returns a sealed segment's v1-equivalent (uncompressed
// framed) size, the numerator of its compression ratio, and an unsealed
// one's size on disk.
func (rs *ReaderSegment) RawBytes() int {
	if rs.Sealed {
		return rs.tail.RawTotal
	}
	return len(rs.data)
}

// DiskBytes returns the segment's on-disk size.
func (rs *ReaderSegment) DiskBytes() int { return len(rs.data) }

// Reader is a point-in-time read-only view of a store: the segment
// files present at OpenReader, grouped by shard in rotation order.
// Sealed segments expose their tail's index so callers can prune them
// without decoding any record. A segment's name, file id and length are
// what Reopen matches a later listing against.
type Reader struct {
	shards [][]*ReaderSegment
}

// openReaderAttempts bounds how often OpenReader re-lists a backend
// whose segments keep vanishing under it.
const openReaderAttempts = 3

// OpenReader snapshots the store behind a backend. It costs one
// listing and, per segment, a name parse, a borrowed view of the file
// (Backend.Read), the check of its header (a file of another format
// fails the snapshot with ErrFormat) and of its fixed-size tail — which
// carries the Index pruning needs. No stream byte is touched until the
// ScanViews or Load of a segment a query admits.
//
// The backend may belong to a live store that is compacting, archiving
// or expiring segments meanwhile. The snapshot holds every record once
// all the same: a listed file that is gone by the time it is read means
// the listing is stale, and the snapshot is retaken; a listing that
// caught a merge between its Create and its Removes is reduced to one
// generation by currentGeneration.
func OpenReader(be Backend) (*Reader, error) { return Reopen(nil, be) }

// Reopen snapshots the store behind be as OpenReader does, taking from
// prev, an earlier snapshot of the same backend, each segment whose file
// is unchanged: listed under the same name with the same non-zero ID and
// the same Size as when prev's segment read it. Such a file holds
// exactly what that segment holds (Backend.List), so it is neither read
// nor its tail checked again. A backend that lists ID 0 — DirBackend —
// never matches, and its segments are read every time.
//
// A reopen costs what changed, not what the store holds: a shard whose
// listed segments are all prev's, in prev's order, shares prev's slice
// (or its front); a shard that changed gets a new one, a pointer a
// segment. When nothing changed Reopen returns prev itself, and over up
// to eight shards allocates nothing. The fsys backend is walked, not
// listed.
func Reopen(prev *Reader, be Backend) (*Reader, error) {
	for attempt := 1; ; attempt++ {
		r, stale, err := openReader(prev, be)
		if !stale || attempt == openReaderAttempts {
			return r, err
		}
	}
}

// shard returns r's segments of shard sh, none when r is nil.
func (r *Reader) shard(sh int) []*ReaderSegment {
	if r == nil || sh >= len(r.shards) {
		return nil
	}
	return r.shards[sh]
}

// listedAs reports whether e lists rs's file unchanged.
func (rs *ReaderSegment) listedAs(e Entry) bool {
	return e.ID != 0 && rs.id == e.ID && len(rs.data) == e.Size && rs.Name == e.Name
}

// shardWalk is what openReader has found of one shard so far: the
// front of prev's shard listed unchanged, in order, and, once something
// else is listed, every segment listed but those still to be read.
type shardWalk struct {
	kept int
	segs []*ReaderSegment
}

// openReader takes one snapshot, reusing the segments of prev (which
// may be nil) that are unchanged, or returns prev when nothing changed.
// stale reports that it failed because a listed segment is no longer
// listed.
func openReader(prev *Reader, be Backend) (r *Reader, stale bool, err error) {
	var few [8]shardWalk // so that finding nothing changed allocates nothing
	walks := few[:0]
	var unread []Entry
	var last *shardWalk          // the walk of the last segment's shard
	var lastOld []*ReaderSegment // and prev's segments of it
	err = eachEntry(be, func(e Entry) bool {
		// As a rule, the next of that shard's segments, unchanged.
		if last != nil && last.segs == nil && last.kept < len(lastOld) && lastOld[last.kept].listedAs(e) {
			last.kept++
			return true
		}
		sh, start, _, _, ok := parseSegName(e.Name)
		if !ok {
			return true
		}
		for len(walks) <= sh {
			walks = append(walks, shardWalk{})
		}
		w, old := &walks[sh], prev.shard(sh) // prev's current segments: one a start
		last, lastOld = w, old
		i, found := slices.BinarySearchFunc(old, start, func(rs *ReaderSegment, start int) int { return cmp.Compare(rs.Start, start) })
		found = found && old[i].listedAs(e)
		if w.segs == nil && found && i == w.kept {
			w.kept++
			return true
		}
		if w.segs == nil { // room for a grown tail, or a rotation
			w.segs = append(make([]*ReaderSegment, 0, len(old)+1), old[:w.kept]...)
		}
		if found {
			w.segs = append(w.segs, old[i])
		} else {
			unread = append(unread, e)
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	kept, departed := 0, false
	for _, w := range walks {
		kept, departed = kept+w.kept, departed || w.segs != nil
	}
	if prev != nil && !departed && kept == prev.NumSegments() {
		return prev, false, nil
	}
	for _, e := range unread {
		data, err := be.Read(e.Name)
		if err != nil {
			return nil, !stillListed(be, e.Name), err
		}
		if err := formatErr(e.Name, data); err != nil {
			return nil, false, err
		}
		// A file that grew or was replaced since the listing is read as
		// it is now under the listed id: the pair then matches no later
		// listing, or matches the bytes read (ids are never reused).
		sh, start, end, tier, _ := parseSegName(e.Name)
		rs := newReaderSegment(e.Name, sh, start, end, tier, data)
		rs.id = e.ID
		walks[sh].segs = append(walks[sh].segs, rs)
	}
	r = &Reader{shards: make([][]*ReaderSegment, len(walks))}
	for sh, w := range walks {
		r.shards[sh] = prev.shard(sh)[:w.kept:w.kept]
		if w.segs != nil {
			r.shards[sh], _ = currentGeneration(w.segs,
				func(rs *ReaderSegment) segRange { return segRange{rs.Start, rs.end, rs.Tier} },
				func(rs *ReaderSegment) bool { return rs.Sealed })
		}
	}
	return r, false, nil
}

// stillListed reports whether the backend lists name now; true when
// the backend cannot say.
func stillListed(be Backend, name string) bool {
	listed, err := be.List()
	if err != nil {
		return true
	}
	_, found := slices.BinarySearchFunc(listed, name, func(e Entry, name string) int { return strings.Compare(e.Name, name) })
	return found
}

// Shards returns the reader's segments grouped by shard, in rotation
// order within each shard. Callers must not modify the slices.
func (r *Reader) Shards() [][]*ReaderSegment { return r.shards }

// NumSegments returns the total number of segments in the snapshot.
func (r *Reader) NumSegments() int {
	n := 0
	for _, segs := range r.shards {
		n += len(segs)
	}
	return n
}
