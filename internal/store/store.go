package store

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
// and no further — and the separator that must follow it.
func cutSegNumber(s string, width int, sep string) (n int, rest string, ok bool) {
	i := 0
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		d := int(s[i] - '0')
		if n > (math.MaxInt-d)/10 {
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
	obsAbandoned   *obs.Counter
	obsArchived    *obs.Counter
	obsArchiveRuns *obs.Counter
	obsArchiveIn   *obs.Counter
	obsArchiveOut  *obs.Counter
	obsMaintainErr *obs.Counter
	obsRawBytes    *obs.Counter
	obsCompBytes   *obs.Counter
	obsTyped       *obs.Counter
	obsText        *obs.Counter
	obsRewTyped    *obs.Counter
	obsRewText     *obs.Counter
	appendNS       *obs.Histogram
	rotateNS       *obs.Histogram
	compactNS      *obs.Histogram
	archiveNS      *obs.Histogram
	encMem         *obs.FreeStats
}

type shard struct {
	mu      sync.Mutex
	id      int
	nextSeq int
	active  *SegmentInfo // nil when no segment is being filled
	sealed  []*SegmentInfo
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
		obsAbandoned:   reg.Counter("store.abandoned"),
		obsArchived:    reg.Counter("store.archived_segments"),
		obsArchiveRuns: reg.Counter("store.archive_runs"),
		obsArchiveIn:   reg.Counter("store.archive_in_bytes"),
		obsArchiveOut:  reg.Counter("store.archive_out_bytes"),
		obsMaintainErr: reg.Counter("store.maintain_errors"),
		obsRawBytes:    reg.Counter("store.raw_bytes"),
		obsCompBytes:   reg.Counter("store.compressed_bytes"),
		obsTyped:       reg.Counter("store.records_typed"),
		obsText:        reg.Counter("store.records_text"),
		obsRewTyped:    reg.Counter("store.rewrite_records_typed"),
		obsRewText:     reg.Counter("store.rewrite_records_text"),
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
		if sh.cw == nil {
			sh.cw = newCompWriter()
		}
		sh.cw.openSegment()
	}
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
// error abandons the whole active segment — the encoder's dictionary
// and delta state can no longer be reconciled with the file, whose
// durable prefix the next Open salvages. Caller holds sh.mu.
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
	err := s.be.Append(sh.active.Name, w.sink.buf)
	w.sink.drained()
	if err != nil {
		s.abandonLocked(sh)
		return err
	}
	sh.active.Bytes += stagedV1
	s.obsAppends.Add(int64(len(sh.pending)))
	s.obsTyped.Add(int64(w.nTyped))
	s.obsText.Add(int64(w.nText))
	w.nTyped, w.nText = 0, 0
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

// BatchRec is one record of an AppendBatch call. Line and Slots alias
// caller-owned memory, are only read, and are fully consumed before
// AppendBatch returns, so callers can reuse the backing buffers. Slots,
// when set, is the record typed, and is encoded without parsing Line: it
// must be what Line parses to (ParseStandard accepts Line, with Meta as
// its header and the slots as its fields). Nothing checks that per
// record; internal/filter's tests prove it of what the filter hands over.
// With Slots nil the store parses Line to choose the shape.
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
// failing shard's staged ones are dropped.
func (s *Store) AppendBatch(recs []BatchRec) error {
	if len(recs) == 0 {
		return nil
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
		err = s.be.Append(a.Name, tail)
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
	s.obsRewText.Add(int64(w.nText))
	return nil
}

// rewrite writes the records of the segment files ins, in order, as the
// one sealed segment out names, through w, and fills in out's index and
// sizes; it returns the bytes it read. No record is materialized: each
// input is borrowed from the backend and scanned through a pooled
// decoder straight into the encoder, a record stored typed as the view
// it decodes to, no line built, parsed or measured, a text record as its
// line (compWriter.add). Nothing is sized per record: each input counts
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
	scan := func(m Meta, v *trace.View, line []byte) {
		out.Index.Add(m)
		w.add(m, v, line)
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
			err = fmt.Errorf("%w: tail count %d but %d records", ErrCorrupt, info.Index.Count, st.Records)
		}
		if err == nil {
			err = w.flushStaged(false)
		}
		if err != nil {
			return in, fmt.Errorf("%s: %w", info.Name, err)
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
	st, err := rs.ScanViews(d, func(Meta, *trace.View, []byte) {})
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
// without decoding any record.
type Reader struct {
	shards  [][]*ReaderSegment
	listed  []*ReaderSegment // every segment listed, in name order, for Reopen
	listing []Entry          // the listing it was opened from
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
// never matches, and its segments are read every time. When nothing
// changed — a backend that can tell so without a listing says every
// file of prev's listing is still listed as it was, and nothing else is
// — Reopen returns prev itself and allocates nothing.
func Reopen(prev *Reader, be Backend) (*Reader, error) {
	var old []*ReaderSegment
	if prev != nil {
		if u, ok := be.(unchangedLister); ok && u.Unchanged(prev.listing) {
			return prev, nil
		}
		old = prev.listed
	}
	for attempt := 1; ; attempt++ {
		r, stale, err := openReader(old, be)
		if !stale || attempt == openReaderAttempts {
			return r, err
		}
	}
}

// openReader takes one snapshot, reusing the segments of old, a listing
// in name order, that are unchanged. stale reports that it failed because
// a listed segment is no longer listed.
func openReader(old []*ReaderSegment, be Backend) (r *Reader, stale bool, err error) {
	listed, err := be.List()
	if err != nil {
		return nil, false, err
	}
	r = &Reader{listed: make([]*ReaderSegment, 0, len(listed)), listing: listed}
	for _, e := range listed {
		for len(old) > 0 && old[0].Name < e.Name {
			old = old[1:]
		}
		var rs *ReaderSegment
		if len(old) > 0 && old[0].Name == e.Name && e.ID != 0 && old[0].id == e.ID && len(old[0].data) == e.Size {
			rs = old[0]
		} else {
			sh, start, end, tier, ok := parseSegName(e.Name)
			if !ok {
				continue
			}
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
			rs = newReaderSegment(e.Name, sh, start, end, tier, data)
			rs.id = e.ID
		}
		r.listed = append(r.listed, rs)
	}
	// One array, by shard, whose runs become the shards' current segments.
	segs := slices.Clone(r.listed)
	slices.SortFunc(segs, func(a, b *ReaderSegment) int { return cmp.Compare(a.Shard, b.Shard) })
	for len(segs) > 0 {
		n := 1
		for n < len(segs) && segs[n].Shard == segs[0].Shard {
			n++
		}
		for len(r.shards) < segs[0].Shard {
			r.shards = append(r.shards, nil)
		}
		current, _ := currentGeneration(segs[:n:n],
			func(rs *ReaderSegment) segRange { return segRange{rs.Start, rs.end, rs.Tier} },
			func(rs *ReaderSegment) bool { return rs.Sealed })
		r.shards = append(r.shards, current)
		segs = segs[n:]
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
