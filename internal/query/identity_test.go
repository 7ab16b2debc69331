package query_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"dpm/internal/agg"
	"dpm/internal/meter"
	"dpm/internal/obs"
	"dpm/internal/query"
	"dpm/internal/store"
	"dpm/internal/trace"
)

// The byte-identity harness: every answer the read path can give over
// a set of seeded stores, reduced to sha256 digests and compared with
// the digests committed in testdata/identity.digests. A change to the
// scan that claims "no answer moves" regenerates nothing: the digests
// were written at the commit before it and must still match after it.
// Only a change that means to alter an answer runs
//
//	go test ./internal/query/ -run TestAnswersByteIdentical -update-identity
//
// and says in its description which lines moved and why.
var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/identity.digests from this build's answers")

const identityFile = "testdata/identity.digests"

// identityRules are the selection-rule sets of the query equivalence
// suites, plus sets whose envelope constrains pid and type so that
// every kind of pruning evidence is exercised.
var identityRules = []string{
	"",
	"machine=2",
	"cpuTime>=500,cpuTime<2000",
	"type=4\ntype=8",
	"pid=101,machine=#*",
	"msgLength>=300,cpuTime=#*",
	"machine=1,machine=2",
	"cpuTime>=1000\nmachine=3,cpuTime<3000",
	"msgLength=#*,pid=#*",
	"sockName=#*,peerName=#*\nnewPid=#*",
	"newPid=*",
	"sockName=peerName",
	"sockName!=peerName,sock=#*",
	"peerName=*,peerName=1",
	"type=1,pid=103,cpuTime>4000\nmachine=5,type=9",
}

var identitySpecs = []string{
	"agg count by machine",
	"agg sum(msgLength) by machine,pid",
	"agg count window 1s",
	"agg p95(msgLength) by type",
	"agg max(msgLength) by pid window 500ms",
	"agg min(newPid)",
	"top 3 machine by sum(msgLength)",
}

// identityLayouts are the stores the digests are taken over. The v1
// layouts are the checked-in files identityStore wrote, with these
// configurations, while a store still had a v1 writer (query.V1Fixtures); the
// others are built by this build's store, which writes v3 where the
// layout's name — its key in the digest file — says v2.
var identityLayouts = []struct {
	name string
	cfg  store.Config
	tail bool
	v1   bool
}{
	{"v1", store.Config{Shards: 3, SegmentCap: 1024}, false, true},
	{"v1+tail", store.Config{Shards: 3, SegmentCap: 1024}, true, true},
	{"v2", store.Config{Shards: 3, SegmentCap: 2048, BlockTarget: 512}, false, false},
	{"v2+tail", store.Config{Shards: 3, SegmentCap: 2048, BlockTarget: 512}, true, false},
	{"v2+archives", store.Config{Shards: 2, SegmentCap: 2048, BlockTarget: 512, ArchiveAfter: 1500}, true, false},
}

// identityStore fills a store with a seeded population whose clock
// advances (so cold segments archive) with heavy timestamp ties, and
// in which about one line in twelve is not what the filter would have
// written: forms only trace.ParseOne reads (hex, octal, a repeated
// key, stray blanks, header keys out of place, unknown keys) and lines
// nothing reads. Every record's Meta is the line's own, as the filter
// derives it; an unreadable line gets the Meta of the record it
// replaced.
func identityStore(t *testing.T, seed int64, cfg store.Config, tail bool) store.Backend {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	be := store.NewMemBackend()
	st, err := store.Open(be, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	add := func(i int) {
		typ := []meter.Type{meter.EvSend, meter.EvRecv, meter.EvFork, meter.EvConnect, meter.EvTermProc}[rng.Intn(5)]
		machine := rng.Intn(6) + 1
		cpu := int64(i/10*150 + rng.Intn(3)*50)
		pid := uint64(100 + rng.Intn(5))
		e := trace.Event{
			Type: typ, Event: typ.String(), Machine: machine, CPUTime: cpu, ProcTime: int64(rng.Intn(4) * 10),
			Fields: map[string]uint64{"pid": pid, "pc": uint64(0x4000 + rng.Intn(64))},
			Names:  map[string]meter.Name{},
		}
		switch typ {
		case meter.EvSend:
			e.Fields["sock"], e.Fields["msgLength"], e.Fields["destNameLen"] = 3, uint64(64+rng.Intn(512)), 16
			host := uint32(rng.Intn(3))
			e.Names["destName"], e.Fields["destName"] = meter.InetName(host, 80), uint64(host)
		case meter.EvRecv:
			e.Fields["sock"], e.Fields["msgLength"], e.Fields["sourceNameLen"] = 3, uint64(64+rng.Intn(512)), 0
			e.Names["sourceName"] = meter.Name{}
		case meter.EvFork:
			e.Fields["newPid"] = pid + 1
		case meter.EvConnect:
			e.Fields["sock"] = 4
			for _, k := range []string{"sockName", "peerName"} {
				name := meter.InetName(uint32(rng.Intn(2)), 80)
				if rng.Intn(5) == 0 {
					name = meter.UnixName("/tmp/s")
				}
				e.Names[k] = name
				if host, _ := name.Inet(); name.Family() == meter.AFInet {
					e.Fields[k] = uint64(host)
				}
			}
		case meter.EvTermProc:
			e.Fields["status"] = uint64(rng.Intn(2))
		}
		line := e.Format()
		m := store.Meta{Machine: uint16(machine), Time: uint32(cpu), Type: uint32(typ), PID: uint32(pid)}
		header := fmt.Sprintf("machine=%d cpuTime=%d procTime=%d", machine, cpu, e.ProcTime)
		body := strings.TrimPrefix(line, e.Event+" "+header)
		switch rng.Intn(96) {
		case 0:
			line = strings.Replace(line, fmt.Sprintf("pid=%d", pid), fmt.Sprintf("pid=%#x", pid), 1)
		case 1:
			line = strings.Replace(line, " pc=", " pc=0", 1)
		case 2: // a repeated key: the last wins, and the Meta says so
			line += " pid=104"
			m.PID = 104
		case 3:
			line = "  " + strings.Replace(line, " ", "\t", 1) + " "
		case 4:
			line = e.Event + body + " " + header
		case 5:
			line = e.Event + fmt.Sprintf(" cpuTime=%d machine=%d", cpu, machine) + body
		case 6:
			line += " extra=7 where=unix:/x"
		case 7:
			line = strings.Replace(line, " pc=", " between=1 pc=", 1)
		case 8:
			line = "NOT A TRACE LINE"
		case 9:
			line = strings.Replace(line, fmt.Sprintf("pid=%d", pid), "pid=notanumber", 1)
		case 10:
			line = line[:len(line)/2]
		case 11:
			line = strings.ToLower(line)
		}
		if err := st.Append(m, line); err != nil {
			t.Fatal(err)
		}
	}
	sealed := n
	if tail {
		sealed = n - n/10
	}
	for i := 0; i < sealed; i++ {
		add(i)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := sealed; i < n; i++ {
		add(i)
	}
	return be
}

// digestStats writes the statistics both commits define. BadLines
// counts lines the parser rejected among the lines it was shown, so it
// is fixed only where nothing is skipped before the parse: with
// pruning off.
func digestStats(w *strings.Builder, st query.Stats, noPrune bool) {
	fmt.Fprintf(w, "segments=%d scanned=%d pruned=%d blocks=%d blocksPruned=%d records=%d matched=%d",
		st.Segments, st.Scanned, st.Pruned, st.Blocks, st.BlocksPruned, st.Records, st.Matched)
	if noPrune {
		fmt.Fprintf(w, " badLines=%d", st.BadLines)
	}
	w.WriteByte('\n')
}

// digestEvent writes everything an event holds, maps in key order.
func digestEvent(w *strings.Builder, e *trace.Event) {
	fmt.Fprintf(w, "%d %d %q %d %d %d", e.Seq, e.Type, e.Event, e.Machine, e.CPUTime, e.ProcTime)
	var keys []string
	for k := range e.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %q=%d", k, e.Fields[k])
	}
	keys = keys[:0]
	for k := range e.Names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %q=%x", k, e.Names[k])
	}
	w.WriteByte('\n')
}

// answers renders every answer one rule set has over one store — the
// record query and each aggregate, pruned and unpruned — as text.
func answers(t *testing.T, rd *store.Reader, rules string) string {
	t.Helper()
	var w strings.Builder
	for _, noPrune := range []bool{false, true} {
		q, err := query.Compile(rules)
		if err != nil {
			t.Fatal(err)
		}
		q.NoPrune = noPrune
		res, err := query.Run(rd, q)
		if err != nil {
			t.Fatal(err)
		}
		digestStats(&w, res.Stats, noPrune)
		for i := range res.Events {
			digestEvent(&w, &res.Events[i])
		}
		for _, spec := range identitySpecs {
			aq, err := agg.Compile(rules + "\n" + spec)
			if err != nil {
				t.Fatal(err)
			}
			aq.Sel.NoPrune = noPrune
			p, st, err := agg.Eval(rd, aq, agg.Options{})
			if err != nil {
				t.Fatal(err)
			}
			digestStats(&w, st, noPrune)
			fmt.Fprintf(&w, "%x\n", p.MarshalBinary())
		}
	}
	return w.String()
}

// committedDigests reads testdata/identity.digests: layout and rule set
// to digest.
func committedDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(identityFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if key, sum, ok := strings.Cut(sc.Text(), "\t"); ok {
			want[key] = sum
		}
	}
	return want
}

func TestAnswersByteIdentical(t *testing.T) {
	want := map[string]string{}
	if !*updateIdentity {
		want = committedDigests(t)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out strings.Builder
	checked := 0
	for li, lay := range identityLayouts {
		var be store.Backend
		if lay.v1 {
			be = query.LoadFixture(t, query.V1Fixtures, lay.name)
		} else {
			be = identityStore(t, int64(1000+li), lay.cfg, lay.tail)
		}
		rd, err := store.OpenReader(be)
		if err != nil {
			t.Fatal(err)
		}
		for _, shard := range rd.Shards() {
			for _, rs := range shard {
				if want := map[bool]int{true: 1, false: 3}[lay.v1]; rs.FormatVersion() != want {
					t.Fatalf("layout %s: %s is v%d, want v%d", lay.name, rs.Name, rs.FormatVersion(), want)
				}
			}
		}
		if lay.name == "v2+archives" {
			archived := 0
			for _, shard := range rd.Shards() {
				for _, rs := range shard {
					archived += rs.Tier
				}
			}
			if archived == 0 {
				t.Fatalf("layout %s holds no archive segment", lay.name)
			}
		}
		for ri, rules := range identityRules {
			key := fmt.Sprintf("%s rules=%d", lay.name, ri)
			var sum string
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got := fmt.Sprintf("%x", sha256.Sum256([]byte(answers(t, rd, rules))))
				if sum == "" {
					sum = got
				}
				if got != sum {
					t.Fatalf("%s: answers at GOMAXPROCS=%d differ from GOMAXPROCS=1", key, procs)
				}
			}
			fmt.Fprintf(&out, "%s\t%s\n", key, sum)
			if *updateIdentity {
				continue
			}
			checked++
			if want[key] != sum {
				t.Errorf("%s (%q): digest %s, committed %s", key, rules, sum, want[key])
			}
		}
	}
	if *updateIdentity {
		if err := os.WriteFile(identityFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if checked != len(want) {
		t.Errorf("%d digests committed, %d checked", len(want), checked)
	}
}

// TestV2FixturesAnswerIdentically: the checked-in v2 stores give the
// committed digests of their layouts — the very lines
// TestAnswersByteIdentical holds this build's v3 stores of the same
// records to. So the v2 reader still reads every v2 file as it did, and
// a v2 store and a v3 store of the same records answer alike.
func TestV2FixturesAnswerIdentically(t *testing.T) {
	want := committedDigests(t)
	for li, lay := range identityLayouts {
		if lay.v1 {
			continue
		}
		rd, err := store.OpenReader(query.LoadFixture(t, query.V2Fixtures, lay.name))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := store.OpenReader(identityStore(t, int64(1000+li), lay.cfg, lay.tail))
		if err != nil {
			t.Fatal(err)
		}
		if rd.NumSegments() == 0 || rd.NumSegments() != fresh.NumSegments() {
			t.Fatalf("%s: fixture has %d segments, this build writes %d", lay.name, rd.NumSegments(), fresh.NumSegments())
		}
		for sh, segs := range rd.Shards() {
			for i, rs := range segs {
				now := fresh.Shards()[sh][i]
				if rs.FormatVersion() != 2 || now.FormatVersion() != 3 {
					t.Fatalf("%s: fixture %s is v%d, this build's %s v%d; want 2 and 3", lay.name, rs.Name, rs.FormatVersion(), now.Name, now.FormatVersion())
				}
				if rs.Name != now.Name || rs.Sealed != now.Sealed || rs.Index != now.Index && rs.Sealed {
					t.Fatalf("%s: fixture %s (sealed=%v, %+v) against %s (sealed=%v, %+v)", lay.name, rs.Name, rs.Sealed, rs.Index, now.Name, now.Sealed, now.Index)
				}
			}
		}
		for ri, rules := range identityRules {
			key := fmt.Sprintf("%s rules=%d", lay.name, ri)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(answers(t, rd, rules)))); got != want[key] {
				t.Errorf("%s (%q): the v2 fixture's digest is %s, committed %s", key, rules, got, want[key])
			}
		}
		// Every v2 record is parsed; a v3 store parses only what fell back
		// to text, which is the one line in twelve the filter did not write.
		q, err := query.Compile("")
		if err != nil {
			t.Fatal(err)
		}
		old, err := query.Run(rd, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Run(fresh, q)
		if err != nil {
			t.Fatal(err)
		}
		if old.Stats.Parsed != old.Stats.Records || res.Stats.Records != old.Stats.Records {
			t.Fatalf("%s: v2 scan %+v, v3 scan %+v", lay.name, old.Stats, res.Stats)
		}
		if res.Stats.Parsed == 0 || res.Stats.Parsed*6 > res.Stats.Records {
			t.Errorf("%s: the v3 store parsed %d of %d records, want about one in twelve", lay.name, res.Stats.Parsed, res.Stats.Records)
		}
	}
}

// shardRecs reads every record of a snapshot of be, in order, per shard,
// and the format versions of the segments that hold them.
func shardRecs(t *testing.T, be store.Backend) (recs [][]store.Rec, versions map[int]int) {
	t.Helper()
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	d := store.AcquireDecoder()
	defer store.ReleaseDecoder(d)
	versions = map[int]int{}
	for _, segs := range rd.Shards() {
		var out []store.Rec
		for _, rs := range segs {
			versions[rs.FormatVersion()]++
			_, err := rs.ScanViews(d, nil, func(m store.Meta, v *trace.View, line []byte) {
				if v != nil {
					line = v.AppendLine(nil)
				}
				out = append(out, store.Rec{Meta: m, Line: string(line)})
			})
			if err != nil {
				t.Fatalf("scan %s: %v", rs.Name, err)
			}
		}
		recs = append(recs, out)
	}
	return recs, versions
}

// TestV1FixturesRewriteToV3: a store opened over what a v1 writer left
// behind — sealed segments and a never-sealed tail per shard — salvages
// the tails, takes appends, compacts and archives, and ends holding v3
// segments only: every fixture record in its shard's order, then the
// appended ones, byte for byte.
func TestV1FixturesRewriteToV3(t *testing.T) {
	be := query.LoadFixture(t, query.V1Fixtures, "v1+tail")
	want, versions := shardRecs(t, be)
	if len(want) != 3 || len(versions) != 1 || versions[1] == 0 {
		t.Fatalf("fixture: %d shards, segments by version %v; want 3 shards of v1", len(want), versions)
	}
	reg := obs.NewRegistry()
	st, err := store.Open(be, store.Config{Shards: 3, SegmentCap: 1024, BlockTarget: 512, ArchiveAfter: 1500, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.recovered").Load(); got != 3 {
		t.Fatalf("store.recovered = %d, want the 3 unsealed tails", got)
	}
	// Long after the fixture's last record (cpuTime ~6000), so all of it
	// is cold: batches that rotate, then lone records sealed one by one
	// for compaction to merge.
	add := func(i int) store.BatchRec {
		e := trace.Event{
			Type: meter.EvSend, Event: meter.EvSend.String(), Machine: i%6 + 1, CPUTime: int64(20_000 + i*10),
			Fields: map[string]uint64{"pid": 100, "pc": 0x4000, "sock": 3, "msgLength": uint64(64 + i), "destNameLen": 16, "destName": 1},
			Names:  map[string]meter.Name{"destName": meter.InetName(1, 80)},
		}
		line := e.Format()
		if i%7 == 0 {
			line += " extra=7" // not the filter's: stays text
		}
		m := store.Meta{Machine: uint16(e.Machine), Time: uint32(e.CPUTime), Type: uint32(e.Type), PID: 100}
		want[e.Machine%3] = append(want[e.Machine%3], store.Rec{Meta: m, Line: line})
		return store.BatchRec{Meta: m, Line: []byte(line)}
	}
	n := 0
	for ; n < 240; n += 12 {
		var batch []store.BatchRec
		for i := n; i < n+12; i++ {
			batch = append(batch, add(i))
		}
		if err := st.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for ; n < 240+6*3; n += 3 {
		if err := st.AppendBatch([]store.BatchRec{add(n), add(n + 1), add(n + 2)}); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"store.compactions", "store.archive_runs"} {
		if reg.Counter(c).Load() == 0 {
			t.Errorf("%s = 0: the fixture was not put through it", c)
		}
	}
	if errs := reg.Counter("store.maintain_errors").Load(); errs != 0 {
		t.Fatalf("store.maintain_errors = %d", errs)
	}
	got, versions := shardRecs(t, be)
	if len(versions) != 1 || versions[3] == 0 {
		t.Fatalf("segments by format version %v, want v3 only", versions)
	}
	for sh := range want {
		if !slices.Equal(got[sh], want[sh]) {
			t.Fatalf("shard %d holds %d records, want %d, or they differ", sh, len(got[sh]), len(want[sh]))
		}
	}
}
