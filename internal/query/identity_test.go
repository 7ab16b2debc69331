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

// identityLayouts are the stores the digests are taken over, built by
// this build's store. A layout's name is its key in the digest file, and
// says v1 or v2 where the stores were first written in those formats;
// dir is the directory of query.Fixtures that holds the checked-in v3
// files of the layout.
var identityLayouts = []struct {
	name, dir string
	cfg       store.Config
	tail      bool
}{
	{"v1", "cap1k", store.Config{Shards: 3, SegmentCap: 1024}, false},
	{"v1+tail", "cap1k+tail", store.Config{Shards: 3, SegmentCap: 1024}, true},
	{"v2", "cap2k", store.Config{Shards: 3, SegmentCap: 2048}, false},
	{"v2+tail", "cap2k+tail", store.Config{Shards: 3, SegmentCap: 2048}, true},
	{"v2+archives", "cap2k+archives", store.Config{Shards: 2, SegmentCap: 2048, ArchiveAfter: 1500}, true},
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
		if err := query.AppendLine(st, m, line); err != nil {
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
	fmt.Fprintf(w, "segments=%d scanned=%d pruned=%d records=%d matched=%d",
		st.Segments, st.Scanned, st.Pruned, st.Records, st.Matched)
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
		events, err := trace.ParseLog(res.Lines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			digestEvent(&w, &events[i])
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
		rd, err := store.OpenReader(identityStore(t, int64(1000+li), lay.cfg, lay.tail))
		if err != nil {
			t.Fatal(err)
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

// shardRecs reads every record of a snapshot of be, in order, per shard,
// and counts the segments that hold them that are not sealed.
func shardRecs(t *testing.T, be store.Backend) (recs [][]store.Rec, unsealed int) {
	t.Helper()
	rd, err := store.OpenReader(be)
	if err != nil {
		t.Fatal(err)
	}
	d := store.AcquireDecoder()
	defer store.ReleaseDecoder(d)
	for _, segs := range rd.Shards() {
		var out []store.Rec
		for _, rs := range segs {
			if !rs.Sealed {
				unsealed++
			}
			_, err := rs.ScanViews(d, func(m store.Meta, v *trace.View, line []byte) {
				if v != nil {
					line = v.AppendLine(nil, nil)
				}
				out = append(out, store.Rec{Meta: m, Line: string(line)})
			})
			if err != nil {
				t.Fatalf("scan %s: %v", rs.Name, err)
			}
		}
		recs = append(recs, out)
	}
	return recs, unsealed
}

// TestFixturesRecoverAndRewrite: a store opened over what an earlier
// writer left behind — sealed segments and a never-sealed tail per shard
// — salvages the tails, takes appends, compacts and archives, and ends
// holding sealed segments only: every fixture record in its shard's
// order, then the appended ones, byte for byte.
func TestFixturesRecoverAndRewrite(t *testing.T) {
	be := query.LoadFixture(t, query.Fixtures, "cap1k+tail")
	want, unsealed := shardRecs(t, be)
	if len(want) != 3 || unsealed != 3 {
		t.Fatalf("fixture: %d shards, %d segments unsealed; want 3 shards with an unsealed tail each", len(want), unsealed)
	}
	reg := obs.NewRegistry()
	st, err := store.Open(be, store.Config{Shards: 3, SegmentCap: 1024, ArchiveAfter: 1500, Obs: reg})
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
	got, unsealed := shardRecs(t, be)
	if unsealed != 0 {
		t.Fatalf("%d segments unsealed, want none", unsealed)
	}
	for sh := range want {
		if !slices.Equal(got[sh], want[sh]) {
			t.Fatalf("shard %d holds %d records, want %d, or they differ", sh, len(got[sh]), len(want[sh]))
		}
	}
}

// TestFixturesRebuildByteIdentical pins the hot writer's bytes: each
// layout of the checked-in v3 stores, rebuilt by identityStore with its
// seed and configuration, is the layout's files (LoadFixture holds them
// to the MANIFEST), name for name and byte for byte, archives included.
func TestFixturesRebuildByteIdentical(t *testing.T) {
	files := func(be store.Backend) map[string]string {
		listed, err := be.List()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range listed {
			data, err := be.Read(e.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name] = fmt.Sprintf("%d bytes, sha256 %x", len(data), sha256.Sum256(data))
		}
		return out
	}
	for li, lay := range identityLayouts {
		want := files(query.LoadFixture(t, query.Fixtures, lay.dir))
		got := files(identityStore(t, int64(1000+li), lay.cfg, lay.tail))
		if len(got) != len(want) {
			t.Errorf("%s: rebuilt %d files, the fixture has %d", lay.dir, len(got), len(want))
		}
		for name, sum := range got {
			if sum != want[name] {
				t.Errorf("%s/%s rebuilt is %s, the fixture's %q", lay.dir, name, sum, want[name])
			}
		}
	}
}
