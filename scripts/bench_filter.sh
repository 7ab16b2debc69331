#!/bin/sh
# Runs the filter hot-path and store ingest benchmarks with -benchmem
# and writes the results as JSON (default: BENCH_filter.json at the
# repo root), then the cluster-density benchmarks into a second file
# (default: BENCH_scale.json). CI runs this and archives both; the
# allocation
# regression gates are the testing.AllocsPerRun tests
# (internal/filter/alloc_test.go, internal/store/typed_test.go,
# internal/query/alloc_test.go, internal/agg/agg_test.go,
# internal/trace/view_test.go), which fail `go test` outright if a
# hot-path allocation creeps back in.
#
# The ratio gates below do not stop the run: each failure is reported
# and remembered, both JSON files are still written, and the script
# exits non-zero at the end. Every gate is one the 2-core reference
# host has been seen to pass; a bound it cannot meet, or meets only on
# its good days, is re-derived from recorded runs or removed with the
# reason (see FilterIngestLive and the QueryParallel memory ratio).
#
# The store ingest benchmarks run with fixed iteration counts that
# write the same total number of records: the in-memory backend keeps
# everything it ingests, so per-record cost grows with the live heap
# and unequal record counts would not be comparable.
set -e
cd "$(dirname "$0")/.."
out="${1:-BENCH_filter.json}"
scale_out="${2:-BENCH_scale.json}"
tmp="$(mktemp)"
scale_tmp="$(mktemp)"
trap 'rm -f "$tmp" "$scale_tmp"' EXIT
failed=0

go test -run '^$' -bench 'BenchmarkFilterEngine$' -benchmem -benchtime=200000x . >"$tmp"
go test -run '^$' -bench 'BenchmarkStoreIngest$' -benchmem -benchtime=1600000x . >>"$tmp"
# Batched ingest (16 records a batch, the same 1.6 M records as the
# per-record run above), plus the block-pruned query against its
# segment-pruned baseline. The compression ratio and pruning gates
# below read these lines. The pruned queries take ~60 us each since the
# scan stopped building an event per record, so they run 2000 times: at
# the old 50 the pair was 3 ms of work and its ratio was noise. Three
# runs each; the gate compares the best of each side (one run of five
# read 276 us for a 60 us query while the host stalled). The batched
# ingest runs three times as well, for the archiving gate.
go test -run '^$' -bench 'BenchmarkStoreIngestCompressed$' -benchmem -benchtime=100000x -count=3 . >>"$tmp"
# The store as the filter opens it (filter.StoreConfig: archival on) and
# record time advancing, so cold runs are rewritten into tier 1 on the
# appending goroutine. Same batch count as the run above; the archiving
# gate below compares the best of three of each.
go test -run '^$' -bench 'BenchmarkStoreIngestArchiving$' -benchmem -benchtime=100000x -count=3 . >>"$tmp"
# The same batches as the filter hands them over, typed: three runs, the
# slots gate below takes the best x-text.
go test -run '^$' -bench 'BenchmarkStoreIngestSlots$' -benchmem -benchtime=100000x -count=3 . >>"$tmp"
go test -run '^$' -bench 'BenchmarkQueryBlockPruned' -benchmem -benchtime=2000x -count=3 . >>"$tmp"
# Scaling benchmarks: the parallel ingest pipeline at 1/2/4/8 workers
# and the read executor at GOMAXPROCS 1/2/4 (it sizes its pool from
# GOMAXPROCS, so -cpu is the sweep and the -N row suffix records it; the
# -cpu 1 row has no suffix), so the perf trajectory records how the
# system uses cores, not just single-thread ns/op. Fixed iteration
# counts for the same comparability reason as the ingest pair.
go test -run '^$' -bench 'BenchmarkFilterEngineParallel' -benchmem -benchtime=100000x . >>"$tmp"
go test -run '^$' -bench 'BenchmarkQueryParallel' -benchmem -benchtime=100x -cpu 1,2,4 . >>"$tmp"
# Aggregation push-down: the pushdown/ship-records sub-benchmarks each
# report a bytes_moved metric; their ratio is the wire-traffic
# reduction claimed in EXPERIMENTS.md.
go test -run '^$' -bench 'BenchmarkAggPushdown' -benchmem -benchtime=100x -cpu 1,2,4 ./internal/agg/ >>"$tmp"
# Live streaming analysis overhead: the full pipeline with and without
# the live tap attached, same iteration count so the ns/op pair is
# directly comparable. Archived, not gated (see below); the per-record
# allocation gate is TestTapPathZeroAllocs in
# internal/analysis/live/live_test.go.
go test -run '^$' -bench 'BenchmarkFilterIngestLive' -benchmem -benchtime=100000x . >>"$tmp"
# The record tier's parse (ROADMAP item 2): three runs, the gate below
# takes the best.
go test -run '^$' -bench 'BenchmarkViewParse$' -benchmem -benchtime=200000x -count=3 -cpu 1 ./internal/trace/ >>"$tmp"
# A scanned record, stored typed and stored as text (ROADMAP item 4a):
# three runs, the gate below takes the best.
go test -run '^$' -bench 'BenchmarkScanTyped$|BenchmarkScanText$' -benchmem -benchtime=50x -count=3 -cpu 1 . >>"$tmp"
# What one machine's share of a `stats` costs at 16 384 processes
# (ROADMAP item 5c): three runs, the gate below takes the best.
go test -run '^$' -bench 'BenchmarkStatsRoundTrip$' -benchmem -benchtime=20x -count=3 -cpu 1 . >>"$tmp"

# Fail loudly rather than archive an empty or lying file: every bench
# must have produced a result line, and none may have collapsed to zero
# iterations (a sign the benchmark silently broke).
bench_lines=$(grep -c '^Benchmark' "$tmp" || true)
if [ "$bench_lines" -eq 0 ]; then
    echo "bench_filter.sh: no benchmark results produced" >&2
    exit 1
fi
bad=$(awk '/^Benchmark/ && ($2 + 0) <= 0 { print $1 }' "$tmp")
if [ -n "$bad" ]; then
    echo "bench_filter.sh: benchmarks regressed to 0 iterations:" >&2
    echo "$bad" >&2
    exit 1
fi

# Memory gate for the read executor: a second worker must not multiply
# bytes per query (the pooled-buffer fix took it from 2.4x to ~1.2x;
# the Go-level gate is TestParallelMemoryRatio). The ratio moves with
# how often a GC empties the pools mid-run: twenty recorded runs of the
# Go-level measurement on the 2-core host read 1.09-1.33x (median
# 1.20x, two over the old 1.25x line). 1.5x is above every recorded run
# and well under what the gate exists to catch.
if ! awk '
$1 == "BenchmarkQueryParallel"   { for (i = 3; i < NF; i++) if ($(i+1) == "B/op") one = $i }
$1 == "BenchmarkQueryParallel-2" { for (i = 3; i < NF; i++) if ($(i+1) == "B/op") two = $i }
END {
    if (one + 0 <= 0 || two + 0 <= 0) { print "bench_filter.sh: missing QueryParallel B/op results" > "/dev/stderr"; exit 1 }
    ratio = two / one
    if (ratio > 1.5) {
        printf "bench_filter.sh: QueryParallel -cpu 2 allocates %d B/op vs %d at -cpu 1 (%.2fx), gate is 1.5x\n", two, one, ratio > "/dev/stderr"
        exit 1
    }
}' "$tmp"; then failed=1; fi

# Read-path gates (ROADMAP item 2). The base of each ratio is the row
# archived in BENCH_filter.json by the last commit whose scans parsed
# every stored line into a trace.Event (fee9d51, 1-core container):
#   BenchmarkQueryParallel/workers=1   23476410 ns/op  86178 allocs/op
#   BenchmarkAggPushdown/pushdown       8975753 ns/op  75245 allocs/op
# AggPushdown/pushdown ships no record, so it is held to the item's
# whole target: >= 10x fewer allocs/op and >= 3x lower ns/op.
# QueryParallel matches and ships all 4000 records, and a shipped
# record is still a trace.Event - two maps, four allocations - so its
# allocation gate is 5x (86178 / (4 x 4000) = 5.4x is the floor of that
# representation), beside the same 3x on ns/op.
if ! awk '
function val(unit,   i) { for (i = 3; i < NF; i++) if ($(i+1) == unit) return $i; return 0 }
$1 == "BenchmarkQueryParallel"        { qns = val("ns/op"); qal = val("allocs/op") }
$1 == "BenchmarkAggPushdown/pushdown" { ans = val("ns/op"); aal = val("allocs/op") }
function gate(name, was, now, want, unit) {
    if (now + 0 <= 0) { printf "bench_filter.sh: missing %s %s result\n", name, unit > "/dev/stderr"; fail = 1; return }
    if (was / now < want) {
        printf "bench_filter.sh: %s %s is %.0f vs %.0f archived (%.2fx lower), gate is %dx\n", name, unit, now, was, was / now, want > "/dev/stderr"
        fail = 1
    }
}
END {
    gate("QueryParallel", 23476410, qns, 3, "ns/op")
    gate("QueryParallel", 86178, qal, 5, "allocs/op")
    gate("AggPushdown/pushdown", 8975753, ans, 3, "ns/op")
    gate("AggPushdown/pushdown", 75245, aal, 10, "allocs/op")
    exit fail
}' "$tmp"; then failed=1; fi

# Compression gates. The stored-segment format must actually earn its
# complexity: at least 3x smaller on disk than the v1-equivalent bytes.
# (It was also held to 1.25x the ns/op of the same batches through the
# v1 writer, BenchmarkStoreIngestBatch; that writer is gone and with it
# the baseline. Last archived reading 5365 vs 4406 ns/op, 1.22x; it had
# read 1.31x once in six runs.) Block pruning must not cost
# grossly more than the segment-pruned baseline it refines. The pair is
# two 0.12 s measurements (a ~60us query run 2000 times) taken one after
# the other on a host that changes speed in between: twenty recorded
# runs, ten at 32bff1d and ten at the commit after, read 0.87-1.45x
# (medians 1.20x and 1.08x) and failed the old 1.10x line eleven times.
# 1.5x is above every recorded run. Whether zone maps earn their keep at
# all is ROADMAP item 1's question, not this gate's.
if ! awk '
$1 ~ /^BenchmarkStoreIngestCompressed(-[0-9]+)?$/ {
    for (i = 3; i < NF; i++) if ($(i+1) == "compression-x") cx = $i
}
$1 ~ /^BenchmarkQueryBlockPruned\/segment-pruned(-[0-9]+)?$/ { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op" && (segp == 0 || $i < segp)) segp = $i }
$1 ~ /^BenchmarkQueryBlockPruned\/block-pruned(-[0-9]+)?$/   { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op" && (blkp == 0 || $i < blkp)) blkp = $i }
END {
    fail = 0
    if (cx + 0 <= 0) { print "bench_filter.sh: missing compression-x metric" > "/dev/stderr"; fail = 1 }
    else if (cx + 0 < 3) { printf "bench_filter.sh: compression ratio %.2fx below the 3x gate\n", cx > "/dev/stderr"; fail = 1 }
    if (segp + 0 <= 0 || blkp + 0 <= 0) { print "bench_filter.sh: missing block-pruned query results" > "/dev/stderr"; fail = 1 }
    else if (blkp / segp > 1.5) {
        printf "bench_filter.sh: block-pruned query %.0f ns/op vs %.0f segment-pruned (%.2fx), gate is 1.5x\n", blkp, segp, blkp / segp > "/dev/stderr"; fail = 1
    }
    exit fail
}' "$tmp"; then failed=1; fi

# Archiving gate: the cold rewrite runs on the ingest worker, so what it
# adds to an append is ingest cost. Since the rewrite moves a typed
# record as the view it decodes to (typed form to typed form; no line is
# built, parsed or proved in between), what it adds is decoding a block,
# one AppendTyped per record and DEFLATE at archive level 6 - and on this
# benchmark's records, all of them typed, DEFLATE is most of it (the
# profile split is in docs/perf.md, "Cold rewrite"). Archiving ingest
# therefore cannot approach compressed ingest while archiveLevel is 6:
# it read 1.78-1.80x on the best of three a side over the four runs made
# for this gate, against 2.6-2.75x while the rewrite went through text
# and 4.43x before it streamed (level 9, a flate.Writer per run), and is
# held to 2.2x. Tier-1 bytes are held to 1.02x the 1315912 the same
# 1.6 M records took at level 9, the level the sweep in docs/store.md
# traded away. Since v3 blocks the benchmark's lines carry the cpuTime
# their Meta carries (they did not, and were then all refused the typed
# shape: 3.36x, 1327490 bytes); typed, tier 1 is 517245 bytes, whichever
# way the records cross the rewrite.
if ! awk '
function val(unit,   i) { for (i = 3; i < NF; i++) if ($(i+1) == unit) return $i; return 0 }
$1 ~ /^BenchmarkStoreIngestCompressed(-[0-9]+)?$/ { if (comp == 0 || val("ns/op") < comp) comp = val("ns/op") }
$1 ~ /^BenchmarkStoreIngestArchiving(-[0-9]+)?$/  { if (arch == 0 || val("ns/op") < arch) arch = val("ns/op"); ab = val("archive_bytes") }
END {
    fail = 0
    if (comp + 0 <= 0 || arch + 0 <= 0 || ab + 0 <= 0) { print "bench_filter.sh: missing archiving ingest results" > "/dev/stderr"; exit 1 }
    if (arch / comp > 2.2) {
        printf "bench_filter.sh: archiving ingest %.0f ns/op vs %.0f compressed (%.2fx), gate is 2.2x\n", arch, comp, arch / comp > "/dev/stderr"; fail = 1
    }
    if (ab / 1315912 > 1.02) {
        printf "bench_filter.sh: tier-1 bytes %.0f vs 1315912 at level 9 (%.3fx), gate is 1.02x\n", ab, ab / 1315912 > "/dev/stderr"; fail = 1
    }
    exit fail
}' "$tmp"; then failed=1; fi

# Slots gate. The filter hands the store each record typed, and the
# store encodes it without parsing its line back or regenerating it to
# prove the typed form exact (tests prove that instead). x-text is how
# many times faster BenchmarkStoreIngestSlots appends its batches than
# the same batches with the slots stripped, which is the path before
# the hand-off, both sides at their best of ten alternating passes in
# one process. The best of three runs read 3.52, 3.63, 3.82 and 4.56x
# on the 2-core host when the gate was written; it is held at 2.5x.
if ! awk '
$1 ~ /^BenchmarkStoreIngestSlots(-[0-9]+)?$/ { for (i = 3; i < NF; i++) { if ($(i+1) == "x-text" && $i > best) best = $i; if ($(i+1) == "allocs/op" && $i > allocs) allocs = $i } }
END {
    if (best + 0 <= 0) { print "bench_filter.sh: missing StoreIngestSlots x-text result" > "/dev/stderr"; exit 1 }
    if (allocs + 0 > 0) { printf "bench_filter.sh: StoreIngestSlots allocates %d times per batch, want 0\n", allocs > "/dev/stderr"; exit 1 }
    if (best < 2.5) {
        printf "bench_filter.sh: typed batches append %.2fx faster than the same batches as text, gate is 2.5x\n", best > "/dev/stderr"
        exit 1
    }
}' "$tmp"; then failed=1; fi

# View.Parse gate (ROADMAP item 2, PR 17). The row archived at the last
# commit whose parseCanonical scanned every key to its '=' and hashed
# the type name (32bff1d, ten alternating runs on the 2-core host):
#   BenchmarkViewParse   165 ns/record [164,171]   4.25 x-ParseOne [4.15,4.32]
# The commit after read 114 ns/record [112,119] and 6.02 x-ParseOne
# [5.94,6.15] beside it: 1.45x and 1.42x. The host runs at two speeds
# 1.75x apart, so ns/record is archived but not gated; x-ParseOne — how
# many times faster than ParseOne the view read the same lines, both at
# their best chunk in one process — is, at 1.25x the parent's, on the
# best of the three runs. ParseOne is the oracle; a change that makes
# it faster or slower re-archives this row.
if ! awk '
$1 == "BenchmarkViewParse" { for (i = 3; i < NF; i++) { if ($(i+1) == "x-ParseOne" && $i > best) best = $i; if ($(i+1) == "allocs/op" && $i > allocs) allocs = $i } }
END {
    if (best + 0 <= 0) { print "bench_filter.sh: missing ViewParse x-ParseOne result" > "/dev/stderr"; exit 1 }
    if (allocs + 0 > 0) { printf "bench_filter.sh: ViewParse allocates %d times per op, want 0\n", allocs > "/dev/stderr"; exit 1 }
    if (best / 4.25 < 1.25) {
        printf "bench_filter.sh: ViewParse is %.2f x-ParseOne vs 4.25 archived (%.2fx), gate is 1.25x\n", best, best / 4.25 > "/dev/stderr"
        exit 1
    }
}' "$tmp"; then failed=1; fi

# Typed-scan gate (ROADMAP item 4a, PR 22). ScanSegment over 16 384
# records of the query_mix shape with a rule no zone map prunes, the
# records stored typed against the same records stored as text — which
# is what every record was before v3 blocks, and what a line the typed
# shape refuses still is. As for ViewParse, ns/record is archived but
# not gated; x-text — both sides at their best of twenty alternating
# passes in one process — is, at 1.8x, on the best of the three runs
# (it read 4.27-4.42x when the gate was written; the text side alone
# read 354-370 ns/record at the commit before, 87-89 typed after).
if ! awk '
$1 == "BenchmarkScanTyped" { for (i = 3; i < NF; i++) { if ($(i+1) == "x-text" && $i > best) best = $i; if ($(i+1) == "allocs/op" && $i > allocs) allocs = $i } }
END {
    if (best + 0 <= 0) { print "bench_filter.sh: missing ScanTyped x-text result" > "/dev/stderr"; exit 1 }
    if (allocs + 0 > 0) { printf "bench_filter.sh: ScanTyped allocates %d times per pass, want 0\n", allocs > "/dev/stderr"; exit 1 }
    if (best < 1.8) {
        printf "bench_filter.sh: a typed scan is %.2fx faster than a text scan, gate is 1.8x\n", best > "/dev/stderr"
        exit 1
    }
}' "$tmp"; then failed=1; fi

# Stats round-trip gate (ROADMAP item 5c, PR 21). The row archived at
# the last commit whose captures sorted a map walk of the cells with
# sort.Slice, whose snapshot buffer grew by reallocation and whose
# renderer decoded every process row (b6a3c85, nine runs on the 2-core
# host, this benchmark file copied onto it):
#   BenchmarkStatsRoundTrip   19.1 ms/op [18.4,24.9]   14443820 B/op   0.0638 x-sha256 [0.0611,0.0667]
# The commit after read 5.2 ms/op [5.1,5.5], 6876300 B/op and 0.214
# x-sha256 [0.212,0.220] beside it. As for ViewParse, ns/op is archived
# but not gated; x-sha256 — how many SHA-256 passes over the same wire
# bytes fit in one round trip, both at their best chunk in one process
# — is, at 2x the parent's best, on the best of the three runs, beside
# B/op at half the parent's.
if ! awk '
$1 == "BenchmarkStatsRoundTrip" { for (i = 3; i < NF; i++) { if ($(i+1) == "x-sha256" && $i > best) best = $i; if ($(i+1) == "B/op" && (bop == 0 || $i < bop)) bop = $i } }
END {
    if (best + 0 <= 0 || bop + 0 <= 0) { print "bench_filter.sh: missing StatsRoundTrip results" > "/dev/stderr"; exit 1 }
    if (best / 0.0667 < 2) {
        printf "bench_filter.sh: StatsRoundTrip is %.4f x-sha256 vs 0.0667 archived (%.2fx), gate is 2x\n", best, best / 0.0667 > "/dev/stderr"
        fail = 1
    }
    if (14443820 / bop < 2) {
        printf "bench_filter.sh: StatsRoundTrip allocates %d B/op vs 14443820 archived (%.2fx lower), gate is 2x\n", bop, 14443820 / bop > "/dev/stderr"
        fail = 1
    }
    exit fail
}' "$tmp"; then failed=1; fi

# No gate on BenchmarkFilterIngestLive. The 1.05x line (live=on within
# 5% of live=off, the design cost of one buffer swap per 512 records)
# assumes a core for the collector's drainer beside the pipeline's
# workers, and has never been seen green: on two cores the two workers
# hold both, the operators serialize into the wall clock, and every
# recorded run failed (1.15-1.45x over PRs 11-16). Ten more runs taken
# to re-derive a bound read 0.87, 1.28, 1.29, 1.39, 1.51, 1.53, 1.56,
# 1.56, 1.67 and 2.74x: the pair is two 0.3 s measurements and the host
# changes speed between them, so a bound that is green (3x) would not
# notice the operators doubling. The rows are still archived; what is
# held is TestTapPathZeroAllocs (the tap allocates nothing per record)
# and, in bench/, live.tap_overhead_x, measured inside one process.

awk '
BEGIN { print "{"; print "  \"generated_by\": \"scripts/bench_filter.sh\","; print "  \"benchmarks\": [" }
/^Benchmark/ {
    name = $1; iters = $2
    ns = "null"; mbs = "null"; bop = "null"; aop = "null"; bmv = "null"; cx = "null"; bod = "null"; blkp = "null"; ax = "null"; ab = "null"; ash = "null"; nsr = "null"; xpo = "null"; xsha = "null"; wb = "null"; xtext = "null"
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")         ns   = $i
        if ($(i+1) == "MB/s")          mbs  = $i
        if ($(i+1) == "B/op")          bop  = $i
        if ($(i+1) == "allocs/op")     aop  = $i
        if ($(i+1) == "bytes_moved")   bmv  = $i
        if ($(i+1) == "compression-x") cx   = $i
        if ($(i+1) == "bytes_on_disk") bod  = $i
        if ($(i+1) == "blocks-pruned") blkp = $i
        if ($(i+1) == "archive-x")      ax   = $i
        if ($(i+1) == "archive_bytes")  ab   = $i
        if ($(i+1) == "archived_share") ash  = $i
        if ($(i+1) == "ns/record")      nsr  = $i
        if ($(i+1) == "x-ParseOne")     xpo  = $i
        if ($(i+1) == "x-sha256")       xsha = $i
        if ($(i+1) == "wire_bytes")     wb   = $i
        if ($(i+1) == "x-text")         xtext = $i
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"bytes_moved\": %s, \"compression_x\": %s, \"bytes_on_disk\": %s, \"blocks_pruned\": %s, \"archive_x\": %s, \"archive_bytes\": %s, \"archived_share\": %s, \"ns_per_record\": %s, \"x_parseone\": %s, \"x_sha256\": %s, \"wire_bytes\": %s, \"x_text\": %s}", name, iters, ns, mbs, bop, aop, bmv, cx, bod, blkp, ax, ab, ash, nsr, xpo, xsha, wb, xtext
}
END { print ""; print "  ]"; print "}" }
' "$tmp" >"$out"

# The emit must carry exactly one JSON entry per benchmark line; a
# mismatch means the awk translation dropped results.
json_entries=$(grep -c '"name":' "$out" || true)
if [ "$json_entries" -ne "$bench_lines" ]; then
    echo "bench_filter.sh: JSON emit failed: $json_entries entries for $bench_lines benchmarks" >&2
    exit 1
fi

echo "wrote $out ($json_entries benchmarks)"

# Cluster-density benchmarks (bench_scale_test.go): machine boot cost
# and fabric delivery rate, archived as BENCH_scale.json next to the
# scale soak's ceilings. Fixed iteration counts for run-to-run
# comparability.
go test -run '^$' -bench 'BenchmarkClusterBoot' -benchtime=10x . >"$scale_tmp"
go test -run '^$' -bench 'BenchmarkDatagramFabric' -benchtime=50000x . >>"$scale_tmp"

scale_lines=$(grep -c '^Benchmark' "$scale_tmp" || true)
if [ "$scale_lines" -eq 0 ]; then
    echo "bench_filter.sh: no scale benchmark results produced" >&2
    exit 1
fi

awk '
BEGIN { print "{"; print "  \"generated_by\": \"scripts/bench_filter.sh\","; print "  \"benchmarks\": [" }
/^Benchmark/ {
    name = $1; iters = $2
    ns = "null"; boot = "null"; bpm = "null"; dps = "null"
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")               ns   = $i
        if ($(i+1) == "boot_ms")             boot = $i
        if ($(i+1) == "alloc_bytes/machine") bpm  = $i
        if ($(i+1) == "dgrams/s")            dps  = $i
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"boot_ms\": %s, \"alloc_bytes_per_machine\": %s, \"dgrams_per_s\": %s}", name, iters, ns, boot, bpm, dps
}
END { print ""; print "  ]"; print "}" }
' "$scale_tmp" >"$scale_out"

scale_entries=$(grep -c '"name":' "$scale_out" || true)
if [ "$scale_entries" -ne "$scale_lines" ]; then
    echo "bench_filter.sh: scale JSON emit failed: $scale_entries entries for $scale_lines benchmarks" >&2
    exit 1
fi

echo "wrote $scale_out ($scale_entries benchmarks)"

if [ "$failed" -ne 0 ]; then
    echo "bench_filter.sh: one or more gates failed (see above); results were written" >&2
    exit 1
fi
