#!/bin/sh
# Runs the filter hot-path and store ingest benchmarks with -benchmem
# and writes the results as JSON (default: BENCH_filter.json at the
# repo root), then the cluster-density benchmarks into a second file
# (default: BENCH_scale.json). CI runs this and archives both; the
# allocation
# regression gates are the testing.AllocsPerRun tests
# (internal/filter/alloc_test.go, internal/store/batch_test.go,
# internal/query/alloc_test.go, internal/agg/agg_test.go,
# internal/trace/view_test.go), which fail `go test` outright if a
# hot-path allocation creeps back in.
#
# The ratio gates below do not stop the run: each failure is reported
# and remembered, both JSON files are still written, and the script
# exits non-zero at the end. A gate that a small host cannot meet (the
# live-analysis 1.05x on two cores) therefore no longer keeps the other
# rows from being regenerated.
#
# The two store ingest benchmarks run with fixed iteration counts that
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

go test -run '^$' -bench 'BenchmarkFilterEngine$|BenchmarkFilterEngineProcess$' -benchmem -benchtime=200000x . >"$tmp"
go test -run '^$' -bench 'BenchmarkStoreIngest$' -benchmem -benchtime=1600000x . >>"$tmp"
go test -run '^$' -bench 'BenchmarkStoreIngestBatch$' -benchmem -benchtime=100000x . >>"$tmp"
# Compressed tier: same batch count as BenchmarkStoreIngestBatch so the
# ns/op pair is directly comparable, plus the block-pruned query against
# its segment-pruned baseline. The compression ratio and pruning gates
# below read these lines. The pruned queries take ~60 us each since the
# scan stopped building an event per record, so they run 2000 times: at
# the old 50 the pair was 3 ms of work and its ratio was noise.
go test -run '^$' -bench 'BenchmarkStoreIngestCompressed$' -benchmem -benchtime=100000x . >>"$tmp"
# The store as the filter opens it (filter.StoreConfig: archival on) and
# record time advancing, so cold runs are rewritten into tier 1 on the
# appending goroutine. Same batch count as the pair above; the archiving
# gate below reads this line.
go test -run '^$' -bench 'BenchmarkStoreIngestArchiving$' -benchmem -benchtime=100000x . >>"$tmp"
go test -run '^$' -bench 'BenchmarkQueryBlockPruned' -benchmem -benchtime=2000x . >>"$tmp"
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
# directly comparable. The overhead gate below reads these lines; the
# per-record allocation gate is TestTapPathZeroAllocs in
# internal/analysis/live/live_test.go.
go test -run '^$' -bench 'BenchmarkFilterIngestLive' -benchmem -benchtime=100000x . >>"$tmp"

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
# bytes per query (the pooled-buffer fix; the Go-level gate is
# internal/query/alloc_test.go). 1.25x leaves slack over the ~1.2x
# target for heap noise between runs.
if ! awk '
$1 == "BenchmarkQueryParallel"   { for (i = 3; i < NF; i++) if ($(i+1) == "B/op") one = $i }
$1 == "BenchmarkQueryParallel-2" { for (i = 3; i < NF; i++) if ($(i+1) == "B/op") two = $i }
END {
    if (one + 0 <= 0 || two + 0 <= 0) { print "bench_filter.sh: missing QueryParallel B/op results" > "/dev/stderr"; exit 1 }
    ratio = two / one
    if (ratio > 1.25) {
        printf "bench_filter.sh: QueryParallel -cpu 2 allocates %d B/op vs %d at -cpu 1 (%.2fx), gate is 1.25x\n", two, one, ratio > "/dev/stderr"
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
# complexity: at least 3x smaller on disk than the v1-equivalent bytes,
# and no more than 1.25x the batched-ingest cost (the structural
# encoding runs inline on the write path). Block pruning must not cost
# more than the segment-pruned baseline it refines: 1.10x slack covers
# scheduler noise on a ~60us benchmark run 2000 times.
if ! awk '
$1 ~ /^BenchmarkStoreIngestBatch(-[0-9]+)?$/ {
    for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") batch = $i
}
$1 ~ /^BenchmarkStoreIngestCompressed(-[0-9]+)?$/ {
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")         comp = $i
        if ($(i+1) == "compression-x") cx   = $i
    }
}
$1 ~ /^BenchmarkQueryBlockPruned\/segment-pruned(-[0-9]+)?$/ { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") segp = $i }
$1 ~ /^BenchmarkQueryBlockPruned\/block-pruned(-[0-9]+)?$/   { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") blkp = $i }
END {
    fail = 0
    if (cx + 0 <= 0) { print "bench_filter.sh: missing compression-x metric" > "/dev/stderr"; fail = 1 }
    else if (cx + 0 < 3) { printf "bench_filter.sh: compression ratio %.2fx below the 3x gate\n", cx > "/dev/stderr"; fail = 1 }
    if (batch + 0 <= 0 || comp + 0 <= 0) { print "bench_filter.sh: missing ingest ns/op results" > "/dev/stderr"; fail = 1 }
    else if (comp / batch > 1.25) {
        printf "bench_filter.sh: compressed ingest %.0f ns/op vs %.0f batch (%.2fx), gate is 1.25x\n", comp, batch, comp / batch > "/dev/stderr"; fail = 1
    }
    if (segp + 0 <= 0 || blkp + 0 <= 0) { print "bench_filter.sh: missing block-pruned query results" > "/dev/stderr"; fail = 1 }
    else if (blkp / segp > 1.10) {
        printf "bench_filter.sh: block-pruned query %.0f ns/op vs %.0f segment-pruned (%.2fx), gate is 1.10x\n", blkp, segp, blkp / segp > "/dev/stderr"; fail = 1
    }
    exit fail
}' "$tmp"; then failed=1; fi

# Archiving gate: the cold rewrite runs on the ingest worker, so what it
# adds to an append is ingest cost. The rewrite decodes every record and
# stages it again (the structural encoding is most of what an append
# costs) before DEFLATE sees it, so archiving ingest cannot approach
# compressed ingest; it measured 1.9x to 2.6x over seven runs at archive
# level 6 against 4.43x before the rewrite streamed (level 9, a
# flate.Writer per run), and is held to 3x. Tier-1 bytes are held to 1.02x the 1315912 the same
# 1.6 M records took at level 9, the level the sweep in docs/store.md
# traded away.
if ! awk '
function val(unit,   i) { for (i = 3; i < NF; i++) if ($(i+1) == unit) return $i; return 0 }
$1 ~ /^BenchmarkStoreIngestCompressed(-[0-9]+)?$/ { comp = val("ns/op") }
$1 ~ /^BenchmarkStoreIngestArchiving(-[0-9]+)?$/  { arch = val("ns/op"); ab = val("archive_bytes") }
END {
    fail = 0
    if (comp + 0 <= 0 || arch + 0 <= 0 || ab + 0 <= 0) { print "bench_filter.sh: missing archiving ingest results" > "/dev/stderr"; exit 1 }
    if (arch / comp > 3) {
        printf "bench_filter.sh: archiving ingest %.0f ns/op vs %.0f compressed (%.2fx), gate is 3x\n", arch, comp, arch / comp > "/dev/stderr"; fail = 1
    }
    if (ab / 1315912 > 1.02) {
        printf "bench_filter.sh: tier-1 bytes %.0f vs 1315912 at level 9 (%.3fx), gate is 1.02x\n", ab, ab / 1315912 > "/dev/stderr"; fail = 1
    }
    exit fail
}' "$tmp"; then failed=1; fi

# Live-analysis overhead gate. The collector's design cost on the
# ingest thread is one buffer swap per 512 records — the operators run
# on a drainer goroutine — so on a multi-core host live=on must stay
# within 1.05x of live=off. On a single-core host there is no spare
# core: the drainer's operator work serializes into the same wall
# clock, and the measured ratio includes the full per-record operator
# cost (~25 ns against a ~200 ns baseline), so the gate widens to
# 1.30x there. Both bounds are recorded in docs/observability.md.
ncpu=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -1 )
if [ "$ncpu" -gt 1 ] 2>/dev/null; then live_gate=1.05; else live_gate=1.30; fi
if ! awk -v gate="$live_gate" '
$1 ~ /^BenchmarkFilterIngestLive\/live=off(-[0-9]+)?$/ { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") off = $i }
$1 ~ /^BenchmarkFilterIngestLive\/live=on(-[0-9]+)?$/  { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") on  = $i }
END {
    if (off + 0 <= 0 || on + 0 <= 0) { print "bench_filter.sh: missing FilterIngestLive ns/op results" > "/dev/stderr"; exit 1 }
    ratio = on / off
    if (ratio > gate) {
        printf "bench_filter.sh: live analysis ingest %.0f ns/op vs %.0f without (%.2fx), gate is %.2fx\n", on, off, ratio, gate > "/dev/stderr"
        exit 1
    }
}' "$tmp"; then failed=1; fi

awk '
BEGIN { print "{"; print "  \"generated_by\": \"scripts/bench_filter.sh\","; print "  \"benchmarks\": [" }
/^Benchmark/ {
    name = $1; iters = $2
    ns = "null"; mbs = "null"; bop = "null"; aop = "null"; bmv = "null"; cx = "null"; bod = "null"; blkp = "null"; ax = "null"; ab = "null"; ash = "null"
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
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"bytes_moved\": %s, \"compression_x\": %s, \"bytes_on_disk\": %s, \"blocks_pruned\": %s, \"archive_x\": %s, \"archive_bytes\": %s, \"archived_share\": %s}", name, iters, ns, mbs, bop, aop, bmv, cx, bod, blkp, ax, ab, ash
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
