#!/bin/sh
# CI guards for the simulator's performance substrate.
#
# Gate 1 — tick-elision (DESIGN.md §9): runs BenchmarkCFSSimulation once
# and fails if its events/run metric climbs back above a generous
# ceiling — i.e. if a change accidentally reintroduces the
# every-boundary tick pump. The elided kernel runs the 500-task
# benchmark in ~2.3k events; the naive pump needs ~137k; the default
# ceiling of 40000 leaves ~10x headroom for legitimate workload or
# policy changes while still catching a pump regression outright.
#
# Gate 2 — sharded-fleet regression (DESIGN.md §11): reruns the small
# sharded-replay and sweep-runner benchmarks plus the per-arrival
# dispatch-pick micro-benchmark (DESIGN.md §12 — the load index must
# keep picks flat in fleet size), the full routing step
# (BenchmarkRouterRoute, DESIGN.md §10 — the indexed warm pools must not
# fall back to scanning every instance per arrival), the exact-record
# fleets' record path (BenchmarkExactRecordSlots, DESIGN.md §11 —
# each record is written once, straight into its ID slot) and the
# fault-injected replay
# (DESIGN.md §14 — crash sweeps, timeouts, and retry re-admission must
# stay off the simulator's hot paths) and diffs their ns/op against the
# committed BENCH_baseline.json via benchfmt -diff, failing on any
# regression beyond MAXPCT percent. The 24 h ×10 replays are excluded
# here — their baseline rows show up in the diff as "only in old
# baseline", which the gate ignores. Both sides use
# mean-of-3 iterations (bench_baseline.sh records the same protocol);
# even so, multi-second timings on shared hardware drift, so the
# threshold catches algorithmic regressions (a lost merge tree, an
# accidental O(servers) scan per event), not percent-level drift — on a
# noisy box pass a looser second argument. Every rerun but DispatchPick
# runs at -cpu 1, the proc count its unsuffixed row was recorded at: at
# two procs the 100-server replay reads 41–45% and the sweep runner
# 46–61% under their rows, which would hide a regression that large.
#
# Gate 3 — zero-alloc hot paths: asserts every BenchmarkDispatchPick row
# reports allocs/op == 0, pinning the observability seams' inertness
# guarantee at the allocation level (DESIGN.md §13), that
# BenchmarkRBTreeInsertDelete does too — CFS runqueues link caller-owned
# nodes, so a delete + re-insert must never allocate (DESIGN.md §15) —
# that all three BenchmarkKernelAdmitRun rows (hybrid, fifo, cfs) do:
# in steady state a server's admission into the arrival FIFO and its
# event loop reuse pooled tasks, events and ring slots (DESIGN.md §18),
# and the hybrid keeps no per-task table (DESIGN.md §19); and that both
# BenchmarkSinkPush rows (accumulator, windowed) do: a completed record's
# push into a streaming sink touches only counters and histogram buckets
# that already exist (DESIGN.md §20). The other two SinkPush rows stay
# out. The exact Store keeps every record, so it allocates ~80 B/op (one
# 80-byte record per push) in 1,024-record chunks by design (DESIGN.md
# §11), and its 0 allocs/op only rounds down one allocation per 1,024
# pushes. windowed-open opens a sink every 64 records by design; Gate 8
# caps its bytes.
#
# Gate 4 — sampler events (DESIGN.md §16): the 100-server sharded
# replay's kernel events per invocation must stay at or under 12. The
# utilization sampler is virtual, so its 100 ms grid points schedule no
# kernel event; the row reads 9.34 events/inv with the virtual sampler
# and 18.16 with the heap-event sampler it replaced, so the ceiling fails
# if sampler periods come back as kernel events.
#
# Gate 5 — replay memory (DESIGN.md §17): the same 100-server row, run
# with -benchmem, must allocate at most 8 bytes per invocation
# (B/op ÷ invocations). It reads 3.7 B/inv with 32-byte invocations
# (4.4 with the 48-byte ones before), 12.6 when the row was first gated,
# and 260 with the hybrid's monitor series on every server, so the
# ceiling fails if per-period monitor storage, a wider arrival or any
# other per-invocation allocation comes back on a fleet replay.
#
# Gate 6 — fleet-size memory (DESIGN.md §12): runs the same 10-minute
# least-loaded hybrid replay on 10,000 and on 100,000 servers and fails if
# the larger fleet's peak RSS is more than 1.2× the smaller one's. The
# stream packs onto ~160 servers either way, so only per-server state
# built for servers that receive no work can tell the two apart: with
# the routing state in 64-server pages allocated at first use the ratio
# reads ~1.01× (5.6–5.8 MB both); with fleet-sized lane, index and member
# arrays it read 1.46×, and with policies and lanes built for every
# server up front 5.4–5.8×.
#
# Gate 7 — exact-record bytes (DESIGN.md §11): BenchmarkExactRecordSlots
# writes 250,000 records into their ID slots, and its B/op is the one
# record array it keeps, so it is deterministic. It must stay at or under
# 21,000,000 B/op, 84 B per record: the 80-byte pointer-free
# metrics.Record reads 20.0 MB/op, and the 96-byte record with a label
# string it replaced 24.0 MB/op, so the ceiling fails if a field is
# added, widened or padded back out.
#
# Gate 8 — window-opening bytes (DESIGN.md §20):
# BenchmarkSinkPush/windowed-open opens a fresh windowed sink every 64
# records, their finish instants spread over seven windows; at a pinned
# b.N of 1,000 sinks its B/op is deterministic. It must stay at or under
# 512 B/op: histogram counts in 64-bucket pages allocated as records
# reach them read 257 B/op, and dense 513-bucket counts allocated with
# each window 1,630 B/op, so the ceiling fails if a window's histograms
# allocate their counts before records reach them.
#
# Gate 9 — machine build (DESIGN.md §7): BenchmarkMachineBuild builds one
# 8-core server the way a shard does on a join (policy, kernel, enclave,
# retirer into the shard's task pool), and its allocs/op is a count that
# repeats exactly. The hybrid row must stay at or under 16 allocs/op and
# the cfs row at or under 14. With cores and runqueues held as values,
# the event loop and the policy's Env embedded, core lists sized once, one
# CFS slice table per tunables and the shard's task pool passed in, they
# read 13 (2,896 B) and 11 (2,176 B); with a struct per core and
# runqueue, core lists grown by append and a pool per machine they read
# 43 (3,112 B) and 45 (2,760 B). So the ceilings fail if per-core or
# per-runqueue allocations come back (4 or 8 more on an 8-core server).
#
#   ./scripts/bench_smoke.sh              # default ceiling + 20% gate
#   ./scripts/bench_smoke.sh 60000 35     # custom ceiling, 35% gate
set -e
cd "$(dirname "$0")/.."
CEILING="${1:-40000}"
MAXPCT="${2:-20}"

out=$(go test -run '^$' -bench 'BenchmarkCFSSimulation$' -benchtime 1x .)
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v ceiling="$CEILING" '
  /^BenchmarkCFSSimulation/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "events/run") v = $i
  }
  END {
    if (v == "") { print "bench_smoke: no events/run metric found"; exit 1 }
    if (v + 0 > ceiling + 0) {
      printf "bench_smoke: events/run %s exceeds ceiling %s — tick pump regression?\n", v, ceiling
      exit 1
    }
    printf "bench_smoke: events/run %s within ceiling %s\n", v, ceiling
  }'

if [ ! -f BENCH_baseline.json ]; then
  echo "bench_smoke: BENCH_baseline.json missing; skipping sharded regression gate" >&2
  exit 0
fi

# Fixed iteration count for DispatchPick: the pick stream is
# deterministic, so pinning b.N makes both sides of the diff time the
# identical instruction stream (default benchtime varies b.N and with
# it the ramp-up vs steady-state mix, which swamps the gate on sub-µs
# rows). Captured separately because the output also feeds gate 3.
dispatch=$(go test -run '^$' -bench 'BenchmarkDispatchPick' -benchtime 2000000x -timeout 20m .)
rbtree=$(go test -run '^$' -bench 'BenchmarkRBTreeInsertDelete$' ./internal/queue)
printf '%s\n' "$rbtree"
admit=$(go test -run '^$' -bench 'BenchmarkKernelAdmitRun$' .)
printf '%s\n' "$admit"
sink=$(go test -run '^$' -bench 'BenchmarkSinkPush/(accumulator|windowed)$' ./internal/metrics)
printf '%s\n' "$sink"
route=$(go test -run '^$' -bench 'BenchmarkRouterRoute' -cpu 1 -benchmem .)
printf '%s\n' "$route"
# A pinned 30 iterations: each one allocates and faults in a fresh 20 MB
# array, so the row's ns/op drifts with the host's page-fault cost; 30
# iterations spread less than 10 or a 1 s benchtime did.
slots=$(go test -run '^$' -bench 'BenchmarkExactRecordSlots$' -cpu 1 -benchtime 30x -benchmem .)
printf '%s\n' "$slots"

# Gate 3 — zero-alloc hot paths. With no Obs wired in, the hot dispatch
# path must not allocate (DESIGN.md §13); nor may a runqueue delete +
# re-insert (DESIGN.md §15); nor may a server's steady-state admit and
# run (DESIGN.md §18); nor may a sink push (DESIGN.md §20). Every gated
# row reports allocs/op (b.ReportAllocs); any nonzero value means an
# allocation leaked onto a per-arrival, per-event, per-preemption or
# per-record path.
printf '%s\n%s\n%s\n%s\n' "$dispatch" "$rbtree" "$admit" "$sink" | awk '
  /^Benchmark(DispatchPick|RBTreeInsertDelete|KernelAdmitRun|SinkPush)/ {
    allocs = ""
    for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
    if (allocs == "") { printf "bench_smoke: %s reports no allocs/op\n", $1; exit 1 }
    if ($1 ~ /^BenchmarkDispatchPick/) pick++
    else if ($1 ~ /^BenchmarkRBTreeInsertDelete/) tree++
    else if ($1 ~ /^BenchmarkSinkPush/) sink[$1]++
    else admit[$1]++
    if (allocs + 0 != 0) {
      printf "bench_smoke: %s allocs/op=%s, want 0 — hot path allocates\n", $1, allocs
      bad = 1
    }
  }
  END {
    if (pick == 0) { print "bench_smoke: no DispatchPick rows for zero-alloc gate"; exit 1 }
    if (tree == 0) { print "bench_smoke: no RBTreeInsertDelete row for zero-alloc gate"; exit 1 }
    split("hybrid fifo cfs", want, " ")
    for (i in want) {
      seen = 0
      for (row in admit) if (row ~ ("^BenchmarkKernelAdmitRun/" want[i] "(-[0-9]+)?$")) seen = 1
      if (!seen) { printf "bench_smoke: no KernelAdmitRun/%s row for zero-alloc gate\n", want[i]; exit 1 }
    }
    split("accumulator windowed", sinks, " ")
    for (i in sinks) {
      seen = 0
      for (row in sink) if (row ~ ("^BenchmarkSinkPush/" sinks[i] "(-[0-9]+)?$")) seen = 1
      if (!seen) { printf "bench_smoke: no SinkPush/%s row for zero-alloc gate\n", sinks[i]; exit 1 }
    }
    if (bad) exit 1
    printf "bench_smoke: %d DispatchPick rows, %d RBTreeInsertDelete row, 3 KernelAdmitRun rows and 2 SinkPush rows allocation-free (zero-alloc gate)\n", pick, tree
  }'

# Gate 7 — bytes per exact record.
printf '%s\n' "$slots" | awk '
  BEGIN { ceiling = 21000000 }
  /^BenchmarkExactRecordSlots/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "B/op") v = $i
  }
  END {
    if (v == "") { print "bench_smoke: no B/op metric on BenchmarkExactRecordSlots"; exit 1 }
    if (v + 0 > ceiling + 0) {
      printf "bench_smoke: BenchmarkExactRecordSlots %s B/op exceeds ceiling %d (84 B per record) — metrics.Record grew?\n", v, ceiling
      exit 1
    }
    printf "bench_smoke: BenchmarkExactRecordSlots %s B/op within ceiling %d\n", v, ceiling
  }'

# Gate 8 — bytes per record when every 64 records open a sink.
opened=$(go test -run '^$' -bench 'BenchmarkSinkPush/windowed-open$' -benchtime 64000x -benchmem ./internal/metrics)
printf '%s\n' "$opened"
printf '%s\n' "$opened" | awk '
  BEGIN { ceiling = 512 }
  /^BenchmarkSinkPush\/windowed-open/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "B/op") v = $i
  }
  END {
    if (v == "") { print "bench_smoke: no B/op metric on BenchmarkSinkPush/windowed-open"; exit 1 }
    if (v + 0 > ceiling + 0) {
      printf "bench_smoke: BenchmarkSinkPush/windowed-open %s B/op exceeds ceiling %d — window histograms allocated before records reach them?\n", v, ceiling
      exit 1
    }
    printf "bench_smoke: BenchmarkSinkPush/windowed-open %s B/op within ceiling %d\n", v, ceiling
  }'

# Gate 9 — allocations per machine build.
build=$(go test -run '^$' -bench 'BenchmarkMachineBuild' -benchtime 1000x -benchmem .)
printf '%s\n' "$build"
printf '%s\n' "$build" | awk '
  BEGIN { ceiling["hybrid"] = 16; ceiling["cfs"] = 14 }
  /^BenchmarkMachineBuild\// {
    split($1, part, "/")
    sched = part[2]
    sub(/-[0-9]+$/, "", sched)
    for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") v[sched] = $i
  }
  END {
    for (sched in ceiling) {
      if (v[sched] == "") { printf "bench_smoke: no allocs/op on BenchmarkMachineBuild/%s\n", sched; exit 1 }
      if (v[sched] + 0 > ceiling[sched]) {
        printf "bench_smoke: BenchmarkMachineBuild/%s %s allocs/op exceeds ceiling %d — per-core allocations back in the machine build?\n", sched, v[sched], ceiling[sched]
        bad = 1
      } else printf "bench_smoke: BenchmarkMachineBuild/%s %s allocs/op within ceiling %d\n", sched, v[sched], ceiling[sched]
    }
    if (bad) exit 1
  }'

sharded=$(go test -run '^$' -bench 'BenchmarkShardedFleetReplay/100servers_x1_2h$' -cpu 1 -benchtime 3x -benchmem -timeout 20m .)
printf '%s\n' "$sharded"

# Gate 4 — sampler events per invocation on the 100-server replay.
printf '%s\n' "$sharded" | awk '
  BEGIN { ceiling = 12 }
  /^BenchmarkShardedFleetReplay\/100servers_x1_2h/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "events/inv") v = $i
  }
  END {
    if (v == "") { print "bench_smoke: no events/inv metric on the 100-server replay"; exit 1 }
    if (v + 0 > ceiling + 0) {
      printf "bench_smoke: events/inv %s exceeds ceiling %s — sampler periods back on the event heap?\n", v, ceiling
      exit 1
    }
    printf "bench_smoke: 100-server replay events/inv %s within ceiling %s\n", v, ceiling
  }'

# Gate 5 — bytes allocated per invocation on the 100-server replay.
printf '%s\n' "$sharded" | awk '
  BEGIN { ceiling = 8 }
  /^BenchmarkShardedFleetReplay\/100servers_x1_2h/ {
    for (i = 1; i < NF; i++) {
      if ($(i+1) == "B/op") bytes = $i
      if ($(i+1) == "invocations") inv = $i
    }
  }
  END {
    if (bytes == "" || inv == "") { print "bench_smoke: no B/op or invocations metric on the 100-server replay"; exit 1 }
    v = bytes / inv
    if (v > ceiling) {
      printf "bench_smoke: %.1f B/inv exceeds ceiling %d — a per-invocation allocation back on fleet replays?\n", v, ceiling
      exit 1
    }
    printf "bench_smoke: 100-server replay %.1f B/inv within ceiling %d\n", v, ceiling
  }'

tmp=$(mktemp)
rss=$(mktemp -d)
trap 'rm -rf "$tmp" "$rss"' EXIT

# Gate 6 — peak RSS at 100,000 servers against 10,000.
for n in 10000 100000; do
  go run ./cmd/clustersim -sharded -servers "$n" -minutes 10 -sched hybrid \
    -dispatch least-loaded -run-report "$rss/$n.json" > /dev/null
done
small=$(grep -o '"peak_rss_mb": *[0-9.]*' "$rss/10000.json" | grep -o '[0-9.]*$')
large=$(grep -o '"peak_rss_mb": *[0-9.]*' "$rss/100000.json" | grep -o '[0-9.]*$')
awk -v small="$small" -v large="$large" 'BEGIN {
  if (small == "" || large == "") { print "bench_smoke: no peak_rss_mb in the fleet-size run reports"; exit 1 }
  ratio = large / small
  if (ratio > 1.2) {
    printf "bench_smoke: peak RSS %.1f MB at 100k servers is %.2f× the %.1f MB at 10k (max 1.2×) — per-server state built up front again?\n", large, ratio, small
    exit 1
  }
  printf "bench_smoke: peak RSS %.1f MB at 100k servers, %.2f× the %.1f MB at 10k (max 1.2×)\n", large, ratio, small
}'
{
  printf '%s\n' "$sharded"
  go test -run '^$' -bench 'BenchmarkSweepRunner$' -cpu 1 -benchtime 3x -timeout 20m .
  go test -run '^$' -bench 'BenchmarkFaultyReplay$' -cpu 1 -benchtime 3x -timeout 20m .
  printf '%s\n' "$dispatch"
  printf '%s\n' "$route"
  printf '%s\n' "$slots"
} | go run ./cmd/benchfmt > "$tmp"

# Diff lines look like:
#   BenchmarkShardedFleetReplay/100servers_x1_2h-8      <- header, no indent
#     ns/op        3849812345 -> 3901234567  (+1.3%)    <- metric, indented
# Headers for benchmarks present on only one side carry no metric lines.
go run ./cmd/benchfmt -diff BENCH_baseline.json "$tmp" | awk -v max="$MAXPCT" '
  /^[^ ]/ { bench = $1 }
  $1 == "ns/op" && bench ~ /^Benchmark(ShardedFleetReplay|SweepRunner|DispatchPick|RouterRoute|ExactRecordSlots|FaultyReplay)/ {
    pct = $NF
    gsub(/[()%+]/, "", pct)
    # Sub-µs DispatchPick and RouterRoute rows see ±30% scheduler-steal
    # noise even at a pinned b.N; a lost index shows up as +100× at 10k
    # servers, and linear warm-pool scans as +150% on the cold-start
    # RouterRoute row, so a doubled threshold loses no detection power.
    # ExactRecordSlots is memory-bound (~24 MB written per op) and as
    # noisy; a sorting merge reads +500%.
    lim = (bench ~ /DispatchPick|RouterRoute|ExactRecordSlots/) ? max * 2 : max
    printf "bench_smoke: %-55s ns/op %+.1f%% (max +%s%%)\n", bench, pct, lim
    n++
    if (pct + 0 > lim + 0) bad = 1
  }
  END {
    if (n == 0) { print "bench_smoke: no sharded ns/op deltas in diff — baseline stale?"; exit 1 }
    if (bad) { print "bench_smoke: sharded benchmark regressed beyond threshold"; exit 1 }
    printf "bench_smoke: %d sharded ns/op deltas within threshold\n", n
  }'
