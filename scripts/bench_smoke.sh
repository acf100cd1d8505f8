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
# keep picks flat in fleet size) and the fault-injected replay
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
# noisy box pass a looser second argument.
#
# Gate 3 — zero-alloc hot paths: asserts every BenchmarkDispatchPick row
# reports allocs/op == 0, pinning the observability seams' inertness
# guarantee at the allocation level (DESIGN.md §13), that
# BenchmarkRBTreeInsertDelete does too — CFS runqueues link caller-owned
# nodes, so a delete + re-insert must never allocate (DESIGN.md §15) —
# and that BenchmarkKernelAdmitRun does: in steady state a server's
# admission into the arrival FIFO and its event loop reuse pooled tasks,
# events and ring slots (DESIGN.md §18).
#
# Gate 4 — sampler events (DESIGN.md §16): the 100-server sharded
# replay's kernel events per invocation must stay at or under 12. The
# utilization sampler is virtual, so its 100 ms grid points schedule no
# kernel event; the row reads 9.34 events/inv with the virtual sampler
# and 18.16 with the heap-event sampler it replaced, so the ceiling fails
# if sampler periods come back as kernel events.
#
# Gate 5 — replay memory (DESIGN.md §17): the same 100-server row, run
# with -benchmem, must allocate at most 64 bytes per invocation
# (B/op ÷ invocations). The hybrid's monitor records its series and keeps
# its duration window only where something reads them; the row reads
# 12.6 B/inv that way and 260 B/inv with the series on every server, so
# the ceiling fails if per-period monitor storage comes back on a fleet
# replay.
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

# Gate 3 — zero-alloc hot paths. With no Obs wired in, the hot dispatch
# path must not allocate (DESIGN.md §13); nor may a runqueue delete +
# re-insert (DESIGN.md §15); nor may a server's steady-state admit and
# run (DESIGN.md §18). Every gated row reports allocs/op
# (b.ReportAllocs); any nonzero value means an allocation leaked onto a
# per-arrival, per-event or per-preemption path.
printf '%s\n%s\n%s\n' "$dispatch" "$rbtree" "$admit" | awk '
  /^Benchmark(DispatchPick|RBTreeInsertDelete|KernelAdmitRun)/ {
    allocs = ""
    for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
    if (allocs == "") { printf "bench_smoke: %s reports no allocs/op\n", $1; exit 1 }
    if ($1 ~ /^BenchmarkDispatchPick/) pick++
    else if ($1 ~ /^BenchmarkRBTreeInsertDelete/) tree++
    else admit++
    if (allocs + 0 != 0) {
      printf "bench_smoke: %s allocs/op=%s, want 0 — hot path allocates\n", $1, allocs
      bad = 1
    }
  }
  END {
    if (pick == 0) { print "bench_smoke: no DispatchPick rows for zero-alloc gate"; exit 1 }
    if (tree == 0) { print "bench_smoke: no RBTreeInsertDelete row for zero-alloc gate"; exit 1 }
    if (admit == 0) { print "bench_smoke: no KernelAdmitRun row for zero-alloc gate"; exit 1 }
    if (bad) exit 1
    printf "bench_smoke: %d DispatchPick rows, %d RBTreeInsertDelete row and %d KernelAdmitRun row allocation-free (zero-alloc gate)\n", pick, tree, admit
  }'

sharded=$(go test -run '^$' -bench 'BenchmarkShardedFleetReplay/100servers_x1_2h$' -benchtime 3x -benchmem -timeout 20m .)
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
  BEGIN { ceiling = 64 }
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
      printf "bench_smoke: %.1f B/inv exceeds ceiling %d — monitor series back on fleet replays?\n", v, ceiling
      exit 1
    }
    printf "bench_smoke: 100-server replay %.1f B/inv within ceiling %d\n", v, ceiling
  }'

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
{
  printf '%s\n' "$sharded"
  go test -run '^$' -bench 'BenchmarkSweepRunner$' -benchtime 3x -timeout 20m .
  go test -run '^$' -bench 'BenchmarkFaultyReplay$' -benchtime 3x -timeout 20m .
  printf '%s\n' "$dispatch"
} | go run ./cmd/benchfmt > "$tmp"

# Diff lines look like:
#   BenchmarkShardedFleetReplay/100servers_x1_2h-8      <- header, no indent
#     ns/op        3849812345 -> 3901234567  (+1.3%)    <- metric, indented
# Headers for benchmarks present on only one side carry no metric lines.
go run ./cmd/benchfmt -diff BENCH_baseline.json "$tmp" | awk -v max="$MAXPCT" '
  /^[^ ]/ { bench = $1 }
  $1 == "ns/op" && bench ~ /^Benchmark(ShardedFleetReplay|SweepRunner|DispatchPick|FaultyReplay)/ {
    pct = $NF
    gsub(/[()%+]/, "", pct)
    # Sub-µs DispatchPick rows see ±30% scheduler-steal noise even at a
    # pinned b.N; a lost index shows up as +100× at 10k servers, so a
    # doubled threshold loses no detection power.
    lim = (bench ~ /DispatchPick/) ? max * 2 : max
    printf "bench_smoke: %-55s ns/op %+.1f%% (max +%s%%)\n", bench, pct, lim
    n++
    if (pct + 0 > lim + 0) bad = 1
  }
  END {
    if (n == 0) { print "bench_smoke: no sharded ns/op deltas in diff — baseline stale?"; exit 1 }
    if (bad) { print "bench_smoke: sharded benchmark regressed beyond threshold"; exit 1 }
    printf "bench_smoke: %d sharded ns/op deltas within threshold\n", n
  }'
