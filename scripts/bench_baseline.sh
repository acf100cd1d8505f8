#!/bin/sh
# Regenerates BENCH_baseline.json: the repo's recorded performance
# trajectory. Run from the repo root on an otherwise idle machine.
#
#   ./scripts/bench_baseline.sh            # rewrite BENCH_baseline.json
#   ./scripts/bench_baseline.sh /dev/stdout  # print without rewriting
#
# The set below pairs the substrate micro-benchmarks (dispatch mechanism,
# the full per-arrival routing step, CFS runqueue insert/delete, a
# record's push into the streaming and exact sinks, the cross-shard merge of
# windowed sinks, one server's machine build and admit-then-run event loop,
# the router-to-shard handoff, the exact-record fleets' slot writes,
# end-to-end CFS event throughput, workload build and stream, facade) with a few
# figure benchmarks as end-to-end sentinels, plus the sharded-fleet group:
# the provider-scale replay (including the 24 h ×10 cases at 1,000 and
# 10,000 servers, gated behind FAASSCHED_BIGBENCH and minutes-to-hours
# of wall time) and the parallel sweep runner. Figure and sharded benchmarks run 1 iteration
# (they simulate whole experiments); micro-benchmarks use the default 1s
# benchtime.
set -e
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_baseline.json}"

MICRO='BenchmarkKernelDispatch$|BenchmarkCFSSimulation$|BenchmarkWorkloadBuild$|BenchmarkWorkloadStream$|BenchmarkFacadeSimulate|BenchmarkColdStartDispatch'
FIGS='BenchmarkFig06Hybrid$|BenchmarkTable1Summary$|BenchmarkFig13Preemptions$|BenchmarkStreamedFullscale'

# The CI-sized sharded rows run 3 iterations (mean-of-3) because
# scripts/bench_smoke.sh diffs their ns/op against this file with the
# same protocol — single iterations of multi-second benchmarks are too
# noisy on shared hardware to gate on. The 24 h case stays 1 iteration.
# The rows bench_smoke.sh reruns, DispatchPick apart, are recorded at
# -cpu 1, the proc count it reruns them at.
{
  go test -run '^$' -bench "$MICRO" -benchmem .
  go test -run '^$' -bench 'BenchmarkRouterRoute' -cpu 1 -benchmem .
  # The exact-record slot writes at a pinned 30 iterations, the protocol
  # scripts/bench_smoke.sh reruns them at: each iteration faults in a
  # fresh 20 MB array, and a fixed count spreads less than a 1 s benchtime.
  go test -run '^$' -bench 'BenchmarkExactRecordSlots$' -cpu 1 -benchtime 30x -benchmem .
  # One 8-core server's build, as a shard builds it on a join: allocs/op
  # is an exact count (scripts/bench_smoke.sh Gate 9).
  go test -run '^$' -bench 'BenchmarkMachineBuild' -benchtime 1000x -benchmem .
  # The router-to-shard handoff layer: ns, B and allocs per arrival.
  go test -run '^$' -bench 'BenchmarkShardHandoff$' -cpu 1 -benchtime 30x -benchmem .
  go test -run '^$' -bench 'BenchmarkRBTreeInsertDelete$' -benchmem ./internal/queue
  # Steady-state pushes into each sink, and windowed-open: a fresh
  # windowed sink every 64 records, whose B/op is what opening windows
  # allocates.
  go test -run '^$' -bench 'BenchmarkSinkPush$' -benchmem ./internal/metrics
  # The windowed replay's cross-shard merge of k shard accumulators, at a
  # pinned b.N: each op rebuilds the accumulators with the timer stopped.
  go test -run '^$' -bench 'BenchmarkMergeTree' -benchtime 200x -benchmem ./internal/metrics
  # One server's admit-then-run loop at a pinned b.N: events/op is a
  # count that must repeat exactly, and a fixed chunk count times the
  # same instruction stream on both sides of a diff.
  go test -run '^$' -bench 'BenchmarkKernelAdmitRun$' -benchtime 300x -benchmem .
  # Fixed-b.N protocol shared with scripts/bench_smoke.sh: the pick
  # stream is deterministic, so a pinned iteration count times the
  # identical instruction stream on both sides of the diff.
  go test -run '^$' -bench 'BenchmarkDispatchPick' -benchtime 2000000x -benchmem -timeout 20m .
  go test -run '^$' -bench "$FIGS" -benchtime 1x -benchmem .
  go test -run '^$' -bench 'BenchmarkShardedFleetReplay/100servers_x1_2h$' -cpu 1 -benchtime 3x -benchmem -timeout 20m .
  # The idle 10,000-server fleet at one and two procs: its rows are named
  # -1 and -2, since the router/shard overlap shows only with two.
  go test -run '^$' -bench 'BenchmarkShardedFleetReplay/10000servers_x1_1h$' -cpu 1,2 -benchtime 3x -benchmem -timeout 20m .
  # The same stream on 100,000 servers: servers that receive no work
  # must cost next to nothing, so this row tracks the 10k one.
  go test -run '^$' -bench 'BenchmarkShardedFleetReplay/100000servers_x1_1h$' -benchtime 3x -benchmem -timeout 20m .
  go test -run '^$' -bench 'BenchmarkSweepRunner$' -cpu 1 -benchtime 3x -benchmem -timeout 20m .
  go test -run '^$' -bench 'BenchmarkFaultyReplay$' -cpu 1 -benchtime 3x -benchmem -timeout 20m .
  FAASSCHED_BIGBENCH=1 go test -run '^$' -bench 'BenchmarkShardedFleetReplay/1000servers_x10_24h$' -benchtime 1x -benchmem -timeout 45m .
  FAASSCHED_BIGBENCH=1 go test -run '^$' -bench 'BenchmarkShardedFleetReplay/10000servers_x10_24h$' -benchtime 1x -benchmem -timeout 3h .
} | go run ./cmd/benchfmt > "$OUT"
echo "wrote $OUT" >&2
