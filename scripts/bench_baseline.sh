#!/bin/sh
# Regenerates BENCH_baseline.json: the repo's recorded performance
# trajectory. Run from the repo root on an otherwise idle machine.
#
#   ./scripts/bench_baseline.sh            # rewrite BENCH_baseline.json
#   ./scripts/bench_baseline.sh /dev/stdout  # print without rewriting
#
# The set below pairs the substrate micro-benchmarks (dispatch mechanism,
# the full per-arrival routing step, CFS runqueue insert/delete, one
# server's admit-then-run event loop,
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

MICRO='BenchmarkKernelDispatch$|BenchmarkKernelAdmitRun$|BenchmarkCFSSimulation$|BenchmarkWorkloadBuild$|BenchmarkWorkloadStream$|BenchmarkFacadeSimulate|BenchmarkColdStartDispatch|BenchmarkRouterRoute'
FIGS='BenchmarkFig06Hybrid$|BenchmarkTable1Summary$|BenchmarkFig13Preemptions$|BenchmarkStreamedFullscale'

# The CI-sized sharded rows run 3 iterations (mean-of-3) because
# scripts/bench_smoke.sh diffs their ns/op against this file with the
# same protocol — single iterations of multi-second benchmarks are too
# noisy on shared hardware to gate on. The 24 h case stays 1 iteration.
{
  go test -run '^$' -bench "$MICRO" -benchmem .
  go test -run '^$' -bench 'BenchmarkRBTreeInsertDelete$' -benchmem ./internal/queue
  # Fixed-b.N protocol shared with scripts/bench_smoke.sh: the pick
  # stream is deterministic, so a pinned iteration count times the
  # identical instruction stream on both sides of the diff.
  go test -run '^$' -bench 'BenchmarkDispatchPick' -benchtime 2000000x -benchmem -timeout 20m .
  go test -run '^$' -bench "$FIGS" -benchtime 1x -benchmem .
  go test -run '^$' -bench 'BenchmarkShardedFleetReplay/100servers_x1_2h$' -benchtime 3x -benchmem -timeout 20m .
  # The idle 10,000-server fleet at one and two procs: its rows are named
  # -1 and -2, since the router/shard overlap shows only with two.
  go test -run '^$' -bench 'BenchmarkShardedFleetReplay/10000servers_x1_1h$' -cpu 1,2 -benchtime 3x -benchmem -timeout 20m .
  go test -run '^$' -bench 'BenchmarkSweepRunner$' -benchtime 3x -benchmem -timeout 20m .
  go test -run '^$' -bench 'BenchmarkFaultyReplay$' -benchtime 3x -benchmem -timeout 20m .
  FAASSCHED_BIGBENCH=1 go test -run '^$' -bench 'BenchmarkShardedFleetReplay/1000servers_x10_24h$' -benchtime 1x -benchmem -timeout 45m .
  FAASSCHED_BIGBENCH=1 go test -run '^$' -bench 'BenchmarkShardedFleetReplay/10000servers_x10_24h$' -benchtime 1x -benchmem -timeout 3h .
} | go run ./cmd/benchfmt > "$OUT"
echo "wrote $OUT" >&2
