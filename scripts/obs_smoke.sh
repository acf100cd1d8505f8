#!/bin/sh
# CI guard for the observability rig (DESIGN.md §13): runs the small
# sharded-replay case with tracing and the run report enabled, then
# validates that both artifacts are well-formed —
#
#   * the trace file parses as Chrome trace-event JSON with a non-empty
#     traceEvents array (loadable in Perfetto), and
#   * the run report parses with the required keys (tool, mode,
#     wall_seconds, events, counters, per_shard) and a per-shard entry
#     for each of the 3 shards.
#
# The golden-digest tests prove observation is inert; this proves the
# enabled path actually produces consumable output end to end.
set -e
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
trace="$tmpdir/trace.json"
report="$tmpdir/report.json"

go run ./cmd/clustersim -sharded -servers 6 -shards 3 \
  -minutes 2 -n 3000 -shard-window 30s \
  -trace-out "$trace" -run-report "$report"

python3 - "$trace" "$report" <<'EOF'
import json, sys

trace_path, report_path = sys.argv[1], sys.argv[2]

with open(trace_path) as f:
    trace = json.load(f)
events = trace.get("traceEvents")
assert isinstance(events, list) and events, "traceEvents missing or empty"
phases = {e.get("ph") for e in events}
assert "X" in phases, f"no complete (ph=X) spans in trace: {phases}"
print(f"obs_smoke: trace OK ({len(events)} events)")

with open(report_path) as f:
    report = json.load(f)
for key in ("tool", "mode", "wall_seconds", "events", "counters", "per_shard"):
    assert key in report, f"run report missing {key!r}: {sorted(report)}"
assert report["tool"] == "clustersim", report["tool"]
assert report["mode"] == "sharded", report["mode"]
assert report["events"] > 0, "no kernel events reported"
assert len(report["per_shard"]) == 3, report["per_shard"]
assert report["counters"].get("kern.events_scheduled", 0) > 0, report["counters"]
print(f"obs_smoke: run report OK (events={report['events']}, "
      f"shards={len(report['per_shard'])}, counters={len(report['counters'])})")
EOF
