// Run telemetry: heartbeat progress atomics, the -run-report JSON
// schema, and a peak-RSS probe. The report is what a multi-hour replay
// leaves behind — wall-clock, events/sec, peak memory, per-shard
// utilization, and the full counter dump — so throughput regressions
// and load imbalance are diagnosable from artifacts instead of reruns.

package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// Progress carries live run state for heartbeat displays. Producers
// (router, autoscale controller, sink taps) store/add; the heartbeat
// goroutine loads. All fields are atomics so the disabled path is a nil
// check and the enabled path never blocks the simulation.
type Progress struct {
	// Watermark is the simulated time most recently reached by the
	// routing front, in nanoseconds.
	Watermark atomic.Int64
	// Routed counts arrivals dispatched to servers so far.
	Routed atomic.Int64
	// Done counts invocations retired through sinks so far.
	Done atomic.Int64
}

// Live returns routed-but-not-yet-retired invocations (in-flight tasks
// plus buffered arrivals).
func (p *Progress) Live() int64 {
	if p == nil {
		return 0
	}
	return p.Routed.Load() - p.Done.Load()
}

// ShardUtil is one shard's share of the run in a report's per-shard
// utilization table.
type ShardUtil struct {
	Shard       int     `json:"shard"`
	Servers     int     `json:"servers"`
	Invocations int     `json:"invocations"`
	Events      uint64  `json:"events"`
	EventShare  float64 `json:"event_share"`
}

// RunReport is the -run-report JSON schema shared by clustersim and
// faasbench.
type RunReport struct {
	Tool         string             `json:"tool"`
	Mode         string             `json:"mode"`
	WallSeconds  float64            `json:"wall_seconds"`
	SimSeconds   float64            `json:"sim_seconds,omitempty"`
	Invocations  int                `json:"invocations,omitempty"`
	Events       uint64             `json:"events,omitempty"`
	EventsPerSec float64            `json:"events_per_sec,omitempty"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	TraceEvents  int64              `json:"trace_events,omitempty"`
	PerShard     []ShardUtil        `json:"per_shard,omitempty"`
	Counters     map[string]float64 `json:"counters"`
}

// Finalize derives the rate fields and snapshots environment state:
// events/sec from Events over wall, peak RSS from the OS, counters from
// reg (empty map when counters were disabled, so the key always
// exists).
func (rep *RunReport) Finalize(reg *Registry, wall time.Duration) {
	rep.WallSeconds = wall.Seconds()
	if wall > 0 && rep.Events > 0 {
		rep.EventsPerSec = float64(rep.Events) / wall.Seconds()
	}
	rep.PeakRSSMB = PeakRSSMB()
	rep.Counters = reg.Dump()
	if rep.Counters == nil {
		rep.Counters = map[string]float64{}
	}
	for i := range rep.PerShard {
		if rep.Events > 0 {
			rep.PerShard[i].EventShare = float64(rep.PerShard[i].Events) / float64(rep.Events)
		}
	}
}

// WriteRunReport marshals rep (indented, trailing newline) to path.
func WriteRunReport(path string, rep *RunReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PeakRSSMB returns the process's peak resident set in MiB — VmHWM from
// /proc/self/status on Linux, with the Go runtime's OS-obtained memory
// as a portable fallback.
func PeakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		if i := bytes.Index(data, []byte("VmHWM:")); i >= 0 {
			f := bytes.Fields(data[i+len("VmHWM:"):])
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
