package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// mode is one kind of pass over a workload.
type mode string

const (
	modeEngine      mode = "engine"       // the public entry point, untraced
	modeEngineTimed mode = "engine-timed" // the same behind timedSource
	modeReplay      mode = "replay"       // the layer-by-layer replay, clock off
	modeReplayTimed mode = "replay-timed" // the layer-by-layer replay, clock on
)

// tracedModes lists the passes a traced measurement makes per iteration.
func (w spec) tracedModes() []mode {
	switch w.exec {
	case execSharded:
		return []mode{modeEngine, modeEngineTimed, modeReplay, modeReplayTimed}
	case execFlat:
		return []mode{modeEngine, modeReplay, modeReplayTimed}
	default:
		return []mode{modeEngine, modeEngineTimed}
	}
}

// report is what one pass measured.
type report struct {
	Mode         mode    `json:"mode"`
	Warmup       bool    `json:"warmup,omitempty"` // checked, never measured
	SetupS       float64 `json:"setup_s"`
	MaterializeS float64 `json:"materialize_s"`
	WallS        float64 `json:"wall_s"`
	CPUS         float64 `json:"cpu_s"`
	GCCPUFrac    float64 `json:"gc_cpu_frac"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Allocs       uint64  `json:"allocs"`
	// Layers holds the seconds a timed pass attributed to each layer.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Replay  *replayCounts      `json:"replay,omitempty"`
	Outcome outcome            `json:"outcome"`
	// PeakRSSMB is the process's peak resident set over the pass, set by
	// isolatedPass.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// RefS is the mean wall time of the host reference runs just before
	// and after the pass (hostref.go); 0 when the pass was not bracketed.
	RefS float64 `json:"ref_s,omitempty"`
}

// hostFactor is how much slower than the reference host the host ran
// around this pass: wall times divided by it are stated at reference
// speed. An unbracketed pass is taken as it is.
func (r *report) hostFactor() float64 {
	if r.RefS == 0 {
		return 1
	}
	return r.RefS / refNominalS
}

// isolatedPass makes one pass as if in a process of its own: the heap
// left by earlier passes is collected and returned to the OS, and the
// kernel's peak-RSS mark is reset, so the pass pays for its own heap
// growth and reports its own peak RSS, as a fresh process would.
func isolatedPass(m mode, w spec, seed int64) (*report, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	rep, err := runPass(m, w, seed)
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// resetPeakRSS resets the process's peak-RSS mark (Linux 4.0+). Where the
// kernel refuses, the mark keeps the process's peak so far, which
// overstates a pass's peak by at most its predecessors'.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString("5") // a refusal keeps the process-wide mark, as above
}

// runPass sets the workload up and makes one pass of mode m over it, in
// the calling process.
func runPass(m mode, w spec, seed int64) (*report, error) {
	start := time.Now()
	in, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	rep := &report{Mode: m, SetupS: time.Since(start).Seconds(), MaterializeS: in.materialize.Seconds()}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU(), cpuSeconds()
	c := newClock(m == modeEngineTimed || m == modeReplayTimed)
	var reduce func() (outcome, error)
	switch m {
	case modeEngine:
		reduce, err = w.engine(in, seed)
	case modeEngineTimed:
		reduce, err = w.timedEngine(in, seed, c)
	case modeReplay, modeReplayTimed:
		var cnt replayCounts
		reduce, cnt, err = w.replay(in, seed, c)
		rep.Replay = &cnt
	default:
		err = fmt.Errorf("unknown pass mode %q", m)
	}
	wall := c.now()
	cpu1, gc1 := cpuSeconds(), gcCPU()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, fmt.Errorf("%s %s pass: %w", w.name, m, err)
	}
	rep.WallS = wall.Seconds()
	rep.CPUS = cpu1 - cpu0
	if busy := gc1.busy - gc0.busy; busy > 0 {
		rep.GCCPUFrac = (gc1.gc - gc0.gc) / busy
	}
	rep.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rep.Allocs = ms1.Mallocs - ms0.Mallocs
	if c.on {
		rep.Layers = map[string]float64{}
		for l, d := range c.spent {
			rep.Layers[layerNames[l]] = d.Seconds()
		}
	}
	if rep.Outcome, err = reduce(); err != nil {
		return nil, fmt.Errorf("%s %s pass: %w", w.name, m, err)
	}
	if err := conserved(rep.Outcome, in.invocations); err != nil {
		return nil, fmt.Errorf("%s %s pass: %w", w.name, m, err)
	}
	return rep, nil
}

// conserved checks that every invocation the trace holds was routed and
// ended as exactly one completed or failed record.
func conserved(o outcome, want int) error {
	if o.Routed != want {
		return fmt.Errorf("routed %d invocations, the trace holds %d", o.Routed, want)
	}
	if o.Completed+o.Failed != o.Routed {
		return fmt.Errorf("completed %d + failed %d != routed %d", o.Completed, o.Failed, o.Routed)
	}
	return nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcSample is the runtime's own CPU accounting: GC time and busy
// (non-idle) time, in CPU-seconds.
type gcSample struct{ gc, busy float64 }

func gcCPU() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, v := range s {
		if v.Value.Kind() != metrics.KindFloat64 {
			return gcSample{}
		}
	}
	return gcSample{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}
