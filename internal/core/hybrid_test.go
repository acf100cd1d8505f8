package core_test

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/policytest"
	"github.com/faassched/faassched/internal/simkern"
)

func hybridCfg(fifoCores int) core.Config {
	return core.Config{
		FIFOCores: fifoCores,
		TimeLimit: core.TimeLimitConfig{Static: 100 * time.Millisecond},
	}
}

func TestConfigValidate(t *testing.T) {
	good := hybridCfg(2)
	if err := good.Validate(4); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		cfg   core.Config
		cores int
	}{
		"no fifo cores":  {core.Config{FIFOCores: 0}, 4},
		"no cfs cores":   {core.Config{FIFOCores: 4}, 4},
		"bad percentile": {core.Config{FIFOCores: 1, TimeLimit: core.TimeLimitConfig{Percentile: 1.5}}, 4},
		"negative limit": {core.Config{FIFOCores: 1, TimeLimit: core.TimeLimitConfig{Static: -1}}, 4},
	} {
		if err := tc.cfg.Validate(tc.cores); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}

func TestAllTasksCompleteUnderHybrid(t *testing.T) {
	h := core.New(hybridCfg(2))
	if h.Name() != "hybrid" {
		t.Errorf("Name = %q", h.Name())
	}
	w := policytest.Mixed(100, time.Millisecond, 10*time.Millisecond, 400*time.Millisecond)
	policytest.Run(t, 4, h, w)
}

func TestShortTasksRunUninterrupted(t *testing.T) {
	// Tasks under the limit must finish with zero preemptions — the core
	// cost-saving mechanism (§IV-A: "If the task is short ... our scheduler
	// will run it to completion").
	h := core.New(hybridCfg(2))
	w := policytest.Uniform(40, 2*time.Millisecond, 20*time.Millisecond)
	k := policytest.Run(t, 4, h, w)
	for _, task := range k.Tasks() {
		if task.Preemptions() != 0 {
			t.Errorf("short task %d preempted %d times", task.ID, task.Preemptions())
		}
		exec := task.Finish() - task.FirstRun()
		if exec > task.Work+time.Millisecond {
			t.Errorf("short task %d exec %v, want ~%v", task.ID, exec, task.Work)
		}
	}
	if h.Spills() != 0 {
		t.Errorf("Spills = %d, want 0 for an all-short workload", h.Spills())
	}
}

func TestLongTasksSpillToCFS(t *testing.T) {
	// Tasks over the limit must be preempted exactly once from FIFO and
	// complete on the CFS group.
	h := core.New(hybridCfg(2))
	w := policytest.Workload{Tasks: []*simkern.Task{
		{ID: 1, Work: 500 * time.Millisecond, MemMB: 128},
		{ID: 2, Work: 20 * time.Millisecond, Arrival: time.Millisecond, MemMB: 128},
		{ID: 3, Work: 600 * time.Millisecond, Arrival: 2 * time.Millisecond, MemMB: 128},
	}}
	k := policytest.Run(t, 4, h, w)
	if h.Spills() != 2 {
		t.Fatalf("Spills = %d, want 2", h.Spills())
	}
	long1, short, long2 := k.Tasks()[0], k.Tasks()[1], k.Tasks()[2]
	if long1.Preemptions() < 1 || long2.Preemptions() < 1 {
		t.Error("long tasks were not preempted by the time limit")
	}
	if short.Preemptions() != 0 {
		t.Errorf("short task preempted %d times", short.Preemptions())
	}
	// The long tasks must have been preempted near the 100ms limit, not
	// run to completion on FIFO cores.
	for _, task := range []*simkern.Task{long1, long2} {
		if task.Finish()-task.FirstRun() < task.Work {
			t.Errorf("task %d exec shorter than demand?", task.ID)
		}
	}
}

func TestSpillsRoundRobinAcrossCFSCores(t *testing.T) {
	// Six long tasks spilled from 2 FIFO cores across 3 CFS cores must
	// land evenly (2 per core) per §IV-A's round-robin distribution.
	h := core.New(core.Config{
		FIFOCores: 2,
		TimeLimit: core.TimeLimitConfig{Static: 50 * time.Millisecond},
	})
	w := policytest.Workload{}
	for i := 0; i < 6; i++ {
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID: simkern.TaskID(i + 1), Work: 300 * time.Millisecond, MemMB: 128,
		})
	}
	k := policytest.Run(t, 5, h, w)
	if h.Spills() != 6 {
		t.Fatalf("Spills = %d, want 6", h.Spills())
	}
	// All CFS cores (2,3,4) must have run work.
	for c := simkern.CoreID(2); c <= 4; c++ {
		if k.CoreBusy(c) == 0 {
			t.Errorf("CFS core %d never used despite round-robin spill", c)
		}
	}
}

func TestHybridBeatsCFSOnExecutionAndFIFOOnResponse(t *testing.T) {
	// Observation 4: the hybrid improves on FIFO's response while keeping
	// near-FIFO execution (far better than CFS). The workload mirrors the
	// paper's shape: ~90% short functions, a ~10% long tail (the limit is
	// a high percentile of the duration distribution).
	w := func() policytest.Workload {
		out := policytest.Workload{}
		for i := 0; i < 160; i++ {
			work := 15 * time.Millisecond
			if i%10 == 9 {
				work = 500 * time.Millisecond
			}
			out.Tasks = append(out.Tasks, &simkern.Task{
				ID:      simkern.TaskID(i + 1),
				Arrival: time.Duration(i) * time.Millisecond,
				Work:    work,
				MemMB:   128,
			})
		}
		return out
	}
	kH := policytest.Run(t, 4, core.New(hybridCfg(2)), w())
	kF := policytest.Run(t, 4, fifo.New(fifo.Config{}), w())
	kC := policytest.Run(t, 4, cfs.New(cfs.Params{}), w())

	if eH, eC := policytest.MeanExecution(kH), policytest.MeanExecution(kC); eH >= eC {
		t.Errorf("hybrid exec %v should beat CFS %v", eH, eC)
	}
	if rH, rF := policytest.MeanResponse(kH), policytest.MeanResponse(kF); rH > rF {
		t.Errorf("hybrid response %v should not be worse than FIFO %v", rH, rF)
	}
}

func TestAdaptiveLimitTracksWindow(t *testing.T) {
	// With a p50 adaptive limit and a stream of 40ms tasks, the limit must
	// drop from the static bootstrap (1s) to ~40ms once the window fills.
	h := core.New(core.Config{
		FIFOCores: 2,
		TimeLimit: core.TimeLimitConfig{Static: time.Second, Percentile: 0.5, WindowSize: 20},
	})
	w := policytest.Uniform(60, 2*time.Millisecond, 40*time.Millisecond)
	policytest.Run(t, 4, h, w)
	got := h.CurrentLimit()
	if got < 35*time.Millisecond || got > 50*time.Millisecond {
		t.Errorf("adaptive limit = %v, want ~40ms", got)
	}
}

func TestAdaptiveLimitBootstrapsFromStatic(t *testing.T) {
	// Before enough completions, the limit must stay at the static value.
	h := core.New(core.Config{
		FIFOCores: 1,
		TimeLimit: core.TimeLimitConfig{Static: 777 * time.Millisecond, Percentile: 0.95},
	})
	w := policytest.Uniform(3, time.Millisecond, 5*time.Millisecond) // < minAdaptiveSamples
	policytest.Run(t, 2, h, w)
	if h.CurrentLimit() != 777*time.Millisecond {
		t.Errorf("limit = %v, want static bootstrap", h.CurrentLimit())
	}
}

// TestMonitorRecordsSeries: on a kernel that records utilization (the
// utilization-over-time figures' switch) the monitor appends all four
// series every period.
func TestMonitorRecordsSeries(t *testing.T) {
	h := core.New(core.Config{
		FIFOCores:    2,
		TimeLimit:    core.TimeLimitConfig{Static: 50 * time.Millisecond},
		MonitorEvery: 20 * time.Millisecond,
	})
	w := policytest.Mixed(80, time.Millisecond, 10*time.Millisecond, 200*time.Millisecond)
	kcfg := policytest.KernelConfig(4)
	kcfg.RecordUtil = true
	k := policytest.RunKernel(t, kcfg, h, w, ghost.Config{NoLatency: true})
	policytest.AssertAllFinished(t, k)
	if h.FIFOUtilSeries().Len() == 0 || h.CFSUtilSeries().Len() == 0 {
		t.Fatal("monitor recorded no utilization samples")
	}
	if h.LimitSeries().Len() == 0 || h.FIFOCountSeries().Len() == 0 {
		t.Fatal("monitor recorded no limit/core-count samples")
	}
	// Static limit: every recorded limit sample is 50ms.
	for _, s := range h.LimitSeries().Samples() {
		if s.V != 50 {
			t.Errorf("limit sample %v ms, want 50", s.V)
		}
	}
	// Fixed groups: FIFO core count constant at 2.
	for _, s := range h.FIFOCountSeries().Samples() {
		if s.V != 2 {
			t.Errorf("fifo count %v, want 2", s.V)
		}
	}
}

func TestRightsizingMovesCoresTowardLoad(t *testing.T) {
	// Long-task-heavy workload: everything spills to CFS, so the CFS group
	// saturates while FIFO idles. Rightsizing must move cores to CFS.
	h := core.New(core.Config{
		FIFOCores:    4,
		TimeLimit:    core.TimeLimitConfig{Static: 20 * time.Millisecond},
		MonitorEvery: 50 * time.Millisecond,
		Rightsize: core.RightsizeConfig{
			Enabled:   true,
			Threshold: 0.2,
			Cooldown:  100 * time.Millisecond,
		},
	})
	w := policytest.Workload{}
	for i := 0; i < 40; i++ {
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID:      simkern.TaskID(i + 1),
			Arrival: time.Duration(i) * 5 * time.Millisecond,
			Work:    400 * time.Millisecond,
			MemMB:   128,
		})
	}
	k := policytest.Run(t, 6, h, w)
	if got := len(h.FIFOCores()); got >= 4 {
		t.Errorf("FIFO group still has %d cores; rightsizing never moved any to CFS", got)
	}
	if got := len(h.FIFOCores()) + len(h.CFSCores()); got != 6 {
		t.Errorf("groups cover %d cores, want 6 (no core lost)", got)
	}
	policytest.AssertAllFinished(t, k)
}

func TestRightsizingRespectsMinCores(t *testing.T) {
	h := core.New(core.Config{
		FIFOCores:    2,
		TimeLimit:    core.TimeLimitConfig{Static: 10 * time.Millisecond},
		MonitorEvery: 20 * time.Millisecond,
		Rightsize: core.RightsizeConfig{
			Enabled:   true,
			Threshold: 0.05,
			Cooldown:  30 * time.Millisecond,
			MinCores:  2,
		},
	})
	w := policytest.Workload{}
	for i := 0; i < 30; i++ {
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID: simkern.TaskID(i + 1), Work: 300 * time.Millisecond, MemMB: 128,
		})
	}
	policytest.Run(t, 4, h, w)
	if len(h.FIFOCores()) < 2 || len(h.CFSCores()) < 2 {
		t.Errorf("groups shrank below MinCores: fifo=%d cfs=%d",
			len(h.FIFOCores()), len(h.CFSCores()))
	}
}

func TestCoreSplitAffectsThroughput(t *testing.T) {
	// Fig 11's mechanism in miniature: with almost all cores on FIFO, the
	// spilled long tail shares too few CFS cores and the long tasks'
	// execution stretches vs. a balanced split.
	mk := func(fifoCores int) time.Duration {
		h := core.New(core.Config{
			FIFOCores: fifoCores,
			TimeLimit: core.TimeLimitConfig{Static: 20 * time.Millisecond},
		})
		w := policytest.Mixed(120, time.Millisecond, 10*time.Millisecond, 300*time.Millisecond)
		k := policytest.Run(t, 6, h, w)
		var worst time.Duration
		for _, task := range k.Tasks() {
			if e := task.Finish() - task.FirstRun(); e > worst {
				worst = e
			}
		}
		return worst
	}
	balanced := mk(3)
	skewed := mk(5)
	if balanced >= skewed {
		t.Errorf("balanced split worst exec %v should beat skewed %v", balanced, skewed)
	}
}
