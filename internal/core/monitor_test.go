package core_test

import (
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/policytest"
	"github.com/faassched/faassched/internal/simkern"
)

// TestMonitorOffWithoutReader: on a kernel that records no utilization,
// a hybrid without rightsizing — static or adaptive limit — arms no
// monitor timer and leaves all four series empty. The monitor period is
// an hour against a workload that drains in seconds, so a single monitor
// timer would pull the kernel clock to the hour; the recording run shows
// that it does.
func TestMonitorOffWithoutReader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit core.TimeLimitConfig
	}{
		{"static", core.TimeLimitConfig{Static: 50 * time.Millisecond}},
		{"adaptive", core.TimeLimitConfig{Static: 50 * time.Millisecond, Percentile: 0.9}},
	} {
		for _, record := range []bool{false, true} {
			h := core.New(core.Config{FIFOCores: 2, TimeLimit: tc.limit, MonitorEvery: time.Hour})
			kcfg := policytest.KernelConfig(4)
			kcfg.RecordUtil = record
			w := policytest.Mixed(80, time.Millisecond, 10*time.Millisecond, 200*time.Millisecond)
			k := policytest.RunKernel(t, kcfg, h, w, ghost.Config{NoLatency: true})
			policytest.AssertAllFinished(t, k)

			series := h.FIFOUtilSeries().Len() + h.CFSUtilSeries().Len() +
				h.LimitSeries().Len() + h.FIFOCountSeries().Len()
			fired := k.Now() >= time.Hour
			if record {
				if !fired || series != 4 {
					t.Errorf("%s, recording: clock %v, %d samples; want the hour's monitor period and one sample per series",
						tc.name, k.Now(), series)
				}
				continue
			}
			if fired {
				t.Errorf("%s: clock reached %v; a monitor timer fired on a non-recording kernel", tc.name, k.Now())
			}
			if series != 0 {
				t.Errorf("%s: %d series samples on a non-recording kernel, want 0", tc.name, series)
			}
		}
	}
}

// TestRecordUtilIsInert: recording utilization only observes. Each hybrid
// variant — static, adaptive, rightsized — produces identical records and
// delegation counters with RecordUtil on and off, although only the
// recording run arms the static and adaptive monitors.
func TestRecordUtilIsInert(t *testing.T) {
	variants := map[string]core.Config{
		"hybrid": {FIFOCores: 2, TimeLimit: core.TimeLimitConfig{Static: 40 * time.Millisecond}},
		"hybrid-adaptive": {FIFOCores: 2,
			TimeLimit: core.TimeLimitConfig{Static: 40 * time.Millisecond, Percentile: 0.95}},
		"hybrid-rightsized": {FIFOCores: 2, TimeLimit: core.TimeLimitConfig{Static: 40 * time.Millisecond},
			Rightsize: core.RightsizeConfig{Enabled: true, Threshold: 0.1, Cooldown: 100 * time.Millisecond}},
	}
	for name, cfg := range variants {
		cfg.MonitorEvery = 50 * time.Millisecond
		type run struct {
			h     *core.Hybrid
			recs  []metrics.Record
			stats ghost.Stats
		}
		var runs [2]run
		for i, record := range []bool{false, true} {
			h := core.New(cfg)
			kcfg := simkern.DefaultConfig(4)
			kcfg.RecordUtil = record
			k, err := simkern.New(kcfg)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := ghost.NewEnclave(k, h, ghost.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range policytest.Mixed(300, 4*time.Millisecond, 8*time.Millisecond, 250*time.Millisecond).Tasks {
				if err := k.AddTask(task); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := k.Run(0); err != nil {
				t.Fatal(err)
			}
			policytest.AssertAllFinished(t, k)
			runs[i] = run{h, metrics.Collect(k).Records, enc.Stats()}
		}
		off, on := runs[0], runs[1]
		if off.stats != on.stats {
			t.Errorf("%s: ghost stats %+v without RecordUtil, %+v with", name, off.stats, on.stats)
		}
		if len(off.recs) != len(on.recs) {
			t.Fatalf("%s: %d records without RecordUtil, %d with", name, len(off.recs), len(on.recs))
		}
		for i := range off.recs {
			if off.recs[i] != on.recs[i] {
				t.Fatalf("%s: record %d differs:\n off %+v\n on  %+v", name, i, off.recs[i], on.recs[i])
			}
		}
		if on.h.FIFOUtilSeries().Len() == 0 {
			t.Errorf("%s: recording run has no monitor samples", name)
		}
		// The comparison is only meaningful if each mechanism acted.
		switch name {
		case "hybrid-adaptive":
			if off.h.CurrentLimit() == cfg.TimeLimit.Static {
				t.Errorf("%s: limit never adapted from %v", name, cfg.TimeLimit.Static)
			}
		case "hybrid-rightsized":
			if off.stats.Migrations == 0 {
				t.Errorf("%s: rightsizer never migrated a core", name)
			}
		}
		if off.h.Spills() == 0 {
			t.Errorf("%s: no FIFO→CFS spills", name)
		}
	}
}

var newSink *core.Hybrid

// TestNewStaticAllocations: a static-limit hybrid is the policy struct
// alone — no group table, no duration window, no series storage.
func TestNewStaticAllocations(t *testing.T) {
	cfg := core.Config{FIFOCores: 4, TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit}}
	if allocs := testing.AllocsPerRun(100, func() { newSink = core.New(cfg) }); allocs > 1 {
		t.Errorf("core.New with a static limit makes %.0f allocations, want at most 1", allocs)
	}
}

// TestRightsizingNeedsASampler: rightsizing reads the kernel's sampler,
// so a rightsizing hybrid registers as a utilization reader and its
// kernel samples, while a static hybrid leaves the sampler off. On a
// kernel with SampleEvery 0 the rightsizing hybrid is refused, naming
// the policy, instead of reading a silent 0.
func TestRightsizingNeedsASampler(t *testing.T) {
	for _, rightsize := range []bool{false, true} {
		h := core.New(core.Config{FIFOCores: 2, Rightsize: core.RightsizeConfig{Enabled: rightsize}})
		k, err := simkern.New(policytest.KernelConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ghost.NewEnclave(k, h, ghost.Config{}); err != nil {
			t.Fatal(err)
		}
		if k.SamplesUtil() != rightsize {
			t.Errorf("rightsizing %v: kernel samples %v", rightsize, k.SamplesUtil())
		}
	}
	kcfg := policytest.KernelConfig(4)
	kcfg.SampleEvery = 0
	k, err := simkern.New(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	h := core.New(core.Config{FIFOCores: 2, Rightsize: core.RightsizeConfig{Enabled: true}})
	_, err = ghost.NewEnclave(k, h, ghost.Config{})
	if err == nil || !strings.Contains(err.Error(), "policy hybrid") || !strings.Contains(err.Error(), "SampleEvery") {
		t.Errorf("rightsizing hybrid on a kernel with SampleEvery 0: err = %v, want one naming the policy and SampleEvery", err)
	}
}
