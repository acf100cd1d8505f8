package faults

import (
	"math"
	"strings"
	"testing"
	"time"
)

var testCfg = Config{
	Seed:      42,
	CrashMTBF: 45 * time.Second,
	Downtime:  10 * time.Second,

	StragglerMTBF:     90 * time.Second,
	StragglerDuration: 20 * time.Second,
	StragglerFactor:   3,

	Timeout: 15 * time.Second,
	Retry:   RetryPolicy{MaxAttempts: 3},
}

// TestSchedulePure: a Schedule is a pure function of (Seed, server) — two
// independently built instances agree on every query, which is the whole
// basis for router/machine agreement across dataflows.
func TestSchedulePure(t *testing.T) {
	a, b := NewSchedule(testCfg, 3), NewSchedule(testCfg, 3)
	at := time.Duration(0)
	for i := 0; i < 50; i++ {
		ca, oka := a.NextCrash(at)
		cb, okb := b.NextCrash(at)
		if ca != cb || oka != okb {
			t.Fatalf("crash %d: %v/%v vs %v/%v", i, ca, oka, cb, okb)
		}
		if ca <= at {
			t.Fatalf("crash %d at %v not strictly after %v", i, ca, at)
		}
		ua, da := a.DownAt(ca)
		ub, db := b.DownAt(ca)
		if !da || !db || ua != ub {
			t.Fatalf("DownAt(%v) disagrees: %v/%v vs %v/%v", ca, ua, da, ub, db)
		}
		if ua != ca+testCfg.Downtime {
			t.Fatalf("outage until %v, want crash+downtime %v", ua, ca+testCfg.Downtime)
		}
		at = ca
	}
	// Out-of-order queries must not perturb the timeline.
	c0, _ := NewSchedule(testCfg, 3).NextCrash(0)
	cc, _ := a.NextCrash(0)
	if cc != c0 {
		t.Fatalf("first crash %v changed after deep queries, want %v", cc, c0)
	}
}

// TestScheduleServersDiffer: different servers draw from different hazard
// streams.
func TestScheduleServersDiffer(t *testing.T) {
	c0, _ := NewSchedule(testCfg, 0).NextCrash(0)
	c1, _ := NewSchedule(testCfg, 1).NextCrash(0)
	if c0 == c1 {
		t.Fatalf("servers 0 and 1 crash at the same instant %v", c0)
	}
}

// TestScheduleOutageBounds: windows are [start, end) — down at the crash
// instant, up again exactly at recovery.
func TestScheduleOutageBounds(t *testing.T) {
	s := NewSchedule(testCfg, 0)
	crash, _ := s.NextCrash(0)
	if _, down := s.DownAt(crash - 1); down {
		t.Error("down just before the crash instant")
	}
	if _, down := s.DownAt(crash); !down {
		t.Error("not down at the crash instant")
	}
	if _, down := s.DownAt(crash + testCfg.Downtime - 1); !down {
		t.Error("not down just before recovery")
	}
	if _, down := s.DownAt(crash + testCfg.Downtime); down {
		t.Error("still down at the recovery instant")
	}
}

// TestStragglerFactor: SlowExtra surcharges demand inside a window by
// (factor−1)×base and nowhere else.
func TestStragglerFactor(t *testing.T) {
	s := NewSchedule(testCfg, 0)
	start, ok := s.NextStraggler(0)
	if !ok {
		t.Fatal("no straggler window")
	}
	if f := s.Factor(start - 1); f != 1 {
		t.Errorf("factor %v just before the window, want 1", f)
	}
	if f := s.Factor(start); f != 3 {
		t.Errorf("factor %v inside the window, want 3", f)
	}
	base := 2 * time.Second
	if got := s.SlowExtra(start, base); got != 4*time.Second {
		t.Errorf("SlowExtra = %v, want (3−1)×2s = 4s", got)
	}
	if got := s.SlowExtra(start+testCfg.StragglerDuration, base); got != 0 {
		t.Errorf("SlowExtra = %v after the window, want 0", got)
	}
}

// TestBackoff: reproducible, exponential up to the cap, jittered within
// [delay, 1.5×delay], and never a whole number of microseconds — the
// off-grid property that keeps retry admissions from tying with µs-grid
// arrivals.
func TestBackoff(t *testing.T) {
	cfg := Config{Seed: 7, Retry: RetryPolicy{BackoffBase: 100 * time.Millisecond, BackoffCap: time.Second}}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := cfg.Backoff(12345, attempt)
		d2 := cfg.Backoff(12345, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v != %v (not reproducible)", attempt, d1, d2)
		}
		if d1%time.Microsecond == 0 {
			t.Errorf("attempt %d: delay %v sits on the microsecond grid", attempt, d1)
		}
		lo := 100 * time.Millisecond << (attempt - 1)
		if lo > time.Second {
			lo = time.Second
		}
		hi := lo + lo/2 + time.Microsecond
		if d1 < lo || d1 > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d1, lo, hi)
		}
	}
	if a, b := cfg.Backoff(1, 1), cfg.Backoff(2, 1); a == b {
		t.Errorf("ids 1 and 2 share jitter %v", a)
	}
}

// TestFleetMatchesSchedules: the router's Fleet view replays exactly the
// per-server Schedule timelines, with outages toggling eligibility.
func TestFleetMatchesSchedules(t *testing.T) {
	const servers = 4
	f := NewFleet(testCfg, servers)
	crash0, _ := NewSchedule(testCfg, 0).NextCrash(0)

	var downs, ups int
	f.Advance(crash0, func(int) { downs++ }, func(int) { ups++ })
	if !f.Down(0) {
		t.Fatalf("server 0 not down at its own crash instant %v", crash0)
	}
	if f.SoonestUp() < 0 {
		t.Error("SoonestUp found no down server")
	}
	f.Advance(crash0+testCfg.Downtime, func(int) { downs++ }, func(int) { ups++ })
	if f.Down(0) {
		t.Error("server 0 still down after its outage")
	}
	if downs == 0 || ups == 0 {
		t.Errorf("transitions not reported: downs=%d ups=%d", downs, ups)
	}
	if st := f.Stats(); st.Crashes == 0 {
		t.Error("fleet stats did not count the crash")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if err := (Config{StragglerFactor: 1}).Validate(); err != nil {
		t.Errorf("StragglerFactor 1 rejected: %v", err)
	}
	if err := (Config{Retry: RetryPolicy{MaxAttempts: math.MaxInt32}}).Validate(); err != nil {
		t.Errorf("MaxAttempts at the int32 maximum rejected: %v", err)
	}
	bad := []struct {
		cfg   Config
		field string // named in the error, when set
	}{
		{Config{CrashMTBF: -1}, ""},
		{Config{Timeout: -1}, ""},
		{Config{Downtime: -1}, ""},
		{Config{StragglerFactor: 0.5}, "StragglerFactor"},
		{Config{StragglerFactor: math.NaN()}, "StragglerFactor"},
		{Config{StragglerFactor: math.Inf(1)}, "StragglerFactor"},
		{Config{StragglerFactor: math.Inf(-1)}, "StragglerFactor"},
		{Config{Retry: RetryPolicy{MaxAttempts: -1}}, ""},
		{Config{Retry: RetryPolicy{MaxAttempts: math.MaxInt32 + 1}}, "Retry.MaxAttempts 2147483648 above 2147483647"},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("config %+v accepted", c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("config %+v: error %q does not name %s", c.cfg, err, c.field)
		}
	}
}

func TestConfigEnabledKills(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if !(Config{Instrument: true}).Enabled() {
		t.Error("Instrument does not enable the seam")
	}
	if (Config{Instrument: true}).Kills() {
		t.Error("Instrument alone claims to kill tasks")
	}
	if !(Config{Timeout: time.Second}).Kills() || !(Config{CrashMTBF: time.Second}).Kills() {
		t.Error("timeout/crash plans must report Kills")
	}
	if (Config{StragglerMTBF: time.Second}).Kills() {
		t.Error("straggler-only plan claims to kill tasks")
	}
}
