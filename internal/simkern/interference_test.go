package simkern

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPeriodicInterferenceValidate(t *testing.T) {
	valid := PeriodicInterference{Period: 100 * time.Millisecond, Steal: 5 * time.Millisecond}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PeriodicInterference{
		{Period: 0, Steal: 0},
		{Period: -time.Second, Steal: 0},
		{Period: time.Second, Steal: time.Second},
		{Period: time.Second, Steal: -time.Millisecond},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}

func TestNoInterferenceIdentity(t *testing.T) {
	var n noInterference
	if got := n.Advance(0, 123, 456); got != 456 {
		t.Errorf("Advance = %v", got)
	}
	if got := n.WorkDone(0, 123, 456); got != 456 {
		t.Errorf("WorkDone = %v", got)
	}
}

func TestPeriodicAdvanceSimple(t *testing.T) {
	// Period 10ms, steal 2ms at the start of each period; core 0 has zero
	// phase only if phase(0)==0, which it is.
	p := PeriodicInterference{Period: 10 * time.Millisecond, Steal: 2 * time.Millisecond}
	if ph := p.phase(0); ph != 0 {
		t.Fatalf("phase(0) = %v, want 0", ph)
	}
	// Starting at t=0 (inside the stolen prefix): to consume 8ms of work we
	// must first wait 2ms, so wall time is 10ms.
	if got := p.Advance(0, 0, 8*time.Millisecond); got != 10*time.Millisecond {
		t.Errorf("Advance(0,8ms) = %v, want 10ms", got)
	}
	// Starting at t=2ms: 8ms available immediately.
	if got := p.Advance(0, 2*time.Millisecond, 8*time.Millisecond); got != 8*time.Millisecond {
		t.Errorf("Advance(2ms,8ms) = %v, want 8ms", got)
	}
	// 16ms of work from t=2ms: 8ms now, stall 2ms, 8ms more = 18ms wall.
	if got := p.Advance(0, 2*time.Millisecond, 16*time.Millisecond); got != 18*time.Millisecond {
		t.Errorf("Advance(2ms,16ms) = %v, want 18ms", got)
	}
}

func TestPeriodicWorkDoneSimple(t *testing.T) {
	p := PeriodicInterference{Period: 10 * time.Millisecond, Steal: 2 * time.Millisecond}
	// [0, 10ms): 8ms available.
	if got := p.WorkDone(0, 0, 10*time.Millisecond); got != 8*time.Millisecond {
		t.Errorf("WorkDone(0,10ms) = %v, want 8ms", got)
	}
	// [5ms, 9ms): all available.
	if got := p.WorkDone(0, 5*time.Millisecond, 4*time.Millisecond); got != 4*time.Millisecond {
		t.Errorf("WorkDone(5ms,4ms) = %v, want 4ms", got)
	}
	// [1ms, 3ms): only [2,3) available.
	if got := p.WorkDone(0, time.Millisecond, 2*time.Millisecond); got != time.Millisecond {
		t.Errorf("WorkDone(1ms,2ms) = %v, want 1ms", got)
	}
	if got := p.WorkDone(0, 0, 0); got != 0 {
		t.Errorf("WorkDone(0,0) = %v, want 0", got)
	}
}

// Property: Advance and WorkDone are exact inverses for any start/work and
// any core phase.
func TestPeriodicInverseProperty(t *testing.T) {
	p := PeriodicInterference{Period: 7 * time.Millisecond, Steal: 3 * time.Millisecond}
	f := func(coreSeed uint8, startUS uint16, workUS uint16) bool {
		c := CoreID(coreSeed % 64)
		start := time.Duration(startUS) * time.Microsecond
		work := time.Duration(workUS) * time.Microsecond
		wall := p.Advance(c, start, work)
		if wall < work {
			return false
		}
		return p.WorkDone(c, start, wall) == work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: WorkDone is monotone in elapsed and additive across splits.
func TestPeriodicWorkDoneAdditiveProperty(t *testing.T) {
	p := PeriodicInterference{Period: 9 * time.Millisecond, Steal: 2 * time.Millisecond}
	f := func(startUS, aUS, bUS uint16) bool {
		start := time.Duration(startUS) * time.Microsecond
		a := time.Duration(aUS) * time.Microsecond
		b := time.Duration(bUS) * time.Microsecond
		whole := p.WorkDone(3, start, a+b)
		split := p.WorkDone(3, start, a) + p.WorkDone(3, start+a, b)
		return whole == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicAdvanceZeroWork(t *testing.T) {
	p := PeriodicInterference{Period: 10 * time.Millisecond, Steal: 2 * time.Millisecond}
	if got := p.Advance(0, 5*time.Millisecond, 0); got != 0 {
		t.Errorf("Advance(_, 0) = %v, want 0", got)
	}
}

func TestPeriodicLongWorkManyCycles(t *testing.T) {
	p := PeriodicInterference{Period: 10 * time.Millisecond, Steal: 1 * time.Millisecond}
	// 90ms of work needs exactly 10 full cycles of 9ms each; starting at
	// offset 1ms (just past the steal) wall time = 9ms + 9*(10ms)... verify
	// via the inverse property instead of hand-arithmetic.
	start := time.Millisecond
	work := 90 * time.Millisecond
	wall := p.Advance(0, start, work)
	if got := p.WorkDone(0, start, wall); got != work {
		t.Fatalf("inverse failed: WorkDone = %v, want %v", got, work)
	}
	// Overhead should be between 9 and 11 steals.
	overhead := wall - work
	if overhead < 9*time.Millisecond || overhead > 11*time.Millisecond {
		t.Errorf("overhead = %v, want ~10ms", overhead)
	}
}

// TestCPUReachedAtIsExact: under periodic interference a running task's
// consumption reaches cpu exactly at CPUReachedAt(t, cpu), and not one
// nanosecond earlier — in its first segment and in a later one that
// starts with CPU already consumed.
func TestCPUReachedAtIsExact(t *testing.T) {
	k, err := New(Config{
		Cores: 2, SwitchCost: 5 * time.Microsecond, CachePenalty: 50 * time.Microsecond,
		Interference: PeriodicInterference{Period: 10 * time.Millisecond, Steal: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	task := &Task{ID: 1, Arrival: 3 * time.Millisecond, Work: 300 * time.Millisecond}
	checks := 0
	probe := func() {
		base := task.CPUConsumed()
		for _, w := range []time.Duration{1, time.Millisecond, 8 * time.Millisecond, 9 * time.Millisecond, 47 * time.Millisecond} {
			at := k.CPUReachedAt(task, base+w)
			k.SetTimer(at-1, func() {
				if got := k.TaskCPUConsumed(task); got >= base+w {
					t.Errorf("consumed %v at %v, one ns before CPUReachedAt(%v)", got, at-1, base+w)
				}
			})
			k.SetTimer(at, func() {
				checks++
				if got := k.TaskCPUConsumed(task); got != base+w {
					t.Errorf("consumed %v at CPUReachedAt(%v) = %v", got, base+w, at)
				}
			})
		}
	}
	k.SetHandler(&hookHandler{arrived: func(*Task) {
		if err := k.RunTask(1, task); err != nil {
			t.Fatal(err)
		}
		probe()
		k.SetTimer(k.Now()+60*time.Millisecond, func() {
			if _, err := k.Preempt(1); err != nil {
				t.Fatal(err)
			}
			if err := k.RunTask(1, task); err != nil {
				t.Fatal(err)
			}
			probe()
		})
	}})
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if checks != 10 {
		t.Fatalf("%d checks ran, want 10", checks)
	}
}
