package simkern

import (
	"strings"
	"testing"
	"time"
)

const testSampleEvery = 10 * time.Millisecond

// samplingKernel returns a 1-core kernel sampling every 10 ms with the
// full history recorded, driven by the work-conserving test dispatcher.
func samplingKernel(t *testing.T) *Kernel {
	t.Helper()
	k, _ := newTestKernel(t, Config{Cores: 1, SampleEvery: testSampleEvery, RecordUtil: true})
	return k
}

// samplesSoFar is how many grid points the sampler has published.
func samplesSoFar(k *Kernel) int { return k.UtilHistory(0).Len() }

// TestSamplerSameInstantTies pins where a sampler grid point falls among
// real events at the same instant: after lazily admitted arrivals, after
// classRun events scheduled before the point was armed, before classRun
// events scheduled after it was armed, and before fault timers whatever
// their age. The grid here is 10, 20, 30 ms…; the point at 30 ms is armed
// when the 20 ms point fires.
func TestSamplerSameInstantTies(t *testing.T) {
	const at = 30 * time.Millisecond
	cases := []struct {
		name string
		// arm schedules the probe at 30 ms; it calls seen from the probe.
		arm  func(k *Kernel, seen func())
		want int // grid points published when the probe fires
	}{
		{"admit", func(k *Kernel, seen func()) {
			k.SetTimer(25*time.Millisecond, func() {
				k.SetHandler(handlerHook{inner: k.handler, onArrive: func(*Task) { seen() }})
				if err := k.AdmitTask(&Task{ID: 2, Arrival: at, Work: time.Millisecond}); err != nil {
					t.Error(err)
				}
			})
		}, 2},
		{"older run, scheduled before Run", func(k *Kernel, seen func()) {
			k.SetTimer(at, seen)
		}, 2},
		{"older run, scheduled between points", func(k *Kernel, seen func()) {
			k.SetTimer(15*time.Millisecond, func() { k.SetTimer(at, seen) })
		}, 2},
		{"older run, scheduled at the arming instant before the point fired", func(k *Kernel, seen func()) {
			// Scheduled before Run, so the 20 ms timer precedes the 20 ms
			// point, which is what arms the 30 ms point.
			k.SetTimer(20*time.Millisecond, func() { k.SetTimer(at, seen) })
		}, 2},
		{"newer run, scheduled after the point was armed", func(k *Kernel, seen func()) {
			k.SetTimer(25*time.Millisecond, func() { k.ScheduleFn(at, seen) })
		}, 3},
		{"newer run, scheduled at the arming instant after the point fired", func(k *Kernel, seen func()) {
			k.SetTimer(15*time.Millisecond, func() {
				k.SetTimer(20*time.Millisecond, func() { k.SetTimer(at, seen) })
			})
		}, 3},
		{"fault, scheduled before Run", func(k *Kernel, seen func()) {
			k.SetFaultTimer(at, seen)
		}, 3},
		{"fault, scheduled after the point was armed", func(k *Kernel, seen func()) {
			k.SetTimer(25*time.Millisecond, func() { k.SetFaultTimer(at, seen) })
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := samplingKernel(t)
			if err := k.AddTask(&Task{ID: 1, Work: 100 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			got := -1
			tc.arm(k, func() {
				if k.Now() != at {
					t.Errorf("probe fired at %v, want %v", k.Now(), at)
				}
				got = samplesSoFar(k)
			})
			if _, err := k.Run(0); err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("probe saw %d grid points, want %d", got, tc.want)
			}
		})
	}
}

// TestSamplerClockAfterRunTo pins where Run leaves the clock. With work
// pending past the horizon, the clock lands on the horizon. On an idle
// kernel the sampler is armed at now+SampleEvery, publishes that one
// point and stops — so an idle Run(h) leaves the clock on that point,
// short of h, and the next Run arms one period later on the same phase.
func TestSamplerClockAfterRunTo(t *testing.T) {
	k := samplingKernel(t)
	if err := k.AddTask(&Task{ID: 1, Work: 25 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	step := func(h, wantNow time.Duration, wantSamples int) {
		t.Helper()
		if _, err := k.Run(h); err != nil {
			t.Fatal(err)
		}
		if k.Now() != wantNow || samplesSoFar(k) != wantSamples {
			t.Fatalf("Run(%v): now %v with %d points, want %v with %d", h, k.Now(), samplesSoFar(k), wantNow, wantSamples)
		}
	}
	step(15*time.Millisecond, 15*time.Millisecond, 1) // task running; horizon between points
	step(20*time.Millisecond, 20*time.Millisecond, 2) // horizon on a grid point: the point fires
	step(65*time.Millisecond, 30*time.Millisecond, 3) // done at 25 ms; the 30 ms point drains
	step(65*time.Millisecond, 40*time.Millisecond, 4) // idle: one point, then stop
	step(45*time.Millisecond, 45*time.Millisecond, 4) // idle, next point beyond the horizon
	step(0, 50*time.Millisecond, 5)                   // the armed point fires and drains
	if got := k.UtilHistory(0).Samples(); got[0].V != 1 || got[1].V != 1 || got[2].V != 0.5 || got[3].V != 0 {
		t.Errorf("utilization %v, want 1, 1, 0.5, 0, …", got)
	}
}

// TestSamplerClockAfterDrain: Run(0) returns with the clock on the first
// grid point at or after the last real event — also when a completion
// ties with that point — and without sampling the clock stays on the
// last real event. The test reads UtilLast, so it registers as a reader.
func TestSamplerClockAfterDrain(t *testing.T) {
	for _, tc := range []struct {
		work, wantNow time.Duration
		every         time.Duration
	}{
		{25 * time.Millisecond, 30 * time.Millisecond, testSampleEvery},
		{30 * time.Millisecond, 30 * time.Millisecond, testSampleEvery},
		{25 * time.Millisecond, 25 * time.Millisecond, 0},
	} {
		k, _ := newTestKernel(t, Config{Cores: 1, SampleEvery: tc.every})
		if tc.every > 0 {
			if err := k.RegisterUtilReader(); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.AddTask(&Task{ID: 1, Work: tc.work}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if k.Now() != tc.wantNow {
			t.Errorf("work %v, sampling every %v: drained at %v, want %v", tc.work, tc.every, k.Now(), tc.wantNow)
		}
		if tc.every > 0 && k.UtilLast(0) != float64(tc.work-20*time.Millisecond)/float64(tc.every) {
			t.Errorf("work %v: last utilization %v", tc.work, k.UtilLast(0))
		}
	}
}

// TestSamplerIdleSpanPublishesEveryPoint: a long span with no real event
// between grid points still publishes every point in order, and the last
// window's utilization is exact.
func TestSamplerIdleSpanPublishesEveryPoint(t *testing.T) {
	k := samplingKernel(t)
	if err := k.AddTask(&Task{ID: 1, Arrival: 3 * time.Millisecond, Work: 997 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	samples := k.UtilHistory(0).Samples()
	if len(samples) != 100 {
		t.Fatalf("%d grid points, want 100", len(samples))
	}
	for i, s := range samples {
		want := 1.0
		if i == 0 {
			want = 0.7
		}
		if s.T != time.Duration(i+1)*testSampleEvery || s.V != want {
			t.Fatalf("point %d = %+v, want {%v %v}", i, s, time.Duration(i+1)*testSampleEvery, want)
		}
	}
	if k.Now() != time.Second {
		t.Errorf("drained at %v, want 1s", k.Now())
	}
}

// TestRunReturnsOnUndispatchedTask: a handler that never dispatches
// leaves a task outstanding with no event pending. Run(0) must return
// rather than sample forever, leaving Outstanding() > 0 for the caller's
// unfinished-task check; a bounded Run still samples up to its horizon.
func TestRunReturnsOnUndispatchedTask(t *testing.T) {
	k, err := New(Config{Cores: 1, SampleEvery: testSampleEvery, RecordUtil: true})
	if err != nil {
		t.Fatal(err)
	}
	k.SetHandler(nopHandler{})
	if err := k.AddTask(&Task{ID: 1, Work: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := k.Run(0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run(0) did not return with an undispatched task outstanding")
	}
	if k.Outstanding() != 1 || k.Now() != 0 || samplesSoFar(k) != 0 {
		t.Fatalf("after Run(0): outstanding %d, now %v, %d points; want 1, 0s, 0", k.Outstanding(), k.Now(), samplesSoFar(k))
	}
	if _, err := k.Run(95 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 95*time.Millisecond || samplesSoFar(k) != 9 {
		t.Fatalf("after Run(95ms): now %v with %d points, want 95ms with 9", k.Now(), samplesSoFar(k))
	}
}

// TestSamplerArmsOnlyForAReader: a kernel with a sampling period but no
// reader and no RecordUtil takes no sampler step and drains with the
// clock on its last event; registering a reader arms the sampler on the
// same grid. A reader on a kernel with SampleEvery 0 is refused.
func TestSamplerArmsOnlyForAReader(t *testing.T) {
	for _, reader := range []bool{false, true} {
		k, _ := newTestKernel(t, Config{Cores: 1, SampleEvery: testSampleEvery})
		if reader {
			if err := k.RegisterUtilReader(); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.AddTask(&Task{ID: 1, Work: 25 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		wantNow, wantSteps := 25*time.Millisecond, uint64(0)
		if reader {
			// One step publishes 10 and 20 ms before the completion at
			// 25 ms, one publishes 30 ms and stops.
			wantNow, wantSteps = 30*time.Millisecond, 2
		}
		if k.SamplesUtil() != reader || k.Now() != wantNow || k.SampleSteps() != wantSteps {
			t.Errorf("reader %v: SamplesUtil %v, drained at %v after %d sampler steps; want %v, %v, %d",
				reader, k.SamplesUtil(), k.Now(), k.SampleSteps(), reader, wantNow, wantSteps)
		}
	}
	k, _ := newTestKernel(t, Config{Cores: 1})
	if err := k.RegisterUtilReader(); err == nil || !strings.Contains(err.Error(), "SampleEvery") {
		t.Errorf("reader on a kernel with SampleEvery 0: err = %v, want one naming SampleEvery", err)
	}
}

// TestUtilLastWithoutReaderPanics: reading utilization on a kernel that
// does not sample fails, naming the call, instead of returning 0.
func TestUtilLastWithoutReaderPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no reader":     {Cores: 1, SampleEvery: testSampleEvery},
		"SampleEvery 0": {Cores: 1},
	} {
		k, _ := newTestKernel(t, cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "UtilLast") || !strings.Contains(msg, "RegisterUtilReader") {
					t.Errorf("%s: UtilLast panicked with %q, want a message naming UtilLast and RegisterUtilReader", name, msg)
				}
			}()
			k.UtilLast(0)
		}()
	}
}

// TestRunToHorizonWithoutSampler: with nothing pending at or before the
// horizon, Run(h) puts the clock on h also when no sampler runs, so a
// later arrival behind h is refused. Run(0) leaves the clock alone.
func TestRunToHorizonWithoutSampler(t *testing.T) {
	k, _ := newTestKernel(t, Config{Cores: 1})
	if _, err := k.Run(0); err != nil || k.Now() != 0 {
		t.Fatalf("idle Run(0): now %v, err %v; want 0s", k.Now(), err)
	}
	if _, err := k.Run(time.Second); err != nil || k.Now() != time.Second {
		t.Fatalf("idle Run(1s): now %v, err %v; want 1s", k.Now(), err)
	}
	if err := k.AdmitTask(&Task{ID: 1, Arrival: 500 * time.Millisecond, Work: time.Millisecond}); err == nil {
		t.Error("arrival at 500ms admitted with the clock at 1s")
	}
	if err := k.AddTask(&Task{ID: 2, Arrival: 1500 * time.Millisecond, Work: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(2 * time.Second); err != nil || k.Now() != 2*time.Second || k.Outstanding() != 0 {
		t.Fatalf("Run(2s) past the last completion: now %v, outstanding %d, err %v; want 2s, 0", k.Now(), k.Outstanding(), err)
	}
}

// TestRunHorizonBehindClock: a horizon behind the clock runs nothing and
// leaves the clock where it was, on a sampling kernel and on one that
// does not sample, so an arrival before the clock stays refused.
func TestRunHorizonBehindClock(t *testing.T) {
	for _, reader := range []bool{false, true} {
		k, _ := newTestKernel(t, Config{Cores: 1, SampleEvery: testSampleEvery})
		if reader {
			if err := k.RegisterUtilReader(); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.AddTask(&Task{ID: 1, Arrival: 2 * time.Second, Work: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(time.Second); err != nil || k.Now() != time.Second {
			t.Fatalf("reader %v: Run(1s): now %v, err %v; want 1s", reader, k.Now(), err)
		}
		n, err := k.Run(500 * time.Millisecond)
		if err != nil || n != 0 || k.Now() != time.Second {
			t.Fatalf("reader %v: Run(500ms) at 1s ran %d events and left the clock at %v (err %v); want 0 and 1s", reader, n, k.Now(), err)
		}
		if err := k.AdmitTask(&Task{ID: 2, Arrival: 600 * time.Millisecond, Work: time.Millisecond}); err == nil {
			t.Errorf("reader %v: arrival at 600ms admitted with the clock at 1s", reader)
		}
	}
}
