package faults

import (
	"slices"
	"testing"
	"time"
)

// scheduleAnswers is everything one time's queries report.
type scheduleAnswers struct {
	crash, straggler     time.Duration
	crashOK, stragglerOK bool
	until                time.Duration
	down                 bool
	factor               float64
}

// ask runs every query at t on s, in a fixed order.
func ask(s *Schedule, t time.Duration) scheduleAnswers {
	var a scheduleAnswers
	a.crash, a.crashOK = s.NextCrash(t)
	a.until, a.down = s.DownAt(t)
	a.straggler, a.stragglerOK = s.NextStraggler(t)
	a.factor = s.Factor(t)
	return a
}

// scanWindow is findWindow's reference: a linear scan for the window of
// ws holding t.
func scanWindow(ws []window, t time.Duration) (window, bool) {
	for _, w := range ws {
		if w.start <= t && t < w.end {
			return w, true
		}
	}
	return window{}, false
}

// FuzzSchedule checks the lazily extended fault timeline. The plan's
// rates come from bytes: a crash MTBF in 250 ms units, a downtime in
// 50 ms units, a straggler MTBF in 500 ms units, a straggler duration in
// 100 ms units (zero keeps each default or disables the hazard) and a
// slowdown of 1 + factor/16 (zero keeps the default). Every two bytes of
// times is one query instant in 10 ms units. A fresh Schedule queried in
// the fuzzer's order must answer exactly as one queried in sorted order,
// since extending the timeline further never changes what it holds; and
// in sorted order NextCrash and NextStraggler are strictly after the
// query and non-decreasing, DownAt is down exactly inside a crash window
// (until its end) and Factor is the slowdown exactly inside a straggler
// window, against a linear scan of the windows. Every crash window's
// edges are probed too, last window first.
func FuzzSchedule(f *testing.F) {
	// testCfg, which TestSchedulePure, TestScheduleOutageBounds and
	// TestStragglerFactor query: 45 s crashes with 10 s outages, 90 s
	// straggler windows of 20 s at 3×.
	f.Add(int64(42), uint8(180), uint8(200), uint8(180), uint8(200), uint8(32), []byte{0, 0, 0x10, 0, 0x02, 0x40, 0xFF, 0xFF, 0, 1})
	// The fleet goldens' crash plan (20 s MTBF, 4 s outages), queried
	// backwards.
	f.Add(int64(5), uint8(80), uint8(80), uint8(0), uint8(0), uint8(0), []byte{0x40, 0, 0x20, 0, 0x10, 0, 0, 0})
	// Straggler-only plans, the defaults and a factor of one.
	f.Add(int64(5), uint8(0), uint8(0), uint8(30), uint8(100), uint8(48), []byte{0, 0x30, 0x12, 0x34, 0, 0x30})
	f.Add(int64(-7), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), []byte{0x01, 0x00, 0x00, 0x80})
	f.Add(int64(9), uint8(3), uint8(1), uint8(2), uint8(1), uint8(0), []byte{0x05, 0x00, 0x00, 0x05, 0x05, 0x00})
	// No plan at all.
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{0x00, 0x10})
	f.Fuzz(func(t *testing.T, seed int64, crash, down, strag, stragDur, factor uint8, times []byte) {
		cfg := Config{
			Seed:              seed,
			CrashMTBF:         time.Duration(crash) * 250 * time.Millisecond,
			Downtime:          time.Duration(down) * 50 * time.Millisecond,
			StragglerMTBF:     time.Duration(strag) * 500 * time.Millisecond,
			StragglerDuration: time.Duration(stragDur) * 100 * time.Millisecond,
		}
		if factor > 0 {
			cfg.StragglerFactor = 1 + float64(factor)/16
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("a generated plan is invalid: %v", err)
		}
		full := cfg.withDefaults()
		var qs []time.Duration
		for i := 0; i+1 < len(times); i += 2 {
			qs = append(qs, time.Duration(uint16(times[i])<<8|uint16(times[i+1]))*10*time.Millisecond)
		}
		shuffled, sorted := NewSchedule(cfg, 3), NewSchedule(cfg, 3)
		got := make([]scheduleAnswers, len(qs))
		for i, q := range qs {
			got[i] = ask(shuffled, q)
		}
		order := make([]int, len(qs))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return int(qs[a] - qs[b]) })
		want := make([]scheduleAnswers, len(qs))
		for _, i := range order {
			want[i] = ask(sorted, qs[i])
		}
		var prev scheduleAnswers
		for n, i := range order {
			q, a := qs[i], want[i]
			if got[i] != a {
				t.Fatalf("at %v: queried out of order %+v, in order %+v", q, got[i], a)
			}
			if a.crashOK != (cfg.CrashMTBF > 0) || a.stragglerOK != (cfg.StragglerMTBF > 0) {
				t.Fatalf("at %v: crash ok %v, straggler ok %v for plan %+v", q, a.crashOK, a.stragglerOK, cfg)
			}
			if a.crashOK && (a.crash <= q || (n > 0 && a.crash < prev.crash)) {
				t.Fatalf("NextCrash(%v) = %v after %v", q, a.crash, prev.crash)
			}
			if a.stragglerOK && (a.straggler <= q || (n > 0 && a.straggler < prev.straggler)) {
				t.Fatalf("NextStraggler(%v) = %v after %v", q, a.straggler, prev.straggler)
			}
			prev = a
		}
		// The timelines now reach past every query: check each answer
		// against a linear scan of the windows.
		for i, q := range qs {
			a := want[i]
			if w, in := scanWindow(sorted.crashes, q); in != a.down || (in && w.end != a.until) {
				t.Fatalf("DownAt(%v) = %v, %v; the windows say %v, %+v", q, a.until, a.down, in, w)
			}
			wantFactor := 1.0
			if _, in := scanWindow(sorted.stragglers, q); in {
				wantFactor = full.StragglerFactor
			}
			if a.factor != wantFactor {
				t.Fatalf("Factor(%v) = %v, want %v", q, a.factor, wantFactor)
			}
			if a.crashOK {
				next := slices.IndexFunc(sorted.crashes, func(w window) bool { return w.start > q })
				if next < 0 || sorted.crashes[next].start != a.crash {
					t.Fatalf("NextCrash(%v) = %v is not the first window start after it", q, a.crash)
				}
			}
		}
		fresh := NewSchedule(cfg, 3)
		for i := min(len(sorted.crashes), 64) - 1; i >= 0; i-- {
			cw := sorted.crashes[i]
			for _, edge := range []time.Duration{cw.end, cw.end - 1, cw.start, cw.start - 1} {
				until, isDown := fresh.DownAt(edge)
				if w, in := scanWindow(sorted.crashes, edge); in != isDown || (in && w.end != until) {
					t.Fatalf("DownAt(%v) = %v, %v at the edge of %+v", edge, until, isDown, cw)
				}
			}
		}
	})
}
