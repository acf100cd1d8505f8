package cluster

import (
	"math/rand"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/workload"
)

// naiveLeastLoaded is the pre-index linear scan: first minimum of
// Outstanding over candidates in ascending order.
func naiveLeastLoaded(m *FleetModel, candidates []int, now time.Duration) int {
	best, bestLoad := candidates[0], time.Duration(-1)
	for _, s := range candidates {
		load := m.Outstanding(s, now)
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = s, load
		}
	}
	return best
}

// naiveLongestIdle is the pre-index JIQ scan: first minimum of IdleSince
// among idle candidates; -1 when none is idle.
func naiveLongestIdle(m *FleetModel, candidates []int, now time.Duration) int {
	best, bestSince, found := -1, time.Duration(0), false
	for _, s := range candidates {
		since, idle := m.IdleSince(s, now)
		if !idle {
			continue
		}
		if !found || since < bestSince {
			best, bestSince, found = s, since, true
		}
	}
	return best
}

// naiveWarmBest is the pre-index warm-first scan: least-loaded candidate
// holding an idle warm instance; -1 when none does.
func naiveWarmBest(m *FleetModel, pools *WarmPools, inv workload.Invocation, candidates []int) int {
	best, bestLoad := -1, time.Duration(0)
	for _, s := range candidates {
		if !pools.HasWarm(s, inv, inv.Arrival) {
			continue
		}
		load := m.Outstanding(s, inv.Arrival)
		if best < 0 || load < bestLoad {
			best, bestLoad = s, load
		}
	}
	return best
}

// TestLoadIndexMatchesLinearScan drives one fleet model through a long
// randomized assign sequence with non-decreasing decision times — lanes
// filling, freeing, and idling across every busy-count bucket — and
// checks at every step that the indexed answers equal the naive linear
// scans for least-loaded, join-idle-queue, and the O(1) load/busy
// aggregates.
func TestLoadIndexMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		servers int
		cores   int
		seed    int64
	}{
		{"small_fleet", 7, 2, 1},
		{"wide_fleet", 64, 4, 7},
		{"single_core", 16, 1, 42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			m := NewFleetModel(tc.servers, tc.cores)
			candidates := make([]int, tc.servers)
			for s := range candidates {
				candidates[s] = s
			}
			now := time.Duration(0)
			for step := 0; step < 4000; step++ {
				// Bursty arrivals: occasional long gaps drain the fleet so
				// idle/partially-busy/saturated states all occur.
				gap := time.Duration(rng.Intn(5)) * time.Millisecond
				if rng.Intn(20) == 0 {
					gap = time.Duration(rng.Intn(200)) * time.Millisecond
				}
				now += gap

				ix := m.index(now)
				if got, want := m.EligibleBusyLanes(now), busySum(m, candidates, now); got != want {
					t.Fatalf("step %d: EligibleBusyLanes=%d, linear=%d", step, got, want)
				}
				for _, s := range candidates {
					if got, want := ix.loadOf(s), m.Outstanding(s, now); got != want {
						t.Fatalf("step %d: loadOf(%d)=%v, Outstanding=%v", step, s, got, want)
					}
				}
				if got, ok := ix.leastLoaded(); !ok || got != naiveLeastLoaded(m, candidates, now) {
					t.Fatalf("step %d: indexed least-loaded %d (ok=%v), linear %d",
						step, got, ok, naiveLeastLoaded(m, candidates, now))
				}
				idxIdle, ok := ix.longestIdle()
				if !ok {
					idxIdle = -1
				}
				if want := naiveLongestIdle(m, candidates, now); idxIdle != want {
					t.Fatalf("step %d: indexed longest-idle %d, linear %d", step, idxIdle, want)
				}

				// Book a batch, zero-demand bookings included (they move
				// IdleSince without changing load).
				for k := rng.Intn(3) + 1; k > 0; k-- {
					s := candidates[rng.Intn(len(candidates))]
					demand := time.Duration(rng.Intn(40)) * time.Millisecond
					m.AssignDemand(s, now, demand)
				}
			}
		})
	}
}

func busySum(m *FleetModel, candidates []int, now time.Duration) int {
	sum := 0
	for _, s := range candidates {
		sum += m.BusyLanes(s, now)
	}
	return sum
}

// TestLoadIndexGrowRetire exercises the autoscaler shape: servers
// launched mid-run (ineligible while spinning up), activated into the
// eligible set, and drained back out — the candidate slice and the
// eligible set move together, and every indexed answer must keep
// matching the linear scan over the live candidates.
func TestLoadIndexGrowRetire(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const cores = 2
	m := NewFleetModel(3, cores)
	candidates := []int{0, 1, 2}
	type launch struct {
		s     int
		ready time.Duration
	}
	var pending []launch
	retired := map[int]bool{}
	now := time.Duration(0)
	for step := 0; step < 3000; step++ {
		now += time.Duration(rng.Intn(8)) * time.Millisecond

		// Activate pending launches whose spin-up completed, in launch
		// order like the autoscaler (so candidates stay ascending — the
		// order the Dispatcher contract requires).
		for len(pending) > 0 && pending[0].ready <= now {
			candidates = append(candidates, pending[0].s)
			m.SetEligible(pending[0].s, true, now)
			pending = pending[1:]
		}

		switch rng.Intn(10) {
		case 0: // launch
			ready := now + time.Duration(rng.Intn(50))*time.Millisecond
			s := m.AddServer(ready)
			pending = append(pending, launch{s: s, ready: ready})
		case 1: // drain the least-loaded candidate, if any to spare
			if len(candidates) > 1 {
				victim := naiveLeastLoaded(m, candidates, now)
				i := 0
				for candidates[i] != victim {
					i++
				}
				candidates = append(candidates[:i], candidates[i+1:]...)
				m.SetEligible(victim, false, now)
				retired[victim] = true
			}
		}

		if len(candidates) == 0 {
			continue
		}
		if got, want := m.EligibleCount(), len(candidates); got != want {
			t.Fatalf("step %d: EligibleCount=%d, candidates=%d", step, got, want)
		}
		if got, want := m.EligibleBusyLanes(now), busySum(m, candidates, now); got != want {
			t.Fatalf("step %d: EligibleBusyLanes=%d, linear=%d", step, got, want)
		}
		ix := m.index(now)
		if got, ok := ix.leastLoaded(); !ok || got != naiveLeastLoaded(m, candidates, now) {
			t.Fatalf("step %d: indexed least-loaded %d (ok=%v), linear %d",
				step, got, ok, naiveLeastLoaded(m, candidates, now))
		}
		idxIdle, ok := ix.longestIdle()
		if !ok {
			idxIdle = -1
		}
		if want := naiveLongestIdle(m, candidates, now); idxIdle != want {
			t.Fatalf("step %d: indexed longest-idle %d, linear %d", step, idxIdle, want)
		}
		for k := rng.Intn(2); k >= 0; k-- {
			s := candidates[rng.Intn(len(candidates))]
			m.AssignDemand(s, now, time.Duration(rng.Intn(30))*time.Millisecond)
		}
		// Drained servers keep their booked lanes; they must never
		// reappear in indexed answers.
		if s, ok := m.index(now).longestIdle(); ok && retired[s] {
			t.Fatalf("step %d: retired server %d surfaced as longest-idle", step, s)
		}
	}
}

// TestDispatcherMatchesNaivePick runs every dispatch policy (plus the
// warm-first wrapper) twice over the same randomized arrival stream —
// once against a model answering from the index, once against a mirror
// model forced down the linear path by an eligibility mismatch — and
// requires identical pick sequences. This is the end-to-end form of the
// property: the indexed Pick is the linear Pick.
func TestDispatcherMatchesNaivePick(t *testing.T) {
	const servers, cores = 33, 2
	for _, d := range Dispatches() {
		for _, warmFirst := range []bool{false, true} {
			name := string(d)
			if warmFirst {
				name += "+warm-first"
			}
			t.Run(name, func(t *testing.T) {
				cfg := ColdStartConfig{}
				if warmFirst {
					cfg = ColdStartConfig{Latency: 5 * time.Millisecond, KeepAlive: 150 * time.Millisecond, PoolMemMB: 4096, WarmFirst: true}
				}
				idxModel := NewFleetModel(servers, cores)
				naiveModel := NewFleetModel(servers, cores)
				// Force the mirror down the linear path: one phantom
				// eligible server makes the candidate count mismatch.
				naiveModel.AddServer(0)
				naiveModel.SetEligible(servers, true, 0)

				idxPools := NewWarmPools(cfg, servers)
				// The mirror's pools omit WarmFirst so no warm index is
				// built: together with the eligibility mismatch this pins
				// the whole mirror to the linear scans.
				naiveCfg := cfg
				naiveCfg.WarmFirst = false
				naivePools := NewWarmPools(naiveCfg, servers)
				idxDisp := mustDispatcher(t, d, 11, idxModel)
				naiveDisp := mustDispatcher(t, d, 11, naiveModel)
				if warmFirst {
					idxDisp = WarmFirstDispatcher(idxDisp, idxPools, idxModel)
					naiveDisp = WarmFirstDispatcher(naiveDisp, naivePools, naiveModel)
				}

				candidates := make([]int, servers)
				for s := range candidates {
					candidates[s] = s
				}
				rng := rand.New(rand.NewSource(5))
				now := time.Duration(0)
				for i := 0; i < 5000; i++ {
					now += time.Duration(rng.Intn(4)) * time.Millisecond
					if rng.Intn(50) == 0 {
						now += time.Duration(rng.Intn(300)) * time.Millisecond
					}
					inv := workload.Invocation{
						FuncID:   rng.Intn(12) + 1,
						Arrival:  now,
						Duration: time.Duration(rng.Intn(60)) * time.Millisecond,
						MemMB:    128,
					}
					a := idxDisp.Pick(inv, candidates)
					b := naiveDisp.Pick(inv, candidates)
					if a != b {
						t.Fatalf("arrival %d at %v: indexed pick %d, naive pick %d", i, now, a, b)
					}
					book(idxModel, idxPools, a, inv, cfg)
					book(naiveModel, naivePools, b, inv, cfg)
				}
			})
		}
	}
}

// TestLoadIndexLazyBuild pins the materialize-on-first-read contract:
// bookings before any indexed read leave the index unbuilt (no
// maintenance cost), and the first read — at an arbitrary mid-run
// instant, over lanes in every state — must reconstruct exactly the
// answers the naive scans give, then keep matching through further
// bookings.
func TestLoadIndexLazyBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		const servers, cores = 19, 3
		m := NewFleetModel(servers, cores)
		candidates := make([]int, servers)
		for s := range candidates {
			candidates[s] = s
		}
		now := time.Duration(0)
		step := func() {
			now += time.Duration(rng.Intn(6)) * time.Millisecond
			for k := rng.Intn(3); k >= 0; k-- {
				s := candidates[rng.Intn(servers)]
				m.AssignDemand(s, now, time.Duration(rng.Intn(25))*time.Millisecond)
			}
		}
		for i := 0; i < 500; i++ {
			step()
		}
		if m.idx != nil {
			t.Fatal("index materialized without an indexed read")
		}
		for i := 0; i < 500; i++ {
			step()
			ix := m.index(now)
			if got, ok := ix.leastLoaded(); !ok || got != naiveLeastLoaded(m, candidates, now) {
				t.Fatalf("seed %d step %d: indexed least-loaded %d (ok=%v), linear %d",
					seed, i, got, ok, naiveLeastLoaded(m, candidates, now))
			}
			idxIdle, ok := ix.longestIdle()
			if !ok {
				idxIdle = -1
			}
			if want := naiveLongestIdle(m, candidates, now); idxIdle != want {
				t.Fatalf("seed %d step %d: indexed longest-idle %d, linear %d", seed, i, idxIdle, want)
			}
			if got, want := m.EligibleBusyLanes(now), busySum(m, candidates, now); got != want {
				t.Fatalf("seed %d step %d: EligibleBusyLanes=%d, linear=%d", seed, i, got, want)
			}
		}
	}
}

func mustDispatcher(t *testing.T, d Dispatch, seed int64, m *FleetModel) Dispatcher {
	t.Helper()
	disp, err := NewDispatcher(d, seed, m)
	if err != nil {
		t.Fatal(err)
	}
	return disp
}

// book mirrors the routing loops' post-Pick bookkeeping.
func book(m *FleetModel, pools *WarmPools, s int, inv workload.Invocation, cfg ColdStartConfig) {
	if !cfg.Enabled() {
		m.Assign(s, inv)
		return
	}
	var cold time.Duration
	reuse := pools.Warm(s, inv, inv.Arrival)
	if reuse == nil {
		cold = cfg.Latency
	}
	finish := m.AssignDemand(s, inv.Arrival, inv.Duration+cold)
	if err := pools.Book(s, inv, inv.Arrival, finish, reuse); err != nil {
		panic(err)
	}
}
