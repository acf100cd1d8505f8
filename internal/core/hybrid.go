// Package core implements the paper's primary contribution (§IV): a hybrid
// two-level scheduler that splits the enclave into two CPU core groups.
//
// The short-task group runs a centralized FIFO policy: tasks enter a global
// queue and run to completion — unless their consumed CPU time exceeds the
// preemption time limit, in which case they are preempted and spilled
// round-robin onto the long-task group, which runs per-core CFS.
//
// Two provider-side mechanisms keep utilization high (§IV-B):
//
//   - Dynamic time limits: the most recent 100 completed task durations are
//     kept in a sliding window, and the limit is a configurable percentile
//     of that window.
//   - CPU-group rightsizing: a monitor compares the windowed average
//     utilization of the two groups and migrates one core across when the
//     gap exceeds a threshold, using the paper's lock → preempt → migrate
//     tasks → switch policy → unlock protocol.
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/stats"
)

// Defaults for the hybrid scheduler.
const (
	// DefaultStaticLimit is the paper's headline FIFO preemption limit:
	// 1,633 ms, the 90th percentile of its workload's durations (§II-E).
	DefaultStaticLimit = 1633 * time.Millisecond
	// DefaultWindowSize matches "we keep the most recent 100 function
	// durations" (§IV-B).
	DefaultWindowSize = 100
	// DefaultTick is the global agent's time-limit scan period.
	DefaultTick = time.Millisecond
	// DefaultMonitorEvery is the utilization monitor period.
	DefaultMonitorEvery = time.Second
	// DefaultMigrationDelay models the locking and task-shuffling cost of
	// moving a core between groups ("it adds additional locking and short
	// delays", §VI-C).
	DefaultMigrationDelay = 200 * time.Microsecond
	// DefaultRightsizeThreshold is the utilization gap that triggers a
	// core migration.
	DefaultRightsizeThreshold = 0.15
	// DefaultRightsizeCooldown spaces consecutive migrations.
	DefaultRightsizeCooldown = 2 * time.Second
	// minAdaptiveSamples gates the adaptive limit until the window has
	// seen enough completions; before that the static limit applies
	// (Fig 16: "at the beginning, the time limit is still set as 1,633 ms").
	minAdaptiveSamples = 10
)

// TimeLimitConfig selects between a static preemption limit and the
// sliding-window percentile adaptation of §IV-B.
type TimeLimitConfig struct {
	// Static is the fixed limit, and the bootstrap value in adaptive mode.
	// Zero defaults to DefaultStaticLimit.
	Static time.Duration
	// Percentile, when non-zero, enables adaptation: the limit becomes
	// this percentile (0 < p <= 1, e.g. 0.95) of the recent-durations
	// window.
	Percentile float64
	// WindowSize is the sliding window capacity; zero defaults to
	// DefaultWindowSize.
	WindowSize int
}

// RightsizeConfig controls CPU-group rightsizing.
type RightsizeConfig struct {
	// Enabled turns the mechanism on.
	Enabled bool
	// Threshold is the inter-group utilization gap (0..1) that triggers a
	// migration; zero defaults to DefaultRightsizeThreshold.
	Threshold float64
	// Cooldown spaces migrations; zero defaults to DefaultRightsizeCooldown.
	Cooldown time.Duration
	// MinCores is the minimum size of each group; zero defaults to 1.
	MinCores int
}

// Config configures the hybrid scheduler.
type Config struct {
	// FIFOCores is the initial number of cores in the short-task (FIFO)
	// group; the remaining enclave cores form the CFS group. The paper's
	// best split is half/half (Fig 11).
	FIFOCores int
	// TimeLimit is the FIFO→CFS preemption limit policy.
	TimeLimit TimeLimitConfig
	// CFS tunes the long-task group's per-core CFS.
	CFS cfs.Params
	// Tick is the global agent's scan period; zero defaults to DefaultTick.
	Tick time.Duration
	// MonitorEvery is the utilization/limit monitor period; zero defaults
	// to DefaultMonitorEvery. The monitor runs only when Rightsize is
	// enabled or the kernel records utilization (simkern.Config.RecordUtil);
	// otherwise nothing reads it and no monitor timer is armed
	// (DESIGN.md §17).
	MonitorEvery time.Duration
	// MigrationDelay is the modeled cost of moving a core between groups;
	// zero defaults to DefaultMigrationDelay.
	MigrationDelay time.Duration
	// Rightsize controls dynamic core-group resizing.
	Rightsize RightsizeConfig
	// AuxToCFS routes microVM housekeeping threads (VMM boot, IO) directly
	// to the CFS group instead of through the FIFO queue, implementing the
	// paper's §VII-4 future-work idea ("the internal threads of the
	// microVM need to be scheduled according to different policies"): the
	// FIFO group's run-to-completion slots are reserved for latency- and
	// billing-critical function work.
	AuxToCFS bool
}

func (c Config) withDefaults() Config {
	if c.TimeLimit.Static == 0 {
		c.TimeLimit.Static = DefaultStaticLimit
	}
	if c.TimeLimit.WindowSize == 0 {
		c.TimeLimit.WindowSize = DefaultWindowSize
	}
	if c.Tick == 0 {
		c.Tick = DefaultTick
	}
	if c.MonitorEvery == 0 {
		c.MonitorEvery = DefaultMonitorEvery
	}
	if c.MigrationDelay == 0 {
		c.MigrationDelay = DefaultMigrationDelay
	}
	if c.Rightsize.Threshold == 0 {
		c.Rightsize.Threshold = DefaultRightsizeThreshold
	}
	if c.Rightsize.Cooldown == 0 {
		c.Rightsize.Cooldown = DefaultRightsizeCooldown
	}
	if c.Rightsize.MinCores == 0 {
		c.Rightsize.MinCores = 1
	}
	return c
}

// Validate checks cfg against the enclave size it will be attached to.
func (c Config) Validate(totalCores int) error {
	if c.FIFOCores < 1 {
		return fmt.Errorf("core: FIFOCores must be >= 1, got %d", c.FIFOCores)
	}
	if c.FIFOCores >= totalCores {
		return fmt.Errorf("core: FIFOCores %d leaves no CFS cores (enclave has %d)",
			c.FIFOCores, totalCores)
	}
	if p := c.TimeLimit.Percentile; p < 0 || p > 1 {
		return fmt.Errorf("core: TimeLimit.Percentile %v out of (0,1]", p)
	}
	if c.TimeLimit.Static < 0 {
		return fmt.Errorf("core: negative static time limit %v", c.TimeLimit.Static)
	}
	return nil
}

// Hybrid is the two-group scheduler. It implements ghost.Policy and
// ghost.Ticker.
//
// A task's group is read from its CFS record, not kept in a table: the
// CFS engine attaches the record to Task.PolicyData on the task's first
// enqueue there and releases it at TASK_DEAD or eviction, and the FIFO
// engine never touches PolicyData. So cfs.Owns(t) holds exactly while t
// is in the CFS group, and any other task the hybrid has admitted and not
// yet retired is in the FIFO group.
//
// The FIFO lane's time-limit crossings are cached per core (see
// NextDecision): an entry holds while its runner keeps the core, and the
// hybrid drops it wherever a runner leaves a FIFO core — TASK_DEAD, its
// own preempts, evictions and core migrations — so a task struct that
// comes back to the same core (a retry, or a recycled struct carrying a
// new invocation) never reads its old segment's crossing.
type Hybrid struct {
	cfg Config
	env *ghost.Env

	fifoEng fifo.Engine
	cfsEng  cfs.Engine

	limit   time.Duration
	window  *stats.Window // nil unless the limit adapts (Percentile > 0)
	rrSpill int           // round-robin cursor over CFS cores for spills

	monitorOn bool
	// monitorFn is the persistent monitor callback (no per-period
	// closure). It stays nil — and the monitor off — unless rightsizing
	// or a recording kernel reads the monitor.
	monitorFn     func()
	lastMigration time.Duration
	migrating     bool

	spills int64 // tasks preempted FIFO→CFS

	lane []laneEntry // indexed by CoreID; meaningful on FIFO cores only
	// laneQuiet is an instant before which no FIFO runner reaches the
	// limit, so OnTick may skip enforceLimit's scan. NextDecision sets it;
	// every call that can change the FIFO runners, the limit or the
	// groups resets it to 0 (scan), so the skip holds even where nothing
	// re-evaluates the horizon before the next tick (the naive pump never
	// does).
	laneQuiet time.Duration
	laneCheck func(error)

	limitSeries     stats.Series
	fifoUtilSeries  stats.Series
	cfsUtilSeries   stats.Series
	fifoCountSeries stats.Series
}

// laneEntry caches when a FIFO core's runner reaches the time limit. A
// runner's consumption at dispatch and its segment start are fixed until
// it leaves the core, so the crossing is fixed for as long as the runner
// and the limit it was computed for are.
type laneEntry struct {
	task  *simkern.Task
	limit time.Duration
	cross time.Duration
}

var (
	_ ghost.Policy        = (*Hybrid)(nil)
	_ ghost.HorizonTicker = (*Hybrid)(nil)
	_ ghost.TaskEvictor   = (*Hybrid)(nil)
)

// New returns a hybrid scheduler. Call Config.Validate against the target
// enclave size first; Attach clamps silently otherwise.
func New(cfg Config) *Hybrid {
	cfg = cfg.withDefaults()
	h := &Hybrid{
		cfg:             cfg,
		limit:           cfg.TimeLimit.Static,
		limitSeries:     stats.MakeSeries("time-limit"),
		fifoUtilSeries:  stats.MakeSeries("fifo-util"),
		cfsUtilSeries:   stats.MakeSeries("cfs-util"),
		fifoCountSeries: stats.MakeSeries("fifo-cores"),
	}
	if cfg.TimeLimit.Percentile > 0 {
		h.window = stats.NewWindow(cfg.TimeLimit.WindowSize)
	}
	return h
}

// Name implements ghost.Policy.
func (h *Hybrid) Name() string { return "hybrid" }

// Attach implements ghost.Policy: cores [0, FIFOCores) form the FIFO
// group, the rest the CFS group.
func (h *Hybrid) Attach(env *ghost.Env) {
	h.env = env
	total := env.Cores()
	nf := h.cfg.FIFOCores
	if nf < 1 {
		nf = 1
	}
	if nf >= total {
		nf = total - 1
	}
	h.lane = make([]laneEntry, total)
	h.fifoEng.Init(env, 0, simkern.CoreID(nf), 0 /* run-to-completion */)
	h.cfsEng.Init(env, simkern.CoreID(nf), simkern.CoreID(total), h.cfg.CFS)
	if h.cfg.Rightsize.Enabled {
		env.RegisterUtilReader() // rightsizing reads the sampler
	} else if !env.RecordsUtil() {
		return // nothing reads the monitor
	}
	h.monitorFn = func() {
		h.monitor()
		if h.env.Outstanding() > 0 {
			h.scheduleMonitor()
		} else {
			h.monitorOn = false
		}
	}
}

// OnMessage implements ghost.Policy.
func (h *Hybrid) OnMessage(m ghost.Message) {
	h.laneQuiet = 0
	switch m.Type {
	case ghost.MsgTaskNew:
		if h.cfg.AuxToCFS && isAuxThread(m.Task) {
			// §VII-4 extension: microVM housekeeping bypasses the FIFO
			// queue and lands on the long-task group directly.
			h.cfsEng.Enqueue(m.Task)
			h.ensureMonitor()
			return
		}
		// Every function task starts in the short-task group (§IV-A:
		// "tasks are first directed to the global queue of the [FIFO]
		// group").
		h.fifoEng.Enqueue(m.Task)
		h.ensureMonitor()
	case ghost.MsgTaskDead:
		h.recordCompletion(m.Task)
		// Test ownership before TaskDead releases the record.
		if cfs.Owns(m.Task) {
			h.cfsEng.TaskDead(m.Task, m.Core)
		} else {
			if h.lane[m.Core].task == m.Task {
				h.lane[m.Core] = laneEntry{}
			}
			h.fifoEng.TaskDead()
		}
	}
}

// EvictTask implements ghost.TaskEvictor: the owning engine dequeues or
// preempts t. A task that is dead, or whose completion is in flight, is
// neither queued nor running, so the FIFO engine reports false for it.
// The killed task does NOT feed the adaptive-limit window —
// recordCompletion sees real completions only, so fault-injected kills
// cannot skew the limit.
func (h *Hybrid) EvictTask(t *simkern.Task) bool {
	h.laneQuiet = 0
	if cfs.Owns(t) {
		return h.cfsEng.Evict(t)
	}
	if c := t.Core(); c != simkern.NoCore {
		h.lane[c] = laneEntry{}
	}
	return h.fifoEng.Evict(t)
}

// isAuxThread reports whether t is microVM housekeeping rather than
// function work.
func isAuxThread(t *simkern.Task) bool {
	return t.Kind == simkern.KindVMM || t.Kind == simkern.KindIO
}

// recordCompletion feeds the sliding window behind the adaptive limit; a
// static limit keeps no window. Only function-like work counts; microVM
// housekeeping threads would skew the duration distribution.
func (h *Hybrid) recordCompletion(t *simkern.Task) {
	if h.window == nil || (t.Kind != simkern.KindFunction && t.Kind != simkern.KindVCPU) {
		return
	}
	h.window.Add(float64(t.CPUConsumed()) / float64(time.Millisecond))
	if h.window.Len() >= minAdaptiveSamples {
		if v, ok := h.window.Percentile(h.cfg.TimeLimit.Percentile); ok {
			h.limit = time.Duration(v * float64(time.Millisecond))
		}
	}
}

// TickEvery implements ghost.Ticker.
func (h *Hybrid) TickEvery() time.Duration { return h.cfg.Tick }

// OnTick implements ghost.Ticker: enforce the FIFO time limit, then let
// the CFS group's per-core agents run their slice checks.
func (h *Hybrid) OnTick() {
	h.enforceLimit()
	h.cfsEng.Tick()
}

// NextDecision implements ghost.HorizonTicker: the earliest instant at
// which OnTick could act, composed from the CFS engine's slice-expiry
// horizon and the FIFO lane's. A kernel-idle FIFO core next to a
// non-empty global queue dispatches at the very next boundary (Dispatch
// reads kernel state, so a completion whose TASK_DEAD is still in flight
// already frees the core — the enclave re-evaluates at the completion
// instant to catch exactly that). A FIFO-group runner reaches the time
// limit once it consumes limit − consumed-at-dispatch more CPU: at
// segment start + Interference.Advance over that remainder, an instant
// fixed for the segment and exact under host interference as well as
// without it. Each FIFO core caches its runner's crossing, keyed by
// runner and limit, so a re-evaluation reads only each core's runner
// pointer; the earliest crossing also tells OnTick when it may skip the
// limit scan.
func (h *Hybrid) NextDecision(now time.Duration) (time.Duration, bool) {
	best, found := h.cfsEng.NextDecision(now)
	cross, ok := h.fifoLane(now)
	if ok && (!found || cross < best) {
		best, found = cross, true
	}
	if h.laneCheck != nil {
		h.laneCheck(h.auditLane())
	}
	return best, found
}

// fifoLane returns the FIFO lane's horizon (see NextDecision), or ok=false
// when no FIFO core can act, and records the lane's earliest crossing in
// laneQuiet.
func (h *Hybrid) fifoLane(now time.Duration) (time.Duration, bool) {
	h.laneQuiet = 0
	queued := h.fifoEng.QueueLen() > 0
	best, found := time.Duration(math.MaxInt64), false
	for _, c := range h.fifoEng.Cores() {
		t := h.env.RunningTask(c)
		if t == nil {
			if queued {
				return now, true
			}
			continue
		}
		e := &h.lane[c]
		if e.task != t || e.limit != h.limit {
			if cfs.Owns(t) {
				continue // migration leftover from the CFS group; not ours to limit
			}
			*e = laneEntry{task: t, limit: h.limit, cross: h.crossing(t, h.limit)}
		}
		if e.cross < best {
			best, found = e.cross, true
		}
	}
	h.laneQuiet = best
	return max(best, now), found
}

// crossing returns when FIFO runner t reaches limit; 0 when it had
// already consumed limit at dispatch.
func (h *Hybrid) crossing(t *simkern.Task, limit time.Duration) time.Duration {
	if t.CPUConsumed() >= limit {
		return 0
	}
	return h.env.CPUReachedAt(t, limit)
}

// SetLaneCheck installs a verification hook for tests: after every
// re-evaluation the hybrid audits its crossing cache, and at every tick
// that skips the limit scan it audits the skip, passing fn the first
// fault found, or nil. Nil removes the hook.
func (h *Hybrid) SetLaneCheck(fn func(error)) { h.laneCheck = fn }

// auditLane checks every cache entry against the kernel: an entry may sit
// only on a FIFO core, and its task must still run there — with the
// crossing a from-scratch computation gives for the entry's limit — or
// have finished with its TASK_DEAD not yet handled. Anything else is an
// entry that outlived its segment, which a returning task struct would
// read as its own.
func (h *Hybrid) auditLane() error {
	for i, e := range h.lane {
		if e.task == nil {
			continue
		}
		c := simkern.CoreID(i)
		fifoCore := false
		for _, fc := range h.fifoEng.Cores() {
			fifoCore = fifoCore || fc == c
		}
		switch t := e.task; {
		case !fifoCore:
			return fmt.Errorf("core %d left the FIFO group but still caches task %d", c, t.ID)
		case t.State() == simkern.StateFinished:
		case t.State() != simkern.StateRunning || t.Core() != c:
			return fmt.Errorf("core %d caches task %d, which is %v on core %d", c, t.ID, t.State(), t.Core())
		case e.cross != h.crossing(t, e.limit):
			return fmt.Errorf("core %d caches crossing %v for task %d, from scratch %v",
				c, e.cross, t.ID, h.crossing(t, e.limit))
		}
	}
	return nil
}

// enforceLimit preempts FIFO-group runners whose consumed CPU exceeds the
// current limit and spills them round-robin across the CFS cores, then
// dispatches queued work. Before the lane's earliest crossing no runner
// can be over the limit, so the scan is skipped; under the lane-check
// hook the skip is audited.
func (h *Hybrid) enforceLimit() {
	if h.env.Now() >= h.laneQuiet {
		for _, c := range h.fifoEng.Cores() {
			if h.overLimit(c) == nil {
				continue
			}
			got, err := h.env.CommitPreempt(c)
			if err != nil {
				continue // completion in flight
			}
			h.lane[c] = laneEntry{}
			h.spill(got)
		}
	} else if h.laneCheck != nil {
		h.laneCheck(h.auditSkip())
	}
	h.laneQuiet = 0
	h.fifoEng.Dispatch()
}

// overLimit returns FIFO core c's runner if the time limit governs it and
// it has consumed the limit, else nil.
func (h *Hybrid) overLimit(c simkern.CoreID) *simkern.Task {
	t := h.env.RunningTask(c)
	if t == nil || cfs.Owns(t) || h.env.TaskCPUConsumed(t) < h.limit {
		return nil
	}
	return t
}

// auditSkip checks a skipped limit scan: the scan would have found no
// runner over the limit.
func (h *Hybrid) auditSkip() error {
	for _, c := range h.fifoEng.Cores() {
		if t := h.overLimit(c); t != nil {
			return fmt.Errorf("limit scan skipped until %v, but task %d on core %d is over the limit", h.laneQuiet, t.ID, c)
		}
	}
	return nil
}

// spill hands an expired task to the CFS group, round-robin over its cores.
func (h *Hybrid) spill(t *simkern.Task) {
	cfsCores := h.cfsEng.Cores()
	if len(cfsCores) == 0 {
		// Should not happen (MinCores >= 1); requeue rather than lose it.
		h.fifoEng.Enqueue(t)
		return
	}
	target := cfsCores[h.rrSpill%len(cfsCores)]
	h.rrSpill++
	h.spills++
	h.cfsEng.EnqueueOn(target, t)
}

// Spills returns how many tasks were preempted from the FIFO group into
// the CFS group.
func (h *Hybrid) Spills() int64 { return h.spills }

// CurrentLimit returns the preemption time limit in force.
func (h *Hybrid) CurrentLimit() time.Duration { return h.limit }

// FIFOCores returns the current FIFO group.
func (h *Hybrid) FIFOCores() []simkern.CoreID { return h.fifoEng.Cores() }

// CFSCores returns the current CFS group.
func (h *Hybrid) CFSCores() []simkern.CoreID { return h.cfsEng.Cores() }

// The four monitor series below are recorded only on a kernel built with
// simkern.Config.RecordUtil (the utilization-over-time figures' switch);
// otherwise they stay empty but usable.

// LimitSeries returns the recorded (time, limit-in-ms) monitor series.
func (h *Hybrid) LimitSeries() *stats.Series { return &h.limitSeries }

// FIFOUtilSeries returns the FIFO group's average-utilization series.
func (h *Hybrid) FIFOUtilSeries() *stats.Series { return &h.fifoUtilSeries }

// CFSUtilSeries returns the CFS group's average-utilization series.
func (h *Hybrid) CFSUtilSeries() *stats.Series { return &h.cfsUtilSeries }

// FIFOCountSeries returns the recorded (time, #FIFO cores) series.
func (h *Hybrid) FIFOCountSeries() *stats.Series { return &h.fifoCountSeries }

// ensureMonitor starts the periodic monitor loop on first arrival. It is a
// no-op when nothing reads the monitor (monitorFn is nil).
func (h *Hybrid) ensureMonitor() {
	if h.monitorOn || h.monitorFn == nil {
		return
	}
	h.monitorOn = true
	h.scheduleMonitor()
}

func (h *Hybrid) scheduleMonitor() {
	h.env.SetTimer(h.env.Now()+h.cfg.MonitorEvery, h.monitorFn)
}

// monitor records the group-utilization, limit, and core-count series
// (Figs 14, 16, 17, 19) on a recording kernel and drives rightsizing. It
// reads per-core utilization from the kernel's sampler — the stand-in for
// the paper's psutil daemon publishing through shared memory.
func (h *Hybrid) monitor() {
	now := h.env.Now()
	fifoUtil := h.groupUtil(h.fifoEng.Cores())
	cfsUtil := h.groupUtil(h.cfsEng.Cores())
	if h.env.RecordsUtil() {
		h.fifoUtilSeries.Append(now, fifoUtil)
		h.cfsUtilSeries.Append(now, cfsUtil)
		h.limitSeries.Append(now, float64(h.limit)/float64(time.Millisecond))
		h.fifoCountSeries.Append(now, float64(len(h.fifoEng.Cores())))
	}

	if !h.cfg.Rightsize.Enabled || h.migrating {
		return
	}
	if now-h.lastMigration < h.cfg.Rightsize.Cooldown {
		return
	}
	gap := fifoUtil - cfsUtil
	if gap < 0 {
		gap = -gap
	}
	if gap < h.cfg.Rightsize.Threshold {
		return
	}
	// Move a core from the under-utilized group to the overloaded one.
	// (The paper's prose says "from the highly-utilized group to the
	// under-utilized group", but taking a core away from the busy group
	// would worsen the imbalance; Fig 19's behavior — FIFO cores grow
	// when FIFO is the busy group — matches this direction.)
	if fifoUtil > cfsUtil {
		h.migrateCFSToFIFO(now)
	} else {
		h.migrateFIFOToCFS(now)
	}
}

func (h *Hybrid) groupUtil(cores []simkern.CoreID) float64 {
	if len(cores) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cores {
		sum += h.env.UtilLast(c)
	}
	return sum / float64(len(cores))
}

// migrateCFSToFIFO implements the paper's Fig 8 protocol: lock the core,
// preempt its runner, migrate its queue to the remaining CFS cores,
// switch the policy, unlock.
func (h *Hybrid) migrateCFSToFIFO(now time.Duration) {
	cfsCores := h.cfsEng.Cores()
	if len(cfsCores) <= h.cfg.Rightsize.MinCores {
		return
	}
	c := cfsCores[len(cfsCores)-1]
	// Lock + preempt + drain: RemoveCore returns the runner and queue.
	tasks := h.cfsEng.RemoveCore(c)
	// Redistribute to the remaining CFS cores, balancing queue sizes.
	for _, t := range tasks {
		h.cfsEng.Enqueue(t)
	}
	// Monitor timers bypass message dispatch, so the reshuffle above must
	// re-arm the elision pump explicitly.
	h.env.InvalidateHorizon()
	h.beginMigration(now, func() {
		h.fifoEng.AddCore(c) // dispatches queued FIFO work immediately
	})
}

// migrateFIFOToCFS moves one FIFO core to the CFS group. The runner, if
// any, is preempted and put back at the head of the global FIFO queue so
// it resumes on another FIFO core with its position preserved.
func (h *Hybrid) migrateFIFOToCFS(now time.Duration) {
	fifoCores := h.fifoEng.Cores()
	if len(fifoCores) <= h.cfg.Rightsize.MinCores {
		return
	}
	c := fifoCores[len(fifoCores)-1]
	h.laneQuiet = 0
	h.lane[c] = laneEntry{}
	h.fifoEng.RemoveCore(c)
	if t := h.env.RunningTask(c); t != nil && !cfs.Owns(t) {
		if got, err := h.env.CommitPreempt(c); err == nil {
			h.fifoEng.EnqueueFront(got)
		}
	}
	// Monitor timers bypass message dispatch, so the preempt/requeue above
	// must re-arm the elision pump explicitly.
	h.env.InvalidateHorizon()
	h.beginMigration(now, func() {
		h.cfsEng.AddCore(c)
		h.cfsEng.Tick() // let the new empty queue pull work immediately
	})
}

// beginMigration models the lock/unlock delay around a core migration.
func (h *Hybrid) beginMigration(now time.Duration, done func()) {
	h.migrating = true
	h.lastMigration = now
	h.env.NoteMigration()
	h.env.SetTimer(now+h.cfg.MigrationDelay, func() {
		h.migrating = false
		h.laneQuiet = 0
		done()
		// The unlock callback moved a core between groups (and may have
		// dispatched onto it) from a policy timer: re-arm the elision pump.
		h.env.InvalidateHorizon()
	})
}
