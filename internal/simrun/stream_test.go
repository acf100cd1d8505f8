package simrun

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

func testInvocations(t *testing.T, n int) []workload.Invocation {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Minutes = 3
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := workload.Builder{}.Build(tr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Sample(invs, n)
}

// TestStreamMatchesMaterialized is the layer-local equivalence proof: the
// same workload driven through Exec (everything pre-seeded, Collect at the
// end) and through ExecStream (lazy admission, completion sink) must
// produce bit-for-bit identical records, makespans, and core counters —
// for a tick-driven preempting policy (CFS) and a tickless one (FIFO).
func TestStreamMatchesMaterialized(t *testing.T) {
	invs := testInvocations(t, 400)
	policies := map[string]func() ghost.Policy{
		"cfs":  func() ghost.Policy { return cfs.New(cfs.Params{}) },
		"fifo": func() ghost.Policy { return fifo.New(fifo.Config{}) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			kcfg := simkern.DefaultConfig(4)
			mat, err := Exec(kcfg, mk(), ghost.Config{}, AddTasks(workload.Tasks(invs)))
			if err != nil {
				t.Fatal(err)
			}
			want := metrics.Collect(mat)

			var got metrics.Set
			src, stop := PooledTasks(workload.SliceSource(invs), workload.NewTaskPool())
			defer stop()
			st, err := ExecStream(kcfg, mk(), ghost.Config{}, src, StreamConfig{Sink: &got})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got.Records, func(i, j int) bool { return got.Records[i].ID < got.Records[j].ID })

			if len(got.Records) != len(want.Records) {
				t.Fatalf("streamed %d records, materialized %d", len(got.Records), len(want.Records))
			}
			for i := range want.Records {
				if got.Records[i] != want.Records[i] {
					t.Fatalf("record %d differs:\nstreamed    %+v\nmaterialized %+v", i, got.Records[i], want.Records[i])
				}
			}
			if st.Makespan() != mat.Makespan() {
				t.Errorf("makespan %v != %v", st.Makespan(), mat.Makespan())
			}
			for c := 0; c < kcfg.Cores; c++ {
				id := simkern.CoreID(c)
				if st.CorePreemptions(id) != mat.CorePreemptions(id) || st.CoreSwitches(id) != mat.CoreSwitches(id) {
					t.Errorf("core %d counters diverge", c)
				}
			}
		})
	}
}

// TestStreamRecyclesThroughPool: with a pool attached, the streamed run
// must complete with far fewer live task structs than invocations — the
// memory bound the streaming dataflow exists for.
func TestStreamRecyclesThroughPool(t *testing.T) {
	invs := testInvocations(t, 600)
	pool := workload.NewTaskPool()
	acc := metrics.NewAccumulator(pricing.Default())
	src, stop := PooledTasks(workload.SliceSource(invs), pool)
	defer stop()
	_, err := ExecStream(simkern.DefaultConfig(4), cfs.New(cfs.Params{}), ghost.Config{}, src,
		StreamConfig{Sink: acc, Recycle: func(task *simkern.Task) { pool.Put(task) }})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Completed() != len(invs) {
		t.Fatalf("accumulator saw %d completions, want %d", acc.Completed(), len(invs))
	}
	// Every retired struct ends up pooled; the pool's high-water mark is
	// the run's peak concurrency, which must be far below the total.
	if free := pool.FreeLen(); free == 0 || free >= len(invs)/2 {
		t.Errorf("pool free list = %d of %d tasks; recycling is not bounding memory", free, len(invs))
	}
}

// TestStreamConfigValidation covers the error paths.
func TestStreamConfigValidation(t *testing.T) {
	empty := func() (*simkern.Task, bool) { return nil, false }
	if _, err := ExecStream(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, empty, StreamConfig{}); err == nil {
		t.Error("missing sink accepted")
	}
	var set metrics.Set
	if _, err := ExecStream(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, empty,
		StreamConfig{Sink: &set, Window: -time.Second}); err == nil {
		t.Error("negative window accepted")
	}
	// An out-of-order source must surface as an error, not a hang.
	bad := makeTasks([]time.Duration{time.Second, 500 * time.Millisecond})
	if _, err := ExecStream(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, bad,
		StreamConfig{Sink: &set}); err == nil {
		t.Error("out-of-order source accepted")
	}
}

func makeTasks(arrivals []time.Duration) TaskSource {
	i := 0
	return func() (*simkern.Task, bool) {
		if i >= len(arrivals) {
			return nil, false
		}
		i++
		return &simkern.Task{
			ID:      simkern.TaskID(i),
			Kind:    simkern.KindFunction,
			Arrival: arrivals[i-1],
			Work:    time.Millisecond,
		}, true
	}
}

// idlePolicy hears every message and dispatches nothing.
type idlePolicy struct{}

func (idlePolicy) Name() string            { return "idle" }
func (idlePolicy) Attach(*ghost.Env)       {}
func (idlePolicy) OnMessage(ghost.Message) {}

// TestUndispatchedTaskReportsUnfinished: a policy that never dispatches
// must surface as the drivers' unfinished-task error, not a run that
// never returns.
func TestUndispatchedTaskReportsUnfinished(t *testing.T) {
	invs := testInvocations(t, 3)
	done := make(chan error, 2)
	go func() {
		_, err := Exec(simkern.DefaultConfig(1), idlePolicy{}, ghost.Config{}, AddTasks(workload.Tasks(invs)))
		done <- err
	}()
	go func() {
		inc, err := NewIncremental(simkern.DefaultConfig(1), idlePolicy{}, ghost.Config{}, &metrics.Set{})
		if err == nil {
			err = inc.Admit(inc.Pool().Get(invs[0], 1))
		}
		if err == nil {
			err = inc.Drain()
		}
		done <- err
	}()
	for range 2 {
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "unfinished") {
				t.Errorf("err = %v, want an unfinished-task error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run with an undispatched task did not return")
		}
	}
}
