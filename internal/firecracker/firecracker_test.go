package firecracker

import (
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

func invocations(n int, iat, dur time.Duration, memMB int32) []workload.Invocation {
	out := make([]workload.Invocation, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, workload.Invocation{
			Arrival:  time.Duration(i) * iat,
			FibN:     36,
			Duration: dur,
			MemMB:    memMB,
		})
	}
	return out
}

// runFleet builds kernel+fleet+inner policy, launches invs, runs to
// completion, and returns (kernel, fleet).
func runFleet(t *testing.T, cores int, cfg Config, inner ghost.Policy, invs []workload.Invocation) (*simkern.Kernel, *Fleet) {
	t.Helper()
	k, err := simkern.New(simkern.Config{Cores: cores, SampleEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.NewEnclave(k, fleet, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Launch(k, invs); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	return k, fleet
}

func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(nil, Config{}); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewFleet(fifo.New(fifo.Config{}), Config{ServerMemMB: -1}); err == nil {
		t.Error("negative memory accepted")
	}
	bad := Config{VM: VMConfig{BootCPU: -time.Second, MinGuestMB: 1}}
	if _, err := NewFleet(fifo.New(fifo.Config{}), bad); err == nil {
		t.Error("negative boot cost accepted")
	}
}

func TestVMLifecycle(t *testing.T) {
	invs := invocations(5, 10*time.Millisecond, 50*time.Millisecond, 128)
	k, fleet := runFleet(t, 2, Config{}, fifo.New(fifo.Config{}), invs)
	if fleet.Name() == "" || !strings.Contains(fleet.Name(), "fifo") {
		t.Errorf("Name = %q", fleet.Name())
	}
	if fleet.Launched() != 5 || fleet.Failed() != 0 {
		t.Fatalf("launched=%d failed=%d", fleet.Launched(), fleet.Failed())
	}
	// 3 tasks per VM, all finished.
	if k.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", k.Outstanding())
	}
	if got := len(k.Tasks()); got != 15 {
		t.Fatalf("kernel saw %d tasks, want 15 (boot+vcpu+io per VM)", got)
	}
	// The vCPU thread starts only after its VM's boot task completes.
	for _, task := range k.Tasks() {
		if task.Kind != simkern.KindVCPU {
			continue
		}
		bootID := simkern.TaskID(3*task.VMID + 1)
		var boot *simkern.Task
		for _, cand := range k.Tasks() {
			if cand.ID == bootID {
				boot = cand
				break
			}
		}
		if boot == nil {
			t.Fatal("missing boot task")
		}
		if task.Arrival < boot.Finish() {
			t.Errorf("vm %d vcpu started at %v before boot finished at %v",
				task.VMID, task.Arrival, boot.Finish())
		}
	}
}

func TestGuestOverheadAddsToVCPUWork(t *testing.T) {
	cfg := Config{VM: VMConfig{
		BootCPU:       20 * time.Millisecond,
		GuestOverhead: 7 * time.Millisecond,
		IOWork:        time.Millisecond,
		VMMOverheadMB: 48,
		MinGuestMB:    128,
	}}
	invs := invocations(1, 0, 100*time.Millisecond, 128)
	k, _ := runFleet(t, 1, cfg, fifo.New(fifo.Config{}), invs)
	for _, task := range k.Tasks() {
		if task.Kind == simkern.KindVCPU && task.Work != 107*time.Millisecond {
			t.Errorf("vcpu work = %v, want 107ms", task.Work)
		}
	}
}

func TestMemoryWallFailsLaunches(t *testing.T) {
	// Server fits exactly 3 VMs of (128+48)MB = 176MB: budget 550MB.
	cfg := Config{ServerMemMB: 550}
	invs := invocations(5, time.Millisecond, 20*time.Millisecond, 128)
	k, fleet := runFleet(t, 2, cfg, fifo.New(fifo.Config{}), invs)
	if fleet.Launched() != 3 {
		t.Errorf("launched = %d, want 3", fleet.Launched())
	}
	if fleet.Failed() != 2 {
		t.Errorf("failed = %d, want 2", fleet.Failed())
	}
	if fleet.PeakMemMB() != 3*176 {
		t.Errorf("peak mem = %d, want %d", fleet.PeakMemMB(), 3*176)
	}
	set := metrics.Collect(k)
	if set.FailedCount() != 2 {
		t.Errorf("failed records = %d, want 2", set.FailedCount())
	}
	if len(set.Completed()) != 3 {
		t.Errorf("completed records = %d, want 3", len(set.Completed()))
	}
}

func TestFleetUnderCFS(t *testing.T) {
	// The fleet must work with a ticking inner policy (CFS).
	invs := invocations(12, 5*time.Millisecond, 80*time.Millisecond, 256)
	k, fleet := runFleet(t, 4, Config{}, cfs.New(cfs.Params{}), invs)
	if fleet.Failed() != 0 {
		t.Fatalf("failed = %d", fleet.Failed())
	}
	set := metrics.Collect(k)
	if len(set.Records) != 12 {
		t.Fatalf("records = %d, want 12 (vCPU only)", len(set.Records))
	}
	for _, r := range set.Records {
		if r.FibN != 36 || r.MemMB != 256 {
			t.Errorf("record lost invocation fields: %+v", r)
		}
	}
}

func TestCapacityPlanning(t *testing.T) {
	fleet, err := NewFleet(fifo.New(fifo.Config{}), Config{ServerMemMB: 512 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	// (128+48)MB per VM → 512GB / 176MB ≈ 2978, the right ballpark for the
	// paper's 2,952-VM ceiling.
	got := fleet.Capacity(128)
	if got < 2800 || got < 1 || got > 3100 {
		t.Errorf("Capacity(128) = %d, want ~2978", got)
	}
	if fleet.Capacity(1) != fleet.Capacity(128) {
		t.Error("capacity should floor guest size at MinGuestMB")
	}
}
