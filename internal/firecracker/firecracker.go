// Package firecracker simulates the paper's microVM deployment mode
// (§VI-E): every function invocation launches a Firecracker microVM, and a
// microVM is not one schedulable entity but several — a VMM/boot thread,
// a vCPU thread running the guest kernel plus the function body, and an IO
// thread — all of which are placed under the enclave's scheduling policy
// ("we schedule all these threads under our custom ghOSt policies").
//
// The fleet also models the resource wall the paper hit: each microVM pins
// guest memory plus VMM overhead for the rest of the run, and once the
// server's memory is exhausted further launches fail ("some microVM
// instances fail to launch successfully because we run out of resources"
// — the paper capped out at 2,952 microVMs on a 512 GB machine). VMs stay
// resident after their function completes because that ceiling is a
// total over the experiment, not a concurrency level.
//
// Fleet wraps an inner scheduling policy: it intercepts the delegation
// message stream to run the VM lifecycle state machine and forwards
// everything else untouched, so any policy (CFS, FIFO, hybrid, ...) can
// schedule microVM threads unmodified.
package firecracker

import (
	"fmt"
	"math"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// VMConfig models one microVM's footprint.
type VMConfig struct {
	// BootCPU is the VMM thread's CPU demand to boot the microVM; the
	// vCPU thread only starts once boot completes. Firecracker reports
	// ~125 ms to start a microVM; the default models 50 ms of CPU within
	// that wall-clock figure.
	BootCPU time.Duration
	// GuestOverhead is added to the function's CPU demand inside the vCPU
	// thread (guest kernel work).
	GuestOverhead time.Duration
	// IOWork is the IO thread's CPU demand per invocation.
	IOWork time.Duration
	// VMMOverheadMB is memory consumed beyond the function's allocation.
	VMMOverheadMB int
	// MinGuestMB floors the guest memory size.
	MinGuestMB int
}

// DefaultVMConfig returns the calibration used by the Fig 21/22
// experiments.
func DefaultVMConfig() VMConfig {
	return VMConfig{
		BootCPU:       50 * time.Millisecond,
		GuestOverhead: 10 * time.Millisecond,
		IOWork:        5 * time.Millisecond,
		VMMOverheadMB: 48,
		MinGuestMB:    128,
	}
}

// Config configures a Fleet.
type Config struct {
	// ServerMemMB is the machine's memory budget; zero defaults to the
	// paper's 512 GB server.
	ServerMemMB int
	// VM is the per-VM footprint model.
	VM VMConfig
}

// DefaultServerMemMB matches the paper's 512 GB testbed.
const DefaultServerMemMB = 512 * 1024

func (c Config) withDefaults() Config {
	if c.ServerMemMB == 0 {
		c.ServerMemMB = DefaultServerMemMB
	}
	if c.VM == (VMConfig{}) {
		c.VM = DefaultVMConfig()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.ServerMemMB < 1 {
		return fmt.Errorf("firecracker: ServerMemMB must be >= 1, got %d", c.ServerMemMB)
	}
	if c.VM.BootCPU <= 0 || c.VM.GuestOverhead < 0 || c.VM.IOWork < 0 {
		return fmt.Errorf("firecracker: invalid VM thread costs %+v", c.VM)
	}
	if c.VM.VMMOverheadMB < 0 || c.VM.MinGuestMB < 1 {
		return fmt.Errorf("firecracker: invalid VM memory model %+v", c.VM)
	}
	return nil
}

// vmState tracks one microVM through its lifecycle.
type vmState struct {
	id    int
	memMB int
	boot  *simkern.Task
	vcpu  *simkern.Task
	io    *simkern.Task
}

// Fleet is the microVM lifecycle manager wrapped around an inner policy.
type Fleet struct {
	cfg   Config
	inner ghost.Policy
	env   *ghost.Env

	byBoot   map[simkern.TaskID]*vmState
	memUsed  int
	peakMem  int
	launched int
	failed   int
}

var (
	_ ghost.Policy = (*Fleet)(nil)
	_ ghost.Ticker = (*Fleet)(nil)
)

// NewFleet wraps inner with microVM lifecycle management.
func NewFleet(inner ghost.Policy, cfg Config) (*Fleet, error) {
	if inner == nil {
		return nil, fmt.Errorf("firecracker: nil inner policy")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Fleet{
		cfg:    cfg.withDefaults(),
		inner:  inner,
		byBoot: make(map[simkern.TaskID]*vmState),
	}, nil
}

// Name implements ghost.Policy.
func (f *Fleet) Name() string { return "firecracker+" + f.inner.Name() }

// Attach implements ghost.Policy.
func (f *Fleet) Attach(env *ghost.Env) {
	f.env = env
	f.inner.Attach(env)
}

// newVM builds microVM i's state for inv. Task IDs are assigned as 3·i+1
// (boot), 3·i+2 (vCPU), 3·i+3 (IO) so records remain traceable to
// invocations.
func (f *Fleet) newVM(i int, inv workload.Invocation) *vmState {
	guestMB := int(inv.MemMB)
	if guestMB < f.cfg.VM.MinGuestMB {
		guestMB = f.cfg.VM.MinGuestMB
	}
	vm := &vmState{
		id:    i,
		memMB: guestMB + f.cfg.VM.VMMOverheadMB,
		boot: &simkern.Task{
			ID:      simkern.TaskID(3*i + 1),
			Label:   fmt.Sprintf("vm%d-boot", i),
			Kind:    simkern.KindVMM,
			Arrival: inv.Arrival,
			Work:    f.cfg.VM.BootCPU,
			MemMB:   inv.MemMB,
			VMID:    i,
		},
		// The vCPU task is created up front so launch failures can
		// surface as failed function records, but it is only added to
		// the kernel when boot completes.
		vcpu: &simkern.Task{
			ID:    simkern.TaskID(3*i + 2),
			Label: fib.VMLabel(i, int(inv.FibN)),
			Kind:  simkern.KindVCPU,
			Work:  inv.Duration + f.cfg.VM.GuestOverhead,
			MemMB: inv.MemMB,
			FibN:  inv.FibN,
			VMID:  i,
		},
	}
	if f.cfg.VM.IOWork > 0 {
		vm.io = &simkern.Task{
			ID:    simkern.TaskID(3*i + 3),
			Label: fmt.Sprintf("vm%d-io", i),
			Kind:  simkern.KindIO,
			Work:  f.cfg.VM.IOWork,
			VMID:  i,
		}
	}
	f.byBoot[vm.boot.ID] = vm
	return vm
}

// maxVMs is the most microVMs one Launch starts: a vCPU record stores
// its microVM's index + 1 in an int32 (metrics.Record.VM).
const maxVMs = math.MaxInt32

// checkVMCount rejects a launch of n microVMs when the last one's index
// would not fit metrics.Record.VM.
func checkVMCount(n int) error {
	if n > maxVMs {
		return fmt.Errorf("firecracker: %d microVMs, above %d, the most a record's microVM index holds", n, maxVMs)
	}
	return nil
}

// Launch registers one microVM per invocation with the kernel: every VM
// state and its three thread tasks exist before the clock starts.
func (f *Fleet) Launch(kernel *simkern.Kernel, invs []workload.Invocation) error {
	if err := checkVMCount(len(invs)); err != nil {
		return err
	}
	for i, inv := range invs {
		vm := f.newVM(i, inv)
		if err := kernel.AddTask(vm.boot); err != nil {
			return fmt.Errorf("firecracker: launch vm %d: %w", i, err)
		}
	}
	return nil
}

// OnMessage implements ghost.Policy: run the VM lifecycle, forward the
// rest.
func (f *Fleet) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		if vm, ok := f.byBoot[m.Task.ID]; ok && m.Task.Kind == simkern.KindVMM {
			if !f.admit(vm) {
				return // launch failed; nothing reaches the inner policy
			}
		}
	case ghost.MsgTaskDead:
		if vm, ok := f.byBoot[m.Task.ID]; ok && m.Task.Kind == simkern.KindVMM {
			f.booted(vm)
		}
	}
	f.inner.OnMessage(m)
}

// admit reserves memory for vm; on exhaustion the launch fails: the boot
// task is aborted and the never-to-run vCPU task surfaces as a failed
// invocation (the paper's horizontal CDF offset): it is registered and
// aborted, so metrics.Collect reports it. Aborted tasks emit no TASK_DEAD,
// so the fleet needs a task-retaining kernel (Launch's pre-seeded run),
// not a driver that retires records from TASK_DEAD messages.
func (f *Fleet) admit(vm *vmState) bool {
	if f.memUsed+vm.memMB > f.cfg.ServerMemMB {
		f.failed++
		_ = f.env.AbortTask(vm.boot)
		vm.vcpu.Arrival = vm.boot.Arrival
		if err := f.env.AddTask(vm.vcpu); err == nil {
			_ = f.env.AbortTask(vm.vcpu)
		}
		return false
	}
	f.memUsed += vm.memMB
	if f.memUsed > f.peakMem {
		f.peakMem = f.memUsed
	}
	f.launched++
	return true
}

// booted releases the guest threads once the VMM finishes booting.
func (f *Fleet) booted(vm *vmState) {
	vm.vcpu.Arrival = f.env.Now()
	if err := f.env.AddTask(vm.vcpu); err != nil {
		// Unreachable in-sim; surface loudly in tests.
		panic(fmt.Sprintf("firecracker: add vcpu for vm %d: %v", vm.id, err))
	}
	if vm.io != nil {
		vm.io.Arrival = f.env.Now()
		if err := f.env.AddTask(vm.io); err != nil {
			panic(fmt.Sprintf("firecracker: add io for vm %d: %v", vm.id, err))
		}
	}
}

// TickEvery implements ghost.Ticker by delegating to the inner policy.
// The fleet forwards the ticks itself, and has no Unwrap (ghost.Wrapper):
// it aborts refused launches, so the inner policy's tick horizon must stay
// hidden from the enclave (ghost.HorizonTicker).
func (f *Fleet) TickEvery() time.Duration {
	if t, ok := f.inner.(ghost.Ticker); ok {
		return t.TickEvery()
	}
	return 0
}

// OnTick implements ghost.Ticker by delegating to the inner policy.
func (f *Fleet) OnTick() {
	if t, ok := f.inner.(ghost.Ticker); ok {
		t.OnTick()
	}
}

// Launched returns the number of microVMs that got memory.
func (f *Fleet) Launched() int { return f.launched }

// Failed returns the number of microVM launches refused for lack of
// memory.
func (f *Fleet) Failed() int { return f.failed }

// PeakMemMB returns the peak reserved memory.
func (f *Fleet) PeakMemMB() int { return f.peakMem }

// Capacity returns how many average-size microVMs fit in ServerMemMB given
// an average guest size — a planning helper for experiments.
func (f *Fleet) Capacity(avgGuestMB int) int {
	if avgGuestMB < f.cfg.VM.MinGuestMB {
		avgGuestMB = f.cfg.VM.MinGuestMB
	}
	return f.cfg.ServerMemMB / (avgGuestMB + f.cfg.VM.VMMOverheadMB)
}
