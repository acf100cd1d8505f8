// Package simrun wires one simulated machine together — kernel, delegation
// enclave, work — and runs it. It has two drivers. ExecStats seeds every
// task before the clock starts and runs the machine to completion; it is
// the driver behind the facade's Simulate and the experiments' per-core
// analyses, which read the whole kernel afterwards, and the pre-seeded
// oracle the fleet engine is tested against. Incremental admits tasks
// under external watermarks and retires records into a sink; it is the
// fleet engine's per-server driver, and a streamed single-machine run is
// a one-server fleet. The run protocol (enclave before work, drain fully,
// fail on unfinished tasks) is the same in both.
package simrun

import (
	"fmt"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/simkern"
)

// ExecStats builds a kernel from kcfg, attaches policy through a
// delegation enclave, seeds work with add, and processes events until the
// machine drains. It errors if any task is left unfinished. The enclave's
// delegation counters are snapshotted into stats (when non-nil) after the
// run. The returned kernel keeps every task unless kcfg.DiscardTasks, so
// metrics.Collect and the per-core counters can read it.
func ExecStats(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, add func(*simkern.Kernel) error, stats *ghost.Stats) (*simkern.Kernel, error) {
	k, err := simkern.New(kcfg)
	if err != nil {
		return nil, err
	}
	enc, err := ghost.NewEnclave(k, policy, gcfg)
	if err != nil {
		return nil, err
	}
	if err := add(k); err != nil {
		return nil, err
	}
	if _, err := k.Run(0); err != nil {
		return nil, err
	}
	if n := k.Outstanding(); n != 0 {
		return nil, fmt.Errorf("simrun: %d tasks unfinished under %s", n, policy.Name())
	}
	if stats != nil {
		*stats = enc.Stats()
	}
	return k, nil
}

// AddTasks adapts a task list to ExecStats' seeding hook.
func AddTasks(tasks []*simkern.Task) func(*simkern.Kernel) error {
	return func(k *simkern.Kernel) error {
		for _, t := range tasks {
			if err := k.AddTask(t); err != nil {
				return err
			}
		}
		return nil
	}
}
