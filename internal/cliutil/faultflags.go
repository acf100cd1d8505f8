// Shared -fault-* flag handling: clustersim attaches a full deterministic
// fault plan to a single replay; the flags mirror faults.Config one for
// one so scripted sweeps can name every knob.

package cliutil

import (
	"flag"
	"fmt"
	"math"
	"time"

	"github.com/faassched/faassched/internal/faults"
)

// FaultFlags holds the parsed -fault-* flag values.
type FaultFlags struct {
	Seed            int64
	CrashMTBF       time.Duration
	Downtime        time.Duration
	StragglerMTBF   time.Duration
	StragglerDur    time.Duration
	StragglerFactor float64
	Timeout         time.Duration
	Retries         int
	BackoffBase     time.Duration
	BackoffCap      time.Duration
}

// RegisterFaults registers the -fault-* flags on fs.
func RegisterFaults(fs *flag.FlagSet) *FaultFlags {
	f := &FaultFlags{}
	fs.Int64Var(&f.Seed, "fault-seed", 0, "fault-plan seed (0 = the run's -seed)")
	fs.DurationVar(&f.CrashMTBF, "fault-crash-mtbf", 0, "per-server mean time between crashes (0 = no crashes)")
	fs.DurationVar(&f.Downtime, "fault-downtime", 0, "outage length after a crash (0 = default 30s)")
	fs.DurationVar(&f.StragglerMTBF, "fault-straggler-mtbf", 0, "per-server mean time between straggler windows (0 = none)")
	fs.DurationVar(&f.StragglerDur, "fault-straggler-duration", 0, "straggler-window length (0 = default 1m)")
	fs.Float64Var(&f.StragglerFactor, "fault-straggler-factor", 0, "CPU slowdown inside a straggler window (0 = default 2.0)")
	fs.DurationVar(&f.Timeout, "fault-timeout", 0, "per-invocation deadline from arrival (0 = none)")
	fs.IntVar(&f.Retries, "fault-retries", 0, "retry budget per invocation, first attempt included (0 or 1 = fail fast)")
	fs.DurationVar(&f.BackoffBase, "fault-backoff", 0, "first-retry backoff delay (0 = default 100ms)")
	fs.DurationVar(&f.BackoffCap, "fault-backoff-cap", 0, "exponential backoff cap (0 = default 10s)")
	return f
}

// Config resolves the flags into a fault plan. defaultSeed fills in
// -fault-seed 0; validation happens in the simulation entry points.
func (f *FaultFlags) Config(defaultSeed int64) faults.Config {
	seed := f.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return faults.Config{
		Seed:              seed,
		CrashMTBF:         f.CrashMTBF,
		Downtime:          f.Downtime,
		StragglerMTBF:     f.StragglerMTBF,
		StragglerDuration: f.StragglerDur,
		StragglerFactor:   f.StragglerFactor,
		Timeout:           f.Timeout,
		Retry: faults.RetryPolicy{
			MaxAttempts: f.Retries,
			BackoffBase: f.BackoffBase,
			BackoffCap:  f.BackoffCap,
		},
	}
}

// Validate rejects out-of-range flag values with flag-named messages
// (faults.Config.Validate would name fields, not flags).
func (f *FaultFlags) Validate() error {
	if f.CrashMTBF < 0 || f.StragglerMTBF < 0 || f.Timeout < 0 {
		return fmt.Errorf("-fault-crash-mtbf/-fault-straggler-mtbf/-fault-timeout must be >= 0")
	}
	if f.Downtime < 0 || f.StragglerDur < 0 {
		return fmt.Errorf("-fault-downtime/-fault-straggler-duration must be >= 0")
	}
	if x := f.StragglerFactor; x != 0 && (math.IsNaN(x) || math.IsInf(x, 0) || x < 1) {
		return fmt.Errorf("-fault-straggler-factor %v must be finite and >= 1 (or 0 for the default)", x)
	}
	if f.Retries < 0 || f.BackoffBase < 0 || f.BackoffCap < 0 {
		return fmt.Errorf("-fault-retries/-fault-backoff/-fault-backoff-cap must be >= 0")
	}
	if f.Retries > math.MaxInt32 {
		return fmt.Errorf("-fault-retries %d must be <= %d", f.Retries, math.MaxInt32)
	}
	return nil
}
