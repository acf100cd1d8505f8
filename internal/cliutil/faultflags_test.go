package cliutil

import (
	"flag"
	"math"
	"strings"
	"testing"
	"time"
)

// TestFaultFlagsValidate: out-of-range values, non-finite straggler
// factors and a retry budget above the int32 maximum included, are rejected with the offending flag's name.
func TestFaultFlagsValidate(t *testing.T) {
	ok := []string{"", "-fault-straggler-factor 1", "-fault-straggler-factor 2.5 -fault-straggler-mtbf 20s", "-fault-retries 2147483647"}
	for _, args := range ok {
		f := parseFaults(t, args)
		if err := f.Validate(); err != nil {
			t.Errorf("%q rejected: %v", args, err)
		}
	}
	bad := []struct{ args, flag string }{
		{"-fault-straggler-factor 0.5", "-fault-straggler-factor"},
		{"-fault-straggler-factor NaN", "-fault-straggler-factor"},
		{"-fault-straggler-factor +Inf", "-fault-straggler-factor"},
		{"-fault-straggler-factor -Inf", "-fault-straggler-factor"},
		{"-fault-crash-mtbf -1s", "-fault-crash-mtbf"},
		{"-fault-downtime -1s", "-fault-downtime"},
		{"-fault-retries -1", "-fault-retries"},
		{"-fault-retries 2147483648", "-fault-retries"},
	}
	for _, c := range bad {
		err := parseFaults(t, c.args).Validate()
		if err == nil {
			t.Errorf("%q accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%q: error %q does not name %s", c.args, err, c.flag)
		}
	}
}

func parseFaults(t *testing.T, args string) *FaultFlags {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := RegisterFaults(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// FuzzFaultFlags: the flag validator duplicates faults.Config.Validate
// field by field so its errors can name flags; it must accept exactly
// the plans the fault layer accepts.
func FuzzFaultFlags(f *testing.F) {
	add := func(crash, down, stragMTBF, stragDur time.Duration, factor float64, timeout time.Duration, retries int, base, backoffCap time.Duration) {
		f.Add(int64(crash), int64(down), int64(stragMTBF), int64(stragDur), factor, int64(timeout), retries, int64(base), int64(backoffCap))
	}
	add(0, 0, 0, 0, 0, 0, 0, 0, 0)
	add(30*time.Second, 5*time.Second, 20*time.Second, 10*time.Second, 2, 20*time.Second, 3, 100*time.Millisecond, 10*time.Second)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5, 1, math.MaxFloat64} {
		add(0, 0, 20*time.Second, 0, x, 0, 0, 0, 0)
	}
	add(-1, 0, 0, 0, 0, 0, 0, 0, 0)
	add(0, -1, 0, 0, 0, 0, 0, 0, 0)
	add(0, 0, -1, -1, 0, -1, 0, 0, 0)
	add(0, 0, 0, 0, 0, 0, -1, -1, -1)
	add(0, 0, 0, 0, 0, 0, math.MaxInt32, 0, 0)
	add(0, 0, 0, 0, 0, 0, math.MaxInt32+1, 0, 0)
	f.Fuzz(func(t *testing.T, crash, down, stragMTBF, stragDur int64, factor float64, timeout int64, retries int, base, backoffCap int64) {
		ff := &FaultFlags{
			CrashMTBF:       time.Duration(crash),
			Downtime:        time.Duration(down),
			StragglerMTBF:   time.Duration(stragMTBF),
			StragglerDur:    time.Duration(stragDur),
			StragglerFactor: factor,
			Timeout:         time.Duration(timeout),
			Retries:         retries,
			BackoffBase:     time.Duration(base),
			BackoffCap:      time.Duration(backoffCap),
		}
		flagErr, cfgErr := ff.Validate(), ff.Config(1).Validate()
		if (flagErr == nil) != (cfgErr == nil) {
			t.Fatalf("%+v: flag validator says %v, faults.Config.Validate says %v", ff, flagErr, cfgErr)
		}
	})
}
