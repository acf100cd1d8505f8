package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// obsFlagsValid is FuzzObsFlags' reference predicate, written from the
// flags' documented constraints: -trace-every at least 1, -progress not
// negative, and the trace sub-flags (-trace-every above 1, -trace-funcs,
// -trace-segments) only with a -trace-out path.
func obsFlagsValid(f *ObsFlags) bool {
	subFlags := f.TraceEvery != 1 || f.TraceFuncs != "" || f.TraceSegments
	return f.TraceEvery >= 1 && f.Progress >= 0 && (f.TraceOut != "" || !subFlags)
}

// FuzzObsFlags parses random argument vectors (NUL-separated) through
// RegisterObs on a fresh FlagSet and requires ObsFlags.Validate to accept
// exactly the vectors obsFlagsValid accepts, naming a flag when it
// rejects one. Vectors the flag package itself rejects are skipped.
func FuzzObsFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-trace-out\x00t.json",
		"-trace-out\x00t.json\x00-trace-every\x003\x00-trace-funcs\x00fib30,fib35\x00-trace-segments",
		"-trace-every\x000",
		"-trace-every=-5\x00-trace-out=t.json",
		"-trace-every\x001",
		"-trace-every\x002",
		"-trace-funcs\x00fib30",
		"-trace-funcs=",
		"-trace-segments",
		"-trace-segments=false",
		"-trace-out=\x00-trace-segments",
		"-progress\x00-1s",
		"-progress=0",
		"-progress\x002s\x00-run-report\x00r.json",
		"-cpuprofile\x00c.prof\x00-memprofile\x00m.prof",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, argv string) {
		var args []string
		if argv != "" {
			args = strings.Split(argv, "\x00")
		}
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		of := RegisterObs(fs)
		if err := fs.Parse(args); err != nil {
			return
		}
		err, want := of.Validate(), obsFlagsValid(of)
		if (err == nil) != want {
			t.Fatalf("%q: Validate says %v, reference accepts %v (%+v)", args, err, want, *of)
		}
		if err != nil && !strings.Contains(err.Error(), "-trace-") && !strings.Contains(err.Error(), "-progress") {
			t.Fatalf("%q: error %q names no flag", args, err)
		}
	})
}
