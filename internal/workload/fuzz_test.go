package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/fib"
)

// FuzzReadSource: whatever the file holds, the reader never panics, and
// either its error function reports a failure or every invocation it
// yielded has a non-decreasing arrival, a positive duration and at least
// 1 MB of memory.
//
//	go test ./internal/workload -run '^$' -fuzz FuzzReadSource -fuzztime 30s
func FuzzReadSource(f *testing.F) {
	for _, seed := range []string{
		"iat_us,fib_n,mem_mb\n1000,36,128\n2000,31,256\n",
		"iat_us,fib_n,mem_mb\nbogus,36,128\n",
		"iat_us,fib_n,mem_mb\n1,36\n",
		"iat_us,fib_n,mem_mb\nx,36,128\n",
		"iat_us,fib_n,mem_mb\n-5,36,128\n",
		"iat_us,fib_n,mem_mb\n1,zero,128\n",
		"iat_us,fib_n,mem_mb\n1,36,-1\n",
		"iat_us,fib_n,mem_mb\n",
		"iat_us,fib_n,mem_mb\n1000,36,128\n2000,31,256\nbogus,31,128\n500,31,128\n",
		"iat_us,fib_n,mem_mb\n1,36,128\n1,36,128\n",
		"iat_us,fib_n,mem_mb\n9223372036854775807,10,128\n",
		"iat_us,fib_n,mem_mb\n1,2000000000,128\n",
	} {
		f.Add(seed)
	}
	var buf bytes.Buffer
	invs := []Invocation{
		{Arrival: 0, FibN: 30, MemMB: 128},
		{Arrival: 1500 * time.Microsecond, FibN: 36, MemMB: 256},
		{Arrival: 1500 * time.Microsecond, FibN: 41, MemMB: 512},
	}
	if err := Write(&buf, invs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, file string) {
		src, readErr, err := ReadSource(strings.NewReader(file), fib.DurationModel{})
		if err != nil {
			return
		}
		var got []Invocation
		src(func(inv Invocation) bool {
			got = append(got, inv)
			return true
		})
		if readErr() != nil {
			return
		}
		last := time.Duration(0)
		for i, inv := range got {
			if inv.Arrival < last || inv.Duration <= 0 || inv.MemMB < 1 {
				t.Fatalf("invocation %d of %q: %+v (previous arrival %v)", i, file, inv, last)
			}
			last = inv.Arrival
		}
	})
}

// TestReadSourceRejectsOverflow: an inter-arrival time or accumulated
// arrival beyond time.Duration, or a fib_n whose modeled duration does
// not fit one, is rejected with the row's line number.
func TestReadSourceRejectsOverflow(t *testing.T) {
	for name, file := range map[string]string{
		"iat":      "iat_us,fib_n,mem_mb\n9223372036854775807,10,128\n",
		"arrival":  "iat_us,fib_n,mem_mb\n1,36,128\n5000000000000000,36,128\n5000000000000000,36,128\n",
		"duration": "iat_us,fib_n,mem_mb\n1,36,128\n1,2000000000,128\n",
	} {
		src, readErr, err := ReadSource(strings.NewReader(file), fib.DurationModel{})
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		Materialize(src)
		want := map[string]string{"iat": "line 2", "arrival": "line 4", "duration": "line 3"}[name]
		if err := readErr(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, want)
		}
	}
}
