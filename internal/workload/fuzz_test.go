package workload

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/fib"
)

// FuzzReadSource: whatever the file holds, the reader never panics, and
// either its error function reports a failure or every invocation it
// yielded has a non-decreasing arrival, a positive duration, a positive
// fib_n and mem_mb, and carries exactly the fib_n and mem_mb integers
// of its line — a conversion to int32 ahead of the range check would
// read 4294967332 as 36, and only the round trip catches it. Each file
// is read under the default model and under one anchored at
// fib(math.MaxInt32), where every fib_n up to the int32 maximum models
// a positive duration, so the fib_n bound is the reader's own check
// rather than the model's overflow.
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
		"iat_us,fib_n,mem_mb\n1,2147483647,128\n",
		"iat_us,fib_n,mem_mb\n1,2147483648,128\n",
		"iat_us,fib_n,mem_mb\n1,36,2147483647\n",
		"iat_us,fib_n,mem_mb\n1,36,2147483648\n",
		"iat_us,fib_n,mem_mb\n1,4294967332,128\n",
		"iat_us,fib_n,mem_mb\n1,36,4294967424\n",
		"iat_us,fib_n,mem_mb\n\n1,36,128\r\n  \n2,31,256\n",
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
		for _, model := range []fib.DurationModel{{}, topModel} {
			src, readErr, err := ReadSource(strings.NewReader(file), model)
			if err != nil {
				return
			}
			var got []Invocation
			src(func(inv Invocation) bool {
				got = append(got, inv)
				return true
			})
			if readErr() != nil {
				continue
			}
			rows := dataRows(t, file)
			if len(rows) != len(got) {
				t.Fatalf("model %+v: read %d invocations from %d rows of %q", model, len(got), len(rows), file)
			}
			last := time.Duration(0)
			for i, inv := range got {
				if inv.Arrival < last || inv.Duration <= 0 || inv.FibN < 1 || inv.MemMB < 1 {
					t.Fatalf("model %+v, invocation %d of %q: %+v (previous arrival %v)", model, i, file, inv, last)
				}
				if int64(inv.FibN) != rows[i][0] || int64(inv.MemMB) != rows[i][1] {
					t.Fatalf("model %+v, invocation %d of %q: FibN %d MemMB %d, line holds %d and %d",
						model, i, file, inv.FibN, inv.MemMB, rows[i][0], rows[i][1])
				}
				last = inv.Arrival
			}
		}
	})
}

// dataRows returns the fib_n and mem_mb integers of each data row of a
// workload file that ReadSource read without error, splitting lines as
// the reader does.
func dataRows(t *testing.T, file string) [][2]int64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(file))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	sc.Scan() // header
	var rows [][2]int64
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		var row [2]int64
		for j := range row {
			v, err := strconv.ParseInt(fields[j+1], 10, 64)
			if err != nil {
				t.Fatalf("row %q read without error but its field %d is %q: %v", text, j+1, fields[j+1], err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	return rows
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

// topModel anchors the duration ladder at fib(math.MaxInt32), so every
// fib_n from about math.MaxInt32-60 up models a positive duration that
// fits a time.Duration: only the reader's own bound rejects one above the
// int32 maximum.
var topModel = fib.DurationModel{BaseN: math.MaxInt32, Base: time.Millisecond}

// TestReadSourceInt32Fields: a fib_n or mem_mb at the int32 maximum is
// read as it is, and one above it is rejected with the row's line
// number, since each becomes an int32 field of the invocation's record.
func TestReadSourceInt32Fields(t *testing.T) {
	for _, tc := range []struct {
		name, row string
		want      string // error substring; empty when the row must read
	}{
		{"fib_n max fits", "1,2147483647,128", ""},
		{"fib_n max+1 rejected", "1,2147483648,128", "line 3: fib_n 2147483648 above 2147483647"},
		{"mem_mb max fits", "1,2147483647,2147483647", ""},
		{"mem_mb max+1 rejected", "1,2147483647,2147483648", "line 3: mem_mb 2147483648 above 2147483647"},
	} {
		file := "iat_us,fib_n,mem_mb\n1,2147483647,128\n" + tc.row + "\n"
		src, readErr, err := ReadSource(strings.NewReader(file), topModel)
		if err != nil {
			t.Fatalf("%s: header rejected: %v", tc.name, err)
		}
		got := Materialize(src)
		err = readErr()
		if tc.want == "" {
			if err != nil || len(got) != 2 {
				t.Errorf("%s: read %d invocations, err %v", tc.name, len(got), err)
			} else if got[1].FibN != math.MaxInt32 || got[1].Duration != time.Millisecond {
				t.Errorf("%s: read %+v", tc.name, got[1])
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidate: Validate rejects what no simulation runs — a
// non-positive Duration and a negative TimeoutMS — naming the
// invocation's index, and accepts the int32 extremes and a zero timeout.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		inv  Invocation
		want string // error substring; empty when the invocation is valid
	}{
		{"int32 extremes", Invocation{Duration: 1, FibN: math.MaxInt32, MemMB: math.MaxInt32, FuncID: math.MaxInt32, TimeoutMS: math.MaxInt32}, ""},
		{"zero timeout takes the default", Invocation{Duration: time.Second, FibN: 36, MemMB: 128}, ""},
		{"zero duration rejected", Invocation{FibN: 36, MemMB: 128}, "invocation 7: non-positive Duration 0s"},
		{"negative duration rejected", Invocation{Duration: -time.Millisecond, FibN: 36, MemMB: 128}, "invocation 7: non-positive Duration -1ms"},
		{"negative timeout rejected", Invocation{Duration: time.Second, FibN: 36, MemMB: 128, TimeoutMS: -5}, "invocation 7: negative TimeoutMS -5"},
		{"zero memory accepted", Invocation{Duration: time.Second, FibN: 36}, ""},
		{"negative memory rejected", Invocation{Duration: time.Second, FibN: 36, MemMB: -1024}, "invocation 7: negative MemMB -1024"},
		{"int32 minimum memory rejected", Invocation{Duration: time.Second, FibN: 36, MemMB: math.MinInt32}, "invocation 7: negative MemMB -2147483648"},
	} {
		err := tc.inv.Validate(7)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
